"""JSON helpers: complex scalars as [re, im], matrices as nested lists, and
the report writer."""

import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA_VERSION = 1


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def pair_to_complex(p, field):
    """A number, or an [re, im] pair of numbers, as a finite complex;
    ValueError for anything else, naming field when p is NaN, infinite or
    an integer past the float range."""
    if _is_number(p):
        parts = (p,)
    elif isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_number, p)):
        parts = p
    else:
        raise ValueError(f"a complex number must be a number or an [re, im] pair; got {p!r}")
    try:
        z = complex(*parts)
        finite = math.isfinite(z.real) and math.isfinite(z.imag)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{field} must be finite; got {p!r}")
    return z


def matrix_to_json(m):
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def json_to_matrix(rows, field="a matrix"):
    """rows of numbers and [re, im] pairs as a complex array; ValueError
    naming field unless rows is a list of lists of one length."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"{field} must be a list of rows, each a list of entries")
    lengths = [len(row) for row in rows]
    if len(set(lengths)) > 1:
        raise ValueError(f"{field} must have rows of one length; got row lengths {lengths}")
    entry = f"every entry of {field}"
    return np.array([[pair_to_complex(v, entry) for v in row] for row in rows], dtype=complex)


def _report_text(report):
    """report as the text of json.dumps(report, indent=2, sort_keys=True),
    byte for byte, after numpy scalars become Python scalars, a complex
    [re, im], a tuple a list and a non-finite float None.  A dict key that
    is not a str raises TypeError.

    Lists of Python floats, flat or nested to one shape (a branch's samples,
    a matrix_to_json matrix), are written as one block: one float repr per
    value, joined with separators made once per shape and depth.
    """
    out = []
    _write(report, 0, out, {})
    return "".join(out)


def _write(obj, level, out, cache):
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, complex):
        _write([obj.real, obj.imag], level, out, cache)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for k in sorted(obj):  # keys of two types, or one not a str, raise TypeError
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write(obj[k], level + 1, out, cache)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif not _write_float_block(obj, level, out, cache):
            inner = "\n" + "  " * (level + 1)
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, level + 1, out, cache)
                sep = "," + inner
            out.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(v):
    # json writes NaN and Infinity, which are not JSON; reports write null
    text = float.__repr__(v)
    return "null" if text[-1] in "nf" else text


def _write_float_block(obj, level, out, cache):
    """Write obj, a list or tuple, as one block if it is a flat list of
    floats or nested lists and tuples of one shape with floats inside;
    return whether it did."""
    shape = []
    node = obj
    while type(node) in (list, tuple):
        if not node:
            return False
        shape.append(len(node))
        node = node[0]
    if not isinstance(node, float):
        return False
    flat = obj
    for n in shape[1:]:
        if not (set(map(type, flat)) <= {list, tuple} and set(map(len, flat)) == {n}):
            return False
        flat = list(chain.from_iterable(flat))
    try:
        reprs = list(map(float.__repr__, flat))  # TypeError on any value that is not a float
    except TypeError:
        return False
    key = (tuple(shape), level)
    if key not in cache:
        cache[key] = _block_separators(shape, level)
    text = _interleave(cache[key], reprs)
    if "n" in text:  # nan, inf or -inf; no separator holds an "n"
        text = _interleave(cache[key], list(map(_float_text, flat)))
    out.append(text)
    return True


def _interleave(separators, values):
    parts = [None] * (2 * len(values) + 1)
    parts[0::2] = separators
    parts[1::2] = values
    return "".join(parts)


def _block_separators(shape, level):
    """The texts around the values of a float block of shape whose opening
    bracket sits at indent level: the opening first, the closing last and
    between values p-1 and p the p-th, as the indented json encoder writes
    them."""
    depth = len(shape)
    newline = ["\n" + "  " * (level + i) for i in range(depth + 1)]
    opens = ["".join("[" + newline[i + 1] for i in range(j, depth)) for j in range(depth + 1)]
    closes = ["".join(newline[i] + "]" for i in reversed(range(j, depth)))
              for j in range(depth + 1)]
    gaps = []
    for i in reversed(range(depth)):
        # the gaps inside one sub-block over dimensions i, ..., depth-1
        gaps = ((gaps + [closes[i + 1] + "," + newline[i + 1] + opens[i + 1]]) * shape[i])[:-1]
    return [opens[0], *gaps, closes[0]]
