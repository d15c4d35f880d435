"""Slice roots through the library's batched kernel, for tests.

Not an oracle: it calls jointspec.line_roots_batch.
"""

import numpy as np

import jointspec as js


def e1_line_roots(t, rests):
    """One LineRoots per line s -> (s, rest): line_roots_batch along e_1.

    Each rest holds the coordinates x_2, ..., x_n of its line's base (for a
    pair, x_2 alone); the base's x_1 is 0.
    """
    rests = np.asarray(rests, dtype=complex).reshape(len(rests), -1)
    bases = np.concatenate([np.zeros((len(rests), 1)), rests], axis=1)
    e1 = np.zeros_like(bases)
    e1[:, 0] = 1.0
    return js.line_roots_batch(t, bases, e1)
