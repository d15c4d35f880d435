"""Matrix tuples, pencil evaluation, and the proper joint spectrum.

A tuple ``(A_1, ..., A_n)`` of square complex matrices defines the pencil
``A(x) = x_1 A_1 + ... + x_n A_n``.  The proper joint spectrum is the affine
set of points ``x`` where ``A(x) - I`` is singular.  This module provides two
batched kernels, the roots of many lines, one nan-padded row per line
(line_roots_batch: the standard form from one stacked LU solve and one
stacked eigvals, QZ for the lines it cannot trust; _qz_line_roots, QZ on
every line, solves the slice ladders), and the membership test of many
points (spectral_mask), and real curve sampling for plots.

Nothing here computes a determinant: distances to the spectrum come from the
relative smallest singular value, which neither overflows nor underflows as
the dimension grows.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError
from .serialize import json_to_matrix, matrix_to_json


def opnorm(m):
    """Operator 2-norm (largest singular value), bit for bit np.linalg.norm(m, 2)
    without its axis handling."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class MatrixTuple:
    """Ordered tuple of N x N complex matrices defining a pencil.

    Real input is promoted to complex.  The identity that closes the pencil
    (the coefficient of the affine term) is implicit and never stored.
    """

    matrices: tuple = field()

    def __init__(self, matrices):
        mats = tuple(np.array(m, dtype=complex) for m in matrices)
        if len(mats) < 1:
            raise DimensionMismatchError("a matrix tuple needs at least one matrix")
        dim = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"all matrices must be square of identical dimension; "
                    f"got shapes {[tuple(x.shape) for x in mats]}"
                )
        if dim < 1:
            raise DimensionMismatchError("matrix dimension must be >= 1")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self):
        return len(self.matrices)

    @property
    def dim(self):
        return self.matrices[0].shape[0]

    def to_json(self):
        return {
            "n": self.n,
            "N": self.dim,
            "matrices": [matrix_to_json(m) for m in self.matrices],
        }

    @classmethod
    def from_json(cls, obj):
        """The tuple of a to_json object; ValueError naming the field when
        obj is not one."""
        if not (isinstance(obj, dict) and isinstance(obj.get("matrices"), list)):
            raise ValueError("a tuple must be an object whose 'matrices' is a list of matrices")
        tup = cls([json_to_matrix(m, "each of the tuple's 'matrices'") for m in obj["matrices"]])
        if "n" in obj and obj["n"] != tup.n:
            raise DimensionMismatchError(f"declared n={obj['n']} but {tup.n} matrices given")
        if "N" in obj and obj["N"] != tup.dim:
            raise DimensionMismatchError(f"declared N={obj['N']} but matrices are {tup.dim}x{tup.dim}")
        return tup


def _coord_rows(t: MatrixTuple, xs):
    rows = np.asarray(xs, dtype=complex)
    if rows.size == 0:
        return rows.reshape(0, t.n)
    if rows.ndim != 2 or rows.shape[1] != t.n:
        raise DimensionMismatchError(f"points must be rows of n={t.n} coordinates")
    return rows


def _pencil_stack(t: MatrixTuple, rows):
    """A(x) for every row x of rows, stacked as (len(rows), N, N).

    The terms are summed in coordinate order.
    """
    acc = np.zeros((rows.shape[0], t.dim, t.dim), dtype=complex)
    for k, mk in enumerate(t.matrices):
        acc += rows[:, k, None, None] * mk
    return acc


def _svd_extremes(stack):
    """(s_min, s_max) arrays over a stack of matrices, from one stacked SVD.

    s_min / (1 + s_max) is the one residual measure for "m is singular".
    """
    s = np.linalg.svd(stack, compute_uv=False)
    return s[..., -1], s[..., 0]


def _opnorms(mats):
    """The opnorm of every matrix of a list of one shape, as an array, from
    one stacked SVD: bit for bit one opnorm each."""
    return _svd_extremes(np.array(mats, dtype=complex))[1]


def spectral_mask(t: MatrixTuple, points, tol):
    """Whether A(x) - I is singular at relative tolerance tol, for each row x of points.

    Compares the smallest singular value with tol (1 + the largest), not
    |det|, so the test does not degrade with matrix dimension.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows = _coord_rows(t, points)
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    smin, smax = _svd_extremes(_pencil_stack(t, rows) - np.eye(t.dim))
    return smin <= tol * (1.0 + smax)


# A line's standard form W = (I - A(base))^-1 A(direction) is trusted
# while max|I - A(base)| max|W| <= _STANDARD_FORM_GROWTH max|A(direction)|.
# The left side, how far the solve amplified A(direction), underestimates
# cond(I - A(base)), and the roots' deviation from QZ grew with it.  On the
# 10,839 lines of coxeter-rigidity and cli-mix rounds (seeds 101, 7 and
# 12345) the deviation stayed within 2.5e-11 (1 + |s|) up to 1e4, and
# reached 1.1e-10 (1 + |s|) at 1.5e5, where QZ was exact to 1.5e-15.  Above
# the bound are 39 of those lines, and the dihedral pair's bases within
# 1e-4 of its singular point (0, 1) along e_1.
_STANDARD_FORM_GROWTH = 1e4


def _ggev_stack(a, b):
    """The (alpha, beta) of LAPACK ggev, eigenvalues only, on every pencil
    (a[i], b[i]) of two finite complex stacks: the eigenvalues are
    alpha / beta.

    The workspace query is made once per stack; a nonzero info raises
    LinAlgError.
    """
    ggev, = scipy.linalg.get_lapack_funcs(("ggev",), (a[0], b[0]))
    lwork = int(ggev(a[0], b[0], lwork=-1)[-2][0].real)
    alpha = np.empty(a.shape[:2], dtype=complex)
    beta = np.empty(a.shape[:2], dtype=complex)
    for i, (ai, bi) in enumerate(zip(a, b)):
        # positional: no left or right vectors (keywords cost 2 us a call)
        alpha[i], beta[i], _, _, _, info = ggev(ai, bi, 0, 0, lwork)
        if info != 0:
            raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed: info={info}")
    return alpha, beta


def _line_pencils(t: MatrixTuple, bases, directions):
    """(I - A(bases[i]), A(directions[i])) for every line, as two stacks.

    Rows that do not match the tuple raise DimensionMismatchError, and
    stacks with a non-finite entry ValueError.
    """
    bases = _coord_rows(t, bases)
    directions = _coord_rows(t, directions)
    if bases.shape != directions.shape:
        raise DimensionMismatchError("one direction is needed for every base")
    m = np.eye(t.dim) - _pencil_stack(t, bases)
    d = _pencil_stack(t, directions)
    if not (np.isfinite(m).all() and np.isfinite(d).all()):
        raise ValueError("array must not contain infs or NaNs")
    return m, d


def _qz_roots(m, d):
    """The roots s of det(m[i] - s d[i]) = 0 of every pencil, from
    _ggev_stack: beta == 0 is an infinite root, and so is a quotient that
    overflows."""
    alpha, beta = _ggev_stack(m, d)
    roots = np.full(alpha.shape, np.inf, dtype=complex)
    nonzero = beta != 0
    roots[nonzero] = alpha[nonzero] / beta[nonzero]
    return roots


def _root_table(roots):
    """The finite roots of each row of roots, sorted by real part, then
    imaginary part, and padded with nan to the largest finite count."""
    finite = np.isfinite(roots)
    order = np.lexsort((roots.imag, roots.real, ~finite), axis=-1)
    roots = np.take_along_axis(roots, order, axis=-1)
    counts = finite.sum(axis=1)
    roots[np.arange(roots.shape[1]) >= counts[:, None]] = np.nan
    return roots[:, :counts.max()]


def _qz_line_roots(t: MatrixTuple, bases, directions):
    """line_roots_batch with every line solved by QZ, whose roots equal
    those of scipy.linalg.eigvals bit for bit: the slice ladders' solver,
    whose roots feed second differences that scale rounding by 4/t^2."""
    return _root_table(_qz_roots(*_line_pencils(t, bases, directions)))


def line_roots_batch(t: MatrixTuple, bases, directions):
    """Intersect each line bases[i] + s * directions[i] with the proper joint
    spectrum: the finite roots s of det(A(base + s * direction) - I) = 0 as
    one complex table of shape (lines, width).

    Row i holds line i's finite roots with multiplicity, sorted by real
    part, then imaginary part, and padded with nan; width is the largest
    finite-root count of any line, so no lines give shape (0, 0).  The rest
    of a row's t.dim roots are infinite, the directions where the leading
    coefficient is singular: t.dim - (~np.isnan(row)).sum() of them.

    Each line is the pencil det((I - A(base)) - s A(direction)) = 0, solved
    in the standard form: s = 1 / mu for the eigenvalues mu of
    W = (I - A(base))^-1 A(direction), with mu == 0, or a quotient that
    overflows, an infinite root.  All lines take one stacked LU solve and
    one stacked eigvals.  The standard form is stable only where
    I - A(base) is well conditioned, while QZ (Moler & Stewart 1973) is
    backward stable for the pencil (Golub & Van Loan, Matrix Computations,
    7.7).  So a line whose solve grew past _STANDARD_FORM_GROWTH is solved
    by LAPACK's QZ routine ggev instead, and so is every line of a batch
    whose solve meets an exactly singular I - A(base).
    """
    m, d = _line_pencils(t, bases, directions)
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    try:
        w = np.linalg.solve(m, d)
    except np.linalg.LinAlgError:  # numpy does not say which line was singular
        return _root_table(_qz_roots(m, d))
    m_peak, w_peak, d_peak = (np.abs(a).max(axis=(1, 2)) for a in (m, w, d))
    trusted = m_peak * w_peak <= _STANDARD_FORM_GROWTH * d_peak  # False where w overflowed
    roots = np.empty(m.shape[:2], dtype=complex)
    if trusted.any():
        with np.errstate(all="ignore"):  # 1 / 0 and an overflow are infinite roots
            roots[trusted] = 1.0 / np.linalg.eigvals(w if trusted.all() else w[trusted])
    if not trusted.all():
        roots[~trusted] = _qz_roots(m[~trusted], d[~trusted])
    return _root_table(roots)


def _is_pair(v):
    return isinstance(v, (list, tuple, np.ndarray)) and len(v) == 2


def _is_real(v):
    try:  # an int past the float range is no finite real: isfinite overflows
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _check_window_grid(window, grid):
    """ValueError unless window is two finite real (lo, hi) pairs with lo < hi
    and grid two positive integers."""
    if not (_is_pair(window) and all(_is_pair(w) and all(map(_is_real, w)) and w[0] < w[1]
                                     for w in window)):
        raise ValueError(f"plot 'window' must be two [lo, hi] pairs of finite reals "
                         f"with lo < hi; got {window!r}")
    if not (_is_pair(grid) and all(isinstance(g, numbers.Integral) and not isinstance(g, bool)
                                   and g > 0 for g in grid)):
        raise ValueError(f"plot 'grid' must be two positive integers; got {grid!r}")


def sample_spectrum_curve(t: MatrixTuple, window=((-2.0, 2.0), (-2.0, 2.0)), grid=(41, 41)):
    """Sample the real slice of the joint spectrum of a pair (n = 2).

    Every x_2 column is a line along x_1, and all columns are solved in one
    line_roots_batch call.  A root is kept when it lies within 0.75 dx of
    its nearest x_1 grid node (so |Im x_1| <= 0.75 dx), inside the window,
    and passes the membership test at 1e-9 (one spectral_mask call for all
    columns).  Output is a (k, 2) complex array of points (x_1, x_2),
    deduplicated per x_2 column and sorted lexicographically.  A window
    that is not two finite real (lo, hi) pairs with lo < hi, or a grid that
    is not two positive integers, raises ValueError.
    """
    _check_window_grid(window, grid)
    if t.n != 2:
        raise DimensionMismatchError("curve sampling is defined for pairs (n = 2)")
    (x1lo, x1hi), (x2lo, x2hi) = window
    n1, n2 = grid
    x1s = np.linspace(x1lo, x1hi, n1)
    x2s = np.linspace(x2lo, x2hi, n2)
    dx = (x1hi - x1lo) / max(n1 - 1, 1)
    bases = np.stack([np.zeros(n2), x2s], axis=1)
    table = line_roots_batch(t, bases, np.tile([1.0, 0.0], (n2, 1)))
    cols, idx = np.nonzero(~np.isnan(table))
    roots = table[cols, idx]
    keep = ((np.abs(roots[:, None] - x1s).min(axis=1) <= 0.75 * dx)
            & (x1lo - 1e-9 <= roots.real) & (roots.real <= x1hi + 1e-9))
    cols, roots = cols[keep], roots[keep]
    on = spectral_mask(t, np.stack([roots, x2s[cols]], axis=1), 1e-9)
    kept = {}
    for c, root in zip(cols[on], roots[on]):
        col = kept.setdefault(c, [])
        if all(abs(root - r) > 1e-8 * (1.0 + abs(root)) for r in col):
            col.append(root)
    points = np.array([(r, x2s[c]) for c, col in kept.items() for r in col],
                      dtype=complex).reshape(-1, 2)
    x1, x2 = points.T
    return points[np.lexsort((x2.imag, x2.real, x1.imag, x1.real))]


@dataclass(frozen=True)
class NormalityReport:
    """Numeric normality / diagonalizability test for a single matrix."""

    commutator_norm: float
    is_normal: bool
    is_diagonalizable: bool
    tolerance: float


def normality_report(a):
    """Test ||A A* - A* A|| against 1e-10 (1 + ||A||^2) and diagonalizability."""
    a = np.asarray(a, dtype=complex)
    cnorm, scaled, is_normal = _commutator_test(a, opnorm(a))
    vals, vecs = np.linalg.eig(a)
    try:
        cond = np.linalg.cond(vecs)
    except np.linalg.LinAlgError:
        cond = np.inf
    return NormalityReport(
        commutator_norm=cnorm,
        is_normal=is_normal,
        is_diagonalizable=bool(np.isfinite(cond) and cond < 1e6),
        tolerance=scaled,
    )


def _commutator_test(a, a_norm):
    """(||A A* - A* A||, 1e-10 (1 + a_norm^2), whether the first is at most
    the second) for the complex array a, whose operator norm is a_norm: the
    one normality test."""
    comm = a @ a.conj().T - a.conj().T @ a
    cnorm = opnorm(comm)
    scaled = 1e-10 * (1.0 + a_norm ** 2)
    return cnorm, scaled, bool(cnorm <= scaled)
