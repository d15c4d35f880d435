"""Matrix tuples, pencil evaluation, and the proper joint spectrum.

A tuple ``(A_1, ..., A_n)`` of square complex matrices defines the pencil
``A(x) = x_1 A_1 + ... + x_n A_n``.  The proper joint spectrum is the affine
set of points ``x`` where ``A(x) - I`` is singular.  This module provides two
batched kernels, the roots of many lines as generalized eigenvalue problems,
one nan-padded row per line (line_roots_batch), and the membership test of
many points (spectral_mask), and real curve sampling for plots.

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
    """Operator 2-norm (largest singular value)."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


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


def _ggev_stack(a, b):
    """The (alpha, beta) of LAPACK ggev, eigenvalues only, on every pencil
    (a[i], b[i]) of two complex stacks: the eigenvalues are alpha / beta.

    The finiteness check and the workspace query are made once per stack; a
    nonzero info raises LinAlgError.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
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


def line_roots_batch(t: MatrixTuple, bases, directions):
    """Intersect each line bases[i] + s * directions[i] with the proper joint
    spectrum: the finite roots s of det(A(base + s * direction) - I) = 0 as
    one complex table of shape (lines, width).

    Row i holds line i's finite roots with multiplicity, sorted by real
    part, then imaginary part, and padded with nan; width is the largest
    finite-root count of any line, so no lines give shape (0, 0).  The rest
    of a row's t.dim roots are infinite, the directions where the leading
    coefficient is singular: t.dim - (~np.isnan(row)).sum() of them.

    Each line is the generalized eigenvalue problem
    det((I - A(base)) - s A(direction)) = 0, which is numerically stable
    where polynomial root-finding on the determinant is not.  Both pencils
    of every line are assembled as stacks, and each line is one call of
    LAPACK's QZ driver ggev (Moler & Stewart 1973) with eigenvectors off.
    The finiteness check and the workspace query are made once per batch,
    not once per line as in scipy.linalg.eigvals, whose roots these equal
    bit for bit.
    """
    bases = _coord_rows(t, bases)
    directions = _coord_rows(t, directions)
    if bases.shape != directions.shape:
        raise DimensionMismatchError("one direction is needed for every base")
    if bases.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    alpha, beta = _ggev_stack(np.eye(t.dim) - _pencil_stack(t, bases),
                              _pencil_stack(t, directions))
    # beta == 0 is an infinite root, and so is a quotient that overflows.
    roots = np.full(alpha.shape, np.inf, dtype=complex)
    nonzero = beta != 0
    roots[nonzero] = alpha[nonzero] / beta[nonzero]
    finite = np.isfinite(roots)
    # finite roots first, each line's sorted by real part, then imaginary part
    order = np.lexsort((roots.imag, roots.real, ~finite), axis=-1)
    roots = np.take_along_axis(roots, order, axis=-1)
    counts = finite.sum(axis=1)
    roots[np.arange(t.dim) >= counts[:, None]] = np.nan
    return roots[:, :counts.max()]


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
