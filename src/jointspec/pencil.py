"""Matrix tuples, pencil evaluation, and the proper joint spectrum.

A tuple ``(A_1, ..., A_n)`` of square complex matrices defines the pencil
``A(x) = x_1 A_1 + ... + x_n A_n``.  The proper joint spectrum is the affine
set of points ``x`` where ``A(x) - I`` is singular.  This module provides the
pencil arithmetic, spectrum membership tests, one-dimensional slices solved as
generalized eigenvalue problems, and real curve sampling for plots.

det_proper is the defining polynomial and nothing else here computes a
determinant: roots come from generalized eigensolves (line_roots) and
distances to the spectrum from the relative smallest singular value, which
neither overflows nor underflows as the dimension grows.
"""

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
        mats = [json_to_matrix(m) for m in obj["matrices"]]
        tup = cls(mats)
        if "n" in obj and int(obj["n"]) != tup.n:
            raise DimensionMismatchError(f"declared n={obj['n']} but {tup.n} matrices given")
        if "N" in obj and int(obj["N"]) != tup.dim:
            raise DimensionMismatchError(f"declared N={obj['N']} but matrices are {tup.dim}x{tup.dim}")
        return tup


@dataclass(frozen=True)
class PencilPoint:
    """A point x = (x_1, ..., x_n) in the coordinate space of a pencil."""

    coords: np.ndarray

    def __init__(self, coords):
        c = np.array(coords, dtype=complex).reshape(-1)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)


def _coords(t: MatrixTuple, x):
    c = x.coords if isinstance(x, PencilPoint) else np.asarray(x, dtype=complex).reshape(-1)
    if c.shape[0] != t.n:
        raise DimensionMismatchError(f"point has {c.shape[0]} coordinates, tuple has n={t.n}")
    return c


def evaluate_pencil(t: MatrixTuple, x):
    """Assemble A(x) = x_1 A_1 + ... + x_n A_n."""
    c = _coords(t, x)
    acc = np.zeros((t.dim, t.dim), dtype=complex)
    for ck, mk in zip(c, t.matrices):
        acc += ck * mk
    return acc


def det_proper(t: MatrixTuple, x):
    """det(A(x) - I): defining polynomial of the proper joint spectrum."""
    c = _coords(t, x)
    return complex(np.linalg.det(evaluate_pencil(t, c) - np.eye(t.dim)))


def is_spectral_point(t: MatrixTuple, x, tol=1e-10):
    """Whether A(x) - I is singular at relative tolerance tol.

    Uses the smallest singular value relative to 1 + ||A(x)||, not |det|,
    so the test does not degrade with matrix dimension.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    smin, smax = _singular_extremes(evaluate_pencil(t, x) - np.eye(t.dim))
    return bool(smin <= tol * (1.0 + smax))


def _singular_extremes(m):
    """(smallest, largest) singular value of m.

    smin / (1 + smax) is the one residual measure for "m is singular".
    """
    s = np.linalg.svd(m, compute_uv=False)
    return s[-1], s[0]


def _sorted_complex(values):
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    return values[order]


@dataclass(frozen=True)
class LineRoots:
    """Solutions s of det(A(base + s * direction) - I) = 0.

    finite holds all finite roots with multiplicity (sorted by real part,
    then imaginary part); infinite counts the degenerate directions where
    the leading pencil coefficient is singular.
    """

    finite: np.ndarray
    infinite: int


def line_roots(t: MatrixTuple, base, direction):
    """Intersect the line base + s*direction with the proper joint spectrum.

    Realized as the generalized eigenvalue problem
    det((I - A(base)) - s A(direction)) = 0, which is numerically stable
    where polynomial root-finding on the determinant is not.
    """
    a = np.eye(t.dim) - evaluate_pencil(t, base)
    b = evaluate_pencil(t, direction)
    vals = scipy.linalg.eigvals(a, b)
    finite = vals[np.isfinite(vals)]
    return LineRoots(_sorted_complex(finite), int(vals.size - finite.size))


def slice_roots(t: MatrixTuple, direction, scale):
    """All x_1 with det(x_1 A_1 + scale * (xhat . A_rest) - I) = 0.

    direction is the unit vector xhat in coordinates 2..n; scale is the
    (complex) line parameter.  Roots come back with multiplicity; infinite
    generalized eigenvalues (A_1 singular in the relevant block) are counted
    separately.
    """
    xhat = np.asarray(direction, dtype=complex).reshape(-1)
    if xhat.shape[0] != t.n - 1:
        raise DimensionMismatchError(f"direction must have n-1={t.n - 1} coordinates")
    base = np.concatenate(([0.0], complex(scale) * xhat))
    e1 = np.zeros(t.n, dtype=complex)
    e1[0] = 1.0
    return line_roots(t, base, e1)


def sample_spectrum_curve(t: MatrixTuple, window=((-2.0, 2.0), (-2.0, 2.0)), grid=(41, 41)):
    """Sample the real slice of the joint spectrum of a pair (n = 2).

    Each x_2 column is one generalized eigensolve, line_roots along x_1.  A
    root is kept when it lies within 0.75 dx of its nearest x_1 grid node
    (so |Im x_1| <= 0.75 dx), inside the window, and passes
    is_spectral_point at 1e-9.  Output is deduplicated per x_2 column and
    sorted lexicographically.
    """
    if t.n != 2:
        raise DimensionMismatchError("curve sampling is defined for pairs (n = 2)")
    (x1lo, x1hi), (x2lo, x2hi) = window
    n1, n2 = grid
    x1s = np.linspace(x1lo, x1hi, n1)
    x2s = np.linspace(x2lo, x2hi, n2)
    dx = (x1hi - x1lo) / max(n1 - 1, 1)
    points = []
    for x2 in x2s:
        col = []
        for root in line_roots(t, (0.0, x2), (1.0, 0.0)).finite:
            if np.min(np.abs(root - x1s)) > 0.75 * dx:
                continue
            if not (x1lo - 1e-9 <= root.real <= x1hi + 1e-9):
                continue
            if not is_spectral_point(t, (root, x2), tol=1e-9):
                continue
            if all(abs(root - r) > 1e-8 * (1.0 + abs(root)) for r in col):
                col.append(root)
        points.extend(PencilPoint((r, x2)) for r in col)
    points.sort(key=lambda p: (p.coords[0].real, p.coords[0].imag, p.coords[1].real, p.coords[1].imag))
    return points


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
    comm = a @ a.conj().T - a.conj().T @ a
    cnorm = opnorm(comm)
    scaled = 1e-10 * (1.0 + opnorm(a) ** 2)
    vals, vecs = np.linalg.eig(a)
    try:
        cond = np.linalg.cond(vecs)
    except np.linalg.LinAlgError:
        cond = np.inf
    return NormalityReport(
        commutator_norm=cnorm,
        is_normal=bool(cnorm <= scaled),
        is_diagonalizable=bool(np.isfinite(cond) and cond < 1e6),
        tolerance=scaled,
    )
