"""Component spectral projections and their limits at t = 0.

The projection attached to a branch at ladder parameter t is the Riesz
projection of the frozen pencil onto the eigenvalues at the branch's own
eigenvalue (1 for the nonzero kind, 0 for the zero kind).  It comes from one
sorted complex Schur form and one Sylvester solve on its triangular blocks.
Along a non-tangential line the family extends analytically to t = 0; the
limit and its first t-derivative P'(0) are produced by the same ladder
extrapolation used for branch values.  For non-normal leading matrices the
family may instead blow up like a power of t; that outcome is detected,
fitted, and reported as a first-class diagnostic rather than hidden in an
exception trace.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsyl

from . import extrapolate
from .branches import Branch, _ladder_roots, _nearest_unambiguous
from .errors import ProjectionBlowupError, SeparationError, TrackingError
from .pencil import MatrixTuple, opnorm
from .serialize import complex_to_pair, matrix_to_json


def _spectral_projection(m, center, tol):
    """Spectral projection of m onto its eigenvalues within tol of center.

    With those eigenvalues sorted first, Q* m Q = [[T11, T12], [0, T22]], and
    X with T11 X - X T22 = T12 gives P = Q [[I, X], [0, 0]] Q* (Golub & Van
    Loan, Matrix Computations, 7.6).  Returns (P, rank, excluded eigenvalues).
    """
    try:
        t, q, k = scipy.linalg.schur(
            m, output="complex", sort=lambda z: abs(z - center) <= tol
        )
    except np.linalg.LinAlgError as exc:
        # no Schur form, or reordering moved an eigenvalue across |z - center| = tol
        raise SeparationError(f"eigenvalue cluster at {center} is not separated: {exc}")
    n = t.shape[0]
    x = np.zeros((k, n - k), dtype=complex)
    if 0 < k < n:
        x, scale, info = ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        if info != 0:
            raise SeparationError(
                f"eigenvalues inside and outside the cluster at {center} nearly coincide"
            )
        x = x / scale
    q1 = q[:, :k]
    p = q1 @ (q1.conj().T + x @ q[:, k:].conj().T)
    return p, k, np.diag(t)[k:]


@dataclass(frozen=True)
class ComponentProjection:
    """Spectral projection of the frozen pencil at one ladder parameter."""

    branch_index: int
    lam: complex
    kind: str
    t: float
    matrix: np.ndarray
    idempotency_residual: float
    rank: int
    radius: float

    def to_json(self):
        return {
            "j": self.branch_index,
            "lambda": complex_to_pair(self.lam),
            "t": self.t,
            "P": matrix_to_json(self.matrix),
            "idempotency": self.idempotency_residual,
            "rank": self.rank,
            "radius": self.radius,
        }


def _branch_value_at(t: MatrixTuple, b: Branch, tparam):
    for tk, v in b.samples:
        if abs(tk - tparam) <= 1e-12 * max(tk, tparam):
            return v
    # re-solve the slice and take the root nearest the local model
    xhat = np.asarray(b.direction, dtype=complex)
    roots = _ladder_roots(t, b.kind, xhat, [tparam])[0]
    center = b.limit_value
    pred = center
    if b.d1 is not None:
        pred = pred + b.d1 * tparam
    if b.d2 is not None:
        pred = pred + 0.5 * b.d2 * tparam**2
    best = _nearest_unambiguous(roots, pred)
    if best is None:
        raise TrackingError(f"ambiguous branch value at t={tparam}")
    return complex(roots[best])


def _frozen_pencil(t: MatrixTuple, b: Branch, tparam, value):
    xhat = np.asarray(b.direction, dtype=complex)
    rest = sum(c * m for c, m in zip(tparam * xhat, t.matrices[1:]))
    if b.kind == "zero":
        return t.matrices[0] + rest - value * np.eye(t.dim), 0.0 + 0.0j
    return value * t.matrices[0] + rest, 1.0 + 0.0j


def component_projection(t: MatrixTuple, b: Branch, tparam):
    """Component projection of a branch at line parameter tparam.

    The projection is onto the eigenvalues of the frozen pencil within
    own_tol of the branch eigenvalue (1 or 0).  The nearest excluded
    eigenvalue must be farther than 2 own_tol, else the component is not
    separated (a regularity failure) and SeparationError is raised; the
    reported radius is half that distance, the circle the projection is
    the Riesz integral over.
    """
    value = _branch_value_at(t, b, tparam)
    m, center = _frozen_pencil(t, b, tparam, value)
    own_tol = 1e-6 * (1.0 + abs(center))
    p, rank, excluded = _spectral_projection(m, center, own_tol)
    if excluded.size:
        dmin = float(np.min(np.abs(excluded - center)))
        if dmin <= 2.0 * own_tol:
            raise SeparationError(
                f"nearest excluded eigenvalue at distance {dmin:.3e} from the "
                f"branch eigenvalue; component is not separated (t={tparam})"
            )
        radius = 0.5 * dmin
    else:
        radius = 0.5 * (1.0 + abs(center))
    return ComponentProjection(
        branch_index=b.index,
        lam=b.lam,
        kind=b.kind,
        t=float(tparam),
        matrix=p,
        idempotency_residual=opnorm(p @ p - p),
        rank=rank,
        radius=radius,
    )


def projection_ladder(t: MatrixTuple, b: Branch):
    """Component projections at every ladder sample of the branch."""
    return [component_projection(t, b, tk) for tk, _ in b.samples]


@dataclass(frozen=True)
class NormProfile:
    points: tuple  # ((t, norm), ...)
    exponent: float

    def to_json(self):
        return {"points": [[t, v] for t, v in self.points], "exponent": self.exponent}


def projection_norm_profile(t: MatrixTuple, b: Branch, ladder=None):
    """Projection norms down the ladder with a fitted power-law exponent."""
    if ladder is None:
        ladder = projection_ladder(t, b)
    pts = tuple((cp.t, opnorm(cp.matrix)) for cp in ladder)
    ts = [p[0] for p in pts]
    ns = [p[1] for p in pts]
    return NormProfile(points=pts, exponent=extrapolate.fit_power_law(ts, ns))


@dataclass(frozen=True)
class LimitProjection:
    """Extrapolated limit P of the component projections at t = 0 and P'(0)."""

    branch_index: int
    lam: complex
    kind: str
    direction: tuple
    matrix: np.ndarray
    extrapolation_error: float
    rank: int
    idempotency_residual: float
    derivative: np.ndarray

    def to_json(self):
        return {
            "j": self.branch_index,
            "lambda": complex_to_pair(self.lam),
            "P": matrix_to_json(self.matrix),
            "idempotency": self.idempotency_residual,
            "rank": self.rank,
            "extrapolation_error": self.extrapolation_error,
        }


def limit_projection(t: MatrixTuple, b: Branch, ladder=None):
    """Richardson limit P and derivative P'(0) of the component projections
    along the branch ladder, each extrapolated once.

    Diverging norms (power-law exponent below -0.25) raise
    ProjectionBlowupError carrying the fitted exponent and the profile;
    this is the expected outcome for non-normal leading matrices.
    """
    if ladder is None:
        ladder = projection_ladder(t, b)
    ts = np.array([cp.t for cp in ladder])
    mats = [cp.matrix for cp in ladder]
    profile = projection_norm_profile(t, b, ladder=ladder)
    if profile.exponent < -0.25:
        raise ProjectionBlowupError(profile.exponent, profile)

    p, err = extrapolate.richardson_limit(ts, mats)
    dp, _ = extrapolate.first_derivative(ts, mats, p)
    return LimitProjection(
        branch_index=b.index,
        lam=b.lam,
        kind=b.kind,
        direction=b.direction,
        matrix=p,
        extrapolation_error=err,
        rank=int(round(np.trace(p).real)),
        idempotency_residual=opnorm(p @ p - p),
        derivative=dp,
    )
