"""Contour-integral component projections and their limits at t = 0.

The projection attached to a branch at ladder parameter t is the Riesz
integral of the resolvent of the frozen pencil around the branch's own
eigenvalue (1 for the nonzero kind, 0 for the zero kind).  Along a
non-tangential line the family extends analytically to t = 0; the limit and
its first t-derivative P'(0) are produced by the same ladder extrapolation
used for branch values.  For non-normal leading matrices the family may
instead blow up like a power of t; that outcome is detected, fitted, and
reported as a first-class diagnostic rather than hidden in an exception
trace.
"""

from dataclasses import dataclass

import numpy as np

from . import extrapolate
from .branches import Branch, _roots_at
from .errors import (
    EigenvalueOnContourError,
    ProjectionBlowupError,
    QuadratureError,
    SeparationError,
    TrackingError,
)
from .pencil import MatrixTuple, opnorm
from .serialize import complex_to_pair, matrix_to_json

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ContourSpec:
    """Circle contour for resolvent quadrature."""

    center: complex
    radius: float
    quad_points: int = 32

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")
        q = self.quad_points
        if q < 8 or (q & (q - 1)) != 0:
            raise ValueError("quad_points must be a power of two >= 8")


# Matrix entries held by one stacked inverse: the nodes of a set are solved in
# chunks of max(1, _STACK_ENTRIES // N^2), so a chunk and its inverse take
# 32 MiB whatever the node count.
_STACK_ENTRIES = 2**20


def _quad_nodes(m, center, radius, thetas):
    """sum_k e_k (w_k I - m)^-1 over the nodes w_k = center + radius e_k,
    e_k = exp(i theta_k), from stacked inverses."""
    n = m.shape[0]
    es = np.exp(1j * np.asarray(thetas))
    chunk = max(1, _STACK_ENTRIES // (n * n))
    acc = np.zeros((n, n), dtype=complex)
    for k in range(0, es.size, chunk):
        e = es[k:k + chunk]
        stack = np.multiply.outer(center + radius * e, np.eye(n))
        stack -= m
        acc += (e @ np.linalg.inv(stack).reshape(e.size, n * n)).reshape(n, n)
    return acc


def riesz_projection_info(m, contour: ContourSpec, stab_tol=1e-10, quad_cap=2**14):
    """Spectral projection onto the eigenvalues of m strictly inside the circle.

    Trapezoid quadrature of the resolvent; the node count doubles from
    contour.quad_points, the new nodes interleaving the old ones, until two
    successive results differ by <= stab_tol or the cap is hit.  Each node
    set is solved as stacked inverses, in chunks of a fixed number of matrix
    entries, so memory does not grow with the node count.  Returns
    (projection, nodes_used).
    """
    m = np.asarray(m, dtype=complex)
    evs = np.linalg.eigvals(m)
    margin = 10.0 * _EPS * (1.0 + opnorm(m))
    if np.any(np.abs(np.abs(evs - contour.center) - contour.radius) <= margin):
        raise EigenvalueOnContourError(
            f"eigenvalue on the contour |w - {contour.center}| = {contour.radius}"
        )

    q = contour.quad_points
    thetas = 2.0 * np.pi * np.arange(q) / q
    acc = _quad_nodes(m, contour.center, contour.radius, thetas)
    prev = (contour.radius / q) * acc
    while q < quad_cap:
        # new nodes interleave the old ones
        new_thetas = 2.0 * np.pi * (np.arange(q) + 0.5) / q
        acc = acc + _quad_nodes(m, contour.center, contour.radius, new_thetas)
        q *= 2
        cur = (contour.radius / q) * acc
        if opnorm(cur - prev) <= stab_tol:
            return cur, q
        prev = cur
    raise QuadratureError(f"quadrature did not stabilize below {quad_cap} nodes")


def riesz_projection(m, contour: ContourSpec, stab_tol=1e-10, quad_cap=2**14):
    p, _ = riesz_projection_info(m, contour, stab_tol=stab_tol, quad_cap=quad_cap)
    return p


@dataclass(frozen=True)
class ComponentProjection:
    """Riesz projection of the frozen pencil at one ladder parameter."""

    branch_index: int
    lam: complex
    kind: str
    t: float
    matrix: np.ndarray
    idempotency_residual: float
    rank: int
    radius: float
    quad_points_used: int

    def to_json(self):
        return {
            "j": self.branch_index,
            "lambda": complex_to_pair(self.lam),
            "t": self.t,
            "P": matrix_to_json(self.matrix),
            "idempotency": self.idempotency_residual,
            "rank": self.rank,
            "radius": self.radius,
            "quad_points": self.quad_points_used,
        }


def _branch_value_at(t: MatrixTuple, b: Branch, tparam):
    for tk, v in b.samples:
        if abs(tk - tparam) <= 1e-12 * max(tk, tparam):
            return v
    # re-solve the slice and take the root nearest the local model
    xhat = np.asarray(b.direction, dtype=complex)
    roots = _roots_at(t, b.kind, xhat, tparam)
    center = b.limit_value
    pred = center
    if b.d1 is not None:
        pred = pred + b.d1 * tparam
    if b.d2 is not None:
        pred = pred + 0.5 * b.d2 * tparam**2
    d = np.abs(roots - pred)
    order = np.argsort(d)
    if roots.size > 1 and d[order[0]] > 0.25 * d[order[1]]:
        raise TrackingError(f"ambiguous branch value at t={tparam}")
    return complex(roots[order[0]])


def _frozen_pencil(t: MatrixTuple, b: Branch, tparam, value):
    xhat = np.asarray(b.direction, dtype=complex)
    rest = sum(c * m for c, m in zip(tparam * xhat, t.matrices[1:]))
    if b.kind == "zero":
        return t.matrices[0] + rest - value * np.eye(t.dim), 0.0 + 0.0j
    return value * t.matrices[0] + rest, 1.0 + 0.0j


def component_projection(
    t: MatrixTuple,
    b: Branch,
    tparam,
    quad_points=32,
    stab_tol=1e-10,
    quad_cap=2**14,
):
    """Component projection of a branch at line parameter tparam.

    The contour is centered at the branch eigenvalue (1 or 0) with radius
    half the distance to the nearest excluded eigenvalue of the frozen
    pencil; too-small separation signals a regularity failure and raises.
    """
    value = _branch_value_at(t, b, tparam)
    m, center = _frozen_pencil(t, b, tparam, value)
    evs = np.linalg.eigvals(m)
    own_tol = 1e-6 * (1.0 + abs(center))
    excluded = evs[np.abs(evs - center) > own_tol]
    if excluded.size:
        dmin = float(np.min(np.abs(excluded - center)))
        if dmin <= 2.0 * own_tol:
            raise SeparationError(
                f"nearest excluded eigenvalue at distance {dmin:.3e} from the "
                f"contour center; component is not separated (t={tparam})"
            )
        radius = 0.5 * dmin
    else:
        radius = 0.5 * (1.0 + abs(center))
    p, q_used = riesz_projection_info(
        m, ContourSpec(center=center, radius=radius, quad_points=quad_points),
        stab_tol=stab_tol, quad_cap=quad_cap,
    )
    return ComponentProjection(
        branch_index=b.index,
        lam=b.lam,
        kind=b.kind,
        t=float(tparam),
        matrix=p,
        idempotency_residual=opnorm(p @ p - p),
        rank=int(round(np.trace(p).real)),
        radius=radius,
        quad_points_used=q_used,
    )


def projection_ladder(t: MatrixTuple, b: Branch, **quad_kwargs):
    """Component projections at every ladder sample of the branch."""
    return [component_projection(t, b, tk, **quad_kwargs) for tk, _ in b.samples]


@dataclass(frozen=True)
class NormProfile:
    points: tuple  # ((t, norm), ...)
    exponent: float

    def to_json(self):
        return {"points": [[t, v] for t, v in self.points], "exponent": self.exponent}


def projection_norm_profile(t: MatrixTuple, b: Branch, ladder=None, **quad_kwargs):
    """Projection norms down the ladder with a fitted power-law exponent."""
    if ladder is None:
        ladder = projection_ladder(t, b, **quad_kwargs)
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


def limit_projection(
    t: MatrixTuple,
    b: Branch,
    ladder=None,
    blowup_threshold=-0.25,
    **quad_kwargs,
):
    """Richardson limit P and derivative P'(0) of the component projections
    along the branch ladder, each extrapolated once.

    Diverging norms (power-law exponent below blowup_threshold) raise
    ProjectionBlowupError carrying the fitted exponent and the profile;
    this is the expected outcome for non-normal leading matrices.
    """
    if ladder is None:
        ladder = projection_ladder(t, b, **quad_kwargs)
    ts = np.array([cp.t for cp in ladder])
    mats = [cp.matrix for cp in ladder]
    profile = projection_norm_profile(t, b, ladder=ladder)
    if profile.exponent < blowup_threshold:
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
