"""Component spectral projections and their limits at t = 0.

The projection attached to a branch at ladder parameter t is the Riesz
projection of the frozen pencil m = v A_1 + t xhat.A_rest (nonzero kind) or
A_1 + t xhat.A_rest - v I (zero kind) onto its eigenvalues at the branch's own
eigenvalue, 1 or 0.  For a simple branch that eigenvalue is simple and the
projection is z y* / (y* z), with z and y its right and left eigenvectors
(Kato, Perturbation Theory for Linear Operators, II 1.4): the null vectors
of the frozen pencil less that eigenvalue, F = v A_1 + t xhat.A_rest - I or
A_1 + t xhat.A_rest - v I.  They come from two steps of inverse iteration on
F, and every simple (branch, rung) of one call is one stacked solve.  The
slice ladder the branches were tracked on is solved for roots only, and the
branches keep their kind's root table: the rung's other roots v_i place the
frozen pencil's other eigenvalues at v / v_i (to first order in t, an
infinite root at distance 1) or v_i - v (exactly), and the nearest must lie
farther than twice the selection tolerance; that test is one array
operation for every (branch, rung) of a call.  A multiplicity-k branch, or
a rung where that distance is not met, takes the general kernel: one
sorted complex Schur form and one Sylvester solve on its triangular
blocks.  The projections of a call are one branch-major stack, with their
2-norms beside it: 1 / |y* z| from the rank-1 kernel, the eigenvalue's
condition number, and an SVD for the Schur kernel's rows only.  The limits
and the norm profiles read them; a ComponentProjection, with its
idempotency residual (only rounding: both kernels are idempotent), is
built only where one is reported.
Along a non-tangential line the family extends analytically to t = 0; the
limit and its first t-derivative P'(0) are produced by the same ladder
extrapolation used for branch values.  For non-normal leading matrices the
family may instead blow up like a power of t; that outcome is detected,
fitted, and reported as a first-class diagnostic rather than hidden in an
exception trace.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsyl

from . import extrapolate
from .branches import Branch, _ladder_roots, _nearest_unambiguous, _shifted_pencils
from .errors import ProjectionBlowupError, SeparationError, TrackingError
from .pencil import MatrixTuple, _svd_extremes
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
    """Spectral projection of the frozen pencil at one ladder parameter.

    radius is half the distance from the branch eigenvalue (1, or 0 for the
    zero kind) to the nearest other eigenvalue of the frozen pencil: the
    circle the projection is the Riesz integral over.  A rank-1 projection
    takes that distance from the other slice roots v_i of its rung,
    |1 - v / v_i| (nonzero kind, first order in t) or |v_i - v| (zero kind,
    exact); a projection from the Schur kernel takes it from the frozen
    pencil's excluded eigenvalues.  With no other eigenvalue it is
    (1 + |branch eigenvalue|) / 2.
    """

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


def _sample_index(b: Branch, tparam):
    """Index of b's ladder sample at tparam (to 1e-12 relative), else None."""
    for k, (tk, _) in enumerate(b.samples):
        if abs(tk - tparam) <= 1e-12 * max(tk, tparam):
            return k
    return None


def _branch_value_at(b: Branch, tparam, roots):
    """b's value at tparam: the root of roots, b's slice at tparam, nearest
    its local model."""
    pred = b.limit_value
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
        return t.matrices[0] + rest - value * np.eye(t.dim)
    return value * t.matrices[0] + rest


def _root_gaps(zero, values, table, dim):
    """Distance from each row's branch eigenvalue to the frozen pencil's
    nearest other one, from the finite roots of its slice (a row of table,
    padded with nan; values[i] among them): |v_i - v| (zero[i]) or
    |1 - v / v_i|, an infinite root at 1 (nonzero kind)."""
    pad = np.isnan(table)
    dist = np.empty(table.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist[zero] = np.abs(table[zero] - values[zero, None])
        dist[~zero] = np.abs(values[~zero, None] / table[~zero] - 1.0)
    dist[pad] = math.inf
    # the nearest root is the branch's own; the runner-up is the nearest other
    dist[np.arange(len(dist)), dist.argmin(axis=1)] = math.inf
    gaps = dist.min(axis=1)
    return np.where((~pad).sum(axis=1) < dim, np.minimum(gaps, 1.0), gaps)


def _schur_component(t: MatrixTuple, b: Branch, tparam, value, center, own_tol):
    """(P, rank, radius) of b at tparam from the Schur kernel, where b's
    value is value; SeparationError when the nearest excluded eigenvalue of
    the frozen pencil is within 2 own_tol of center."""
    p, rank, excluded = _spectral_projection(_frozen_pencil(t, b, tparam, value), center, own_tol)
    dmin = float(np.min(np.abs(excluded - center), initial=np.inf))
    if dmin <= 2.0 * own_tol:
        raise SeparationError(
            f"nearest excluded eigenvalue at distance {dmin:.3e} from the "
            f"branch eigenvalue; component is not separated (t={tparam})"
        )
    return p, rank, float(_radius(dmin, abs(center)))


def _rank_one_projections(f):
    """(projections, norms): z y* / (y* z) for every F of the stack f, a
    frozen pencil less its simple, separated branch eigenvalue, with z and
    y F's unit right and left null vectors, and its 2-norm 1 / |y* z|, the
    eigenvalue's condition number (Wilkinson, The Algebraic Eigenvalue
    Problem, 2.9).  Two steps of inverse iteration (Ipsen, SIAM Review 39,
    1997) on F - delta I and F* - delta I from one fixed, generic start
    vector, each step one stacked solve.  delta = 2^-50 (1 + ||F||_F) keeps
    an exactly singular F solvable.
    """
    count, n = f.shape[:2]
    both = np.empty((2 * count, n, n), dtype=complex)
    both[:count] = f
    np.conjugate(f.transpose(0, 2, 1), out=both[count:])
    # ||F||_F^2 = sum F_ij conj(F_ij), with no temporary stack
    delta = 2.0 ** -50 * (1.0 + np.sqrt(np.einsum("kij,kji->k", f, both[count:]).real))
    both[:, range(n), range(n)] -= np.concatenate([delta, delta])[:, None]
    phase = math.pi * (math.sqrt(5.0) - 1.0)  # the golden angle
    x = np.array([[complex(math.cos(phase * k), math.sin(phase * k))] for k in range(1, n + 1)])
    for _ in range(2):
        x = np.linalg.solve(both, np.broadcast_to(x, (2 * count, n, 1)))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    z, y = x[:count, :, 0], x[count:, :, 0].conj()
    yz = (y * z).sum(axis=1)
    return z[:, :, None] * (y / yz[:, None])[:, None, :], 1.0 / np.abs(yz)


class _RungStack(NamedTuple):
    """The rung projections of a call, branch-major: P, its rank, radius and
    2-norm at each rung of each branch."""

    stack: np.ndarray
    ranks: list
    radii: list
    norms: np.ndarray


def _padded_table(tables):
    """The 2-D complex tables stacked as one table, each padded with nan to
    the widest."""
    width = max(tab.shape[1] for tab in tables)
    table = np.full((sum(len(tab) for tab in tables), width), np.nan, dtype=complex)
    row = 0
    for tab in tables:
        table[row:row + len(tab), :tab.shape[1]] = tab
        row += len(tab)
    return table


def _components(t: MatrixTuple, branches, rungs):
    """The _RungStack of branches by component_projection's rule; rungs[j]
    holds (ts, values, table) of branches[j]: its rungs' t_k, its values
    there, and their roots as rows of a _ladder_roots table, None for a
    repeated branch.

    The separation test of every row is one _root_gaps call, the frozen
    pencils of the separated rows of one kind and direction one broadcast,
    and their projections and norms one _rank_one_projections stack.  The
    Schur forms are made in order, so the first unseparated component
    raises; their norms come from one stacked SVD of their rows.
    """
    owner = np.repeat(np.arange(len(branches)), [len(ts) for ts, _, _ in rungs])
    ts = np.array([tk for bts, _, _ in rungs for tk in bts], dtype=float)
    values = np.array([v for _, vs, _ in rungs for v in vs], dtype=complex)
    zero = np.array([b.kind == "zero" for b in branches], dtype=bool)[owner]
    # |c| of the branch eigenvalue c: 1, or 0 for the zero kind
    abs_center = np.where(zero, 0.0, 1.0)
    own_tol = 1e-6 * (1.0 + abs_center)
    # the simple branches' rows of one root table, padded with nan; a
    # repeated branch keeps gap 0, so its rungs take the Schur kernel
    tables = [tab for _, _, tab in rungs if tab is not None]
    rooted = np.array([tab is not None for _, _, tab in rungs], dtype=bool)[owner]
    gaps = np.zeros(len(ts))
    if tables:
        table = _padded_table(tables)
        gaps[rooted] = _root_gaps(zero[rooted], values[rooted], table, t.dim)
    simple = gaps > 2.0 * own_tol
    # the Schur kernel's rows get their radii below
    radii = _radius(gaps, abs_center).tolist()
    ranks = [1] * len(ts)
    stack = np.empty((len(ts), t.dim, t.dim), dtype=complex)
    norms = np.empty(len(ts))
    schur = np.flatnonzero(~simple)
    for row in schur.tolist():
        b = branches[owner[row]]
        center = 0.0 + 0.0j if b.kind == "zero" else 1.0 + 0.0j
        stack[row], ranks[row], radii[row] = _schur_component(
            t, b, float(ts[row]), complex(values[row]), center, float(own_tol[row]))
    if schur.size:
        norms[schur] = _svd_extremes(stack[schur])[1]
    if simple.any():
        # the separated rows, grouped by kind and direction, each group's
        # pencils one broadcast written in place; a key with no separated
        # row (a repeated branch's) makes no group
        keys = [(b.kind, tuple(b.direction)) for b in branches]
        f = np.empty((simple.sum(), t.dim, t.dim), dtype=complex)
        rows = []
        for key in dict.fromkeys(keys[j] for j in owner[simple].tolist()):
            group = np.flatnonzero(simple & np.array([k == key for k in keys])[owner])
            _shifted_pencils(t, key[0], np.asarray(key[1]), ts[group], values[group],
                             out=f[len(rows):len(rows) + group.size])
            rows.extend(group.tolist())
        stack[rows], norms[rows] = _rank_one_projections(f)
    return _RungStack(stack, ranks, radii, norms)


def _radius(dmin, abs_center):
    """Half the tested distance dmin, or 0.5 (1 + |c|) where it is infinite;
    elementwise."""
    return np.where(np.isfinite(dmin), 0.5 * dmin, 0.5 * (1.0 + abs_center))


def _ladders(branches, rungs, ts=None):
    """ComponentProjections of each branch from the rows of the _RungStack
    rungs, each matrix a view of its stack; ts[j] holds the parameters of
    branches[j]'s rows, by default its ladder samples.  The idempotency
    residuals of all come from one stacked SVD."""
    ts = ts or [[tk for tk, _ in b.samples] for b in branches]
    stack = rungs.stack
    _, idem = _svd_extremes(stack @ stack - stack)
    rows = iter(zip(stack, rungs.ranks, rungs.radii, idem.tolist()))
    return [[ComponentProjection(branch_index=b.index, lam=b.lam, kind=b.kind, t=float(tk),
                                 matrix=p, idempotency_residual=idem_k, rank=rank,
                                 radius=radius)
             for tk, (p, rank, radius, idem_k) in zip(bts, rows)]
            for b, bts in zip(branches, ts)]


def component_projection(t: MatrixTuple, b: Branch, tparam):
    """Component projection of a branch at line parameter tparam.

    The projection is onto the eigenvalues of the frozen pencil within
    own_tol = 1e-6 (1 + |c|) of the branch eigenvalue c (1, or 0 for the
    zero kind).  A simple branch gets the rank-1 projection z y* / (y* z)
    from inverse iteration, when every other root of its slice at tparam
    lies farther than 2 own_tol from it in the frozen pencil's eigenvalue
    scale (_root_gaps).  A repeated branch, or a closer root, takes the Schur
    kernel, which raises SeparationError when the nearest excluded
    eigenvalue of the frozen pencil is within 2 own_tol.  The reported
    radius is half the distance that was tested.

    At a ladder sample of a branch that kept its rung roots (see Branch) no
    slice is solved; otherwise the slice at tparam is solved once, for
    roots, and off the ladder its root nearest the branch's local model is
    the branch value.
    """
    simple, k = b.multiplicity == 1, _sample_index(b, tparam)
    kept = b._rung_roots if b.pencil is t else None
    if k is None or (simple and kept is None):
        # one rung: a table of one row, with no padding
        roots = _ladder_roots(t, b.kind, np.asarray(b.direction), [tparam])
        value = _branch_value_at(b, tparam, roots[0]) if k is None else b.samples[k][1]
    else:
        roots, value = kept[k:k + 1] if simple else None, b.samples[k][1]
    rung = ([tparam], [value], roots if simple else None)
    return _ladders([b], _components(t, [b], [rung]), ts=[[tparam]])[0][0]


def _rung_stack(t: MatrixTuple, branches):
    """The _RungStack of _components at every ladder sample of each branch:
    projection_ladders' projections and their norms, with no
    ComponentProjection.

    The separation test reads the root table the branches kept when tracked
    on t; a simple branch tracked on another tuple, or without it, gets one
    _ladder_roots call.
    """
    rungs = []
    for b in branches:
        ts = [tk for tk, _ in b.samples]
        roots = b._rung_roots if b.pencil is t else None
        if b.multiplicity > 1:
            roots = None
        elif roots is None:
            roots = _ladder_roots(t, b.kind, np.asarray(b.direction), ts)
        rungs.append((ts, [v for _, v in b.samples], roots))
    return _components(t, branches, rungs)


def projection_ladders(t: MatrixTuple, branches):
    """Component projections at every ladder sample of each branch, one list
    per branch.

    Each projection is component_projection's at that sample, from one
    _rung_stack; the idempotency residuals of all come from one stacked SVD.
    """
    return tuple(_ladders(branches, _rung_stack(t, branches)))


@dataclass(frozen=True)
class NormProfile:
    points: tuple  # ((t, norm), ...)
    exponent: float

    def to_json(self):
        return {"points": [[t, v] for t, v in self.points], "exponent": self.exponent}


def _norm_profiles(branches, norms):
    """The NormProfile of each branch, all on one ladder, from its rows of
    the norms of a _RungStack; the exponents of all come from one
    fit_power_law."""
    ts = [tk for tk, _ in branches[0].samples]
    norms = np.reshape(norms, (len(branches), len(ts)))
    exponents = extrapolate.fit_power_law(ts, norms.T).tolist()
    return [NormProfile(points=tuple(zip(ts, row)), exponent=e)
            for row, e in zip(norms.tolist(), exponents)]


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


def limit_projection(t: MatrixTuple, b: Branch):
    """Richardson limit P and derivative P'(0) of the component projections
    along the branch ladder, each extrapolated once.

    Diverging norms (power-law exponent below -0.25) raise
    ProjectionBlowupError carrying the fitted exponent and the profile;
    this is the expected outcome for non-normal leading matrices.
    """
    (profile,), (limit,) = _limits([b], _rung_stack(t, [b]))
    return _checked(profile, limit)


def _limits(branches, *rungs):
    """Norm profiles and limit projections of branches on one ladder of t_k
    from the _RungStacks rungs that, concatenated, hold their P(t_k) and
    its norms.

    The P(t_k) are copied once into a buffer _limits owns; the stacks and
    views of them stay unchanged.  P and P'(0) of all branches come from one
    stacked richardson_limit call each (P'(0) from the quotients
    (P(t_k) - P) / t_k, made in that buffer); each call reads the error
    estimates of a series from the R factor of its rungs, which forms no
    Q, and its limit from the buffer itself.  The idempotency residuals of
    the limits from one stacked SVD of their P @ P - P, and the profiles
    from the rung norms (_norm_profiles).  Returns (profiles, limits):
    limits[i] is the LimitProjection of branches[i], or the
    ExtrapolationError of its P, else of its P'(0); _checked(profiles[i],
    limits[i]) is what limit_projection returns or raises for it.
    """
    if not branches:
        return [], []
    ts = [tk for tk, _ in branches[0].samples]
    count, dim = len(branches), rungs[0].stack.shape[-1]
    mats = np.concatenate([r.stack for r in rungs]).reshape(count, len(ts), dim, dim)
    p, err, p_failed = extrapolate._each_series(extrapolate.richardson_limit, ts, mats)
    _, idem = _svd_extremes(p @ p - p)
    # the quotients of P'(0) overwrite the ladder matrices, read by now
    dp, _, dp_failed = extrapolate._each_series(
        extrapolate.richardson_limit, ts, extrapolate._quotients(ts, mats, p))
    profiles = _norm_profiles(branches, np.concatenate([r.norms for r in rungs]))
    limits = []
    for i, b in enumerate(branches):
        if p_failed[i] or dp_failed[i]:
            limits.append(p_failed[i] or dp_failed[i])
        else:
            limits.append(LimitProjection(
                branch_index=b.index, lam=b.lam, kind=b.kind, direction=b.direction,
                matrix=p[i], extrapolation_error=float(err[i]),
                rank=int(round(np.trace(p[i]).real)), idempotency_residual=float(idem[i]),
                derivative=dp[i]))
    return profiles, limits


def _checked(profile, limit):
    """limit, unless profile diverges (power-law exponent below -0.25), which
    raises ProjectionBlowupError, or limit is an ExtrapolationError, which is
    raised."""
    if profile.exponent < -0.25:
        raise ProjectionBlowupError(profile.exponent, profile)
    if isinstance(limit, Exception):
        raise limit
    return limit
