"""Spectral resolution of the leading matrix and local branch tracking.

Near a reducibility point the joint spectrum decomposes locally into
analytic branches x_1 = v_j(t) through 1/lambda (or, in the x_1 = 1 chart,
eigenvalue branches through 0 when lambda = 0).  Branches are tracked down
a geometric ladder of the line parameter by nearest-neighbor continuation
and differentiated at 0 by Richardson extrapolation.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from . import extrapolate
from .errors import (
    BranchCollisionError,
    JointSpecError,
    NotNormalError,
    TrackingError,
    UnknownEigenvalueError,
)
from .pencil import (
    MatrixTuple,
    _commutator_test,
    _is_real,
    _root_table,
    _svd_extremes,
    line_roots_batch,
    opnorm,
)
from .serialize import complex_to_pair


def _cluster_values(values, tol):
    """Single-linkage clustering of complex values at absolute tolerance tol:
    (value, indices) per cluster, sorted by value; a cluster's value is the
    mean of its members.

    The near pairs come from one comparison of all differences; the
    union-find runs only when some pair is near."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    if n == 1:
        return [(values[0], [0])]
    rows, cols = np.nonzero(np.abs(values[:, None] - values) <= tol)
    upper = rows < cols
    if not upper.any():
        groups = [[i] for i in range(n)]
    else:
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
            pi, pj = find(i), find(j)
            if pi != pj:
                parent[pi] = pj
        roots = {}
        for i in range(n):
            roots.setdefault(find(i), []).append(i)
        groups = list(roots.values())
    clusters = [(values[idx[0]] if len(idx) == 1 else values[idx].mean(), idx) for idx in groups]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


@dataclass(frozen=True)
class SpectralResolution:
    """Distinct eigenvalues of a normal matrix with orthogonal eigenprojections."""

    eigenvalues: np.ndarray
    projections: tuple
    multiplicities: tuple

    def projection_for(self, lam):
        return self.projections[self.index_of(lam)]

    def index_of(self, lam):
        return _nearest_eigenvalue(self.eigenvalues, lam, "the resolved matrix")


def _nearest_eigenvalue(eigenvalues, lam, matrix_name):
    """Index of the eigenvalue nearest lam; it must lie within 1e-6 (1 + |lam|),
    which no NaN does."""
    d = np.abs(eigenvalues - complex(lam))
    i = int(np.argmin(d))
    if not d[i] <= 1e-6 * (1.0 + abs(lam)):
        raise UnknownEigenvalueError(
            f"{lam} is not an eigenvalue of {matrix_name} (nearest: {eigenvalues[i]})"
        )
    return i


def _eigenvalue_clusters(eigenvalues, a1_norm):
    """Eigenvalues of A_1 clustered at 1e-8 max(1, ||A_1||), ||A_1|| = a1_norm."""
    return _cluster_values(eigenvalues, 1e-8 * max(1.0, a1_norm))


def spectral_resolution(a1):
    """Eigenvalue clusters and orthogonal spectral projections of a normal matrix.

    Rejects non-normal input: limit projections can diverge there, and the
    norm-profile diagnostics are the supported path for such matrices.
    """
    a1 = np.asarray(a1, dtype=complex)
    return _spectral_resolution(a1, opnorm(a1))


def _spectral_resolution(a1, a1_norm):
    """spectral_resolution of the complex array a1, whose operator norm is a1_norm."""
    cnorm, tol, is_normal = _commutator_test(a1, a1_norm)
    if not is_normal:
        raise NotNormalError(cnorm, tol)
    t, z = scipy.linalg.schur(a1, output="complex")
    clusters = _eigenvalue_clusters(np.diag(t), a1_norm)
    eigenvalues = np.array([c for c, _ in clusters])
    projections = []
    multiplicities = []
    for _, idx in clusters:
        cols = z[:, idx]
        projections.append(cols @ cols.conj().T)
        multiplicities.append(len(idx))
    return SpectralResolution(eigenvalues, tuple(projections), tuple(multiplicities))


@dataclass(frozen=True)
class TOperator:
    """Reduced resolvent sum_{mu != lambda} P_mu / (lambda - mu)."""

    base_eigenvalue: complex
    matrix: np.ndarray


def t_operator(res: SpectralResolution, lam):
    i = res.index_of(lam)
    lam = complex(res.eigenvalues[i])
    n = res.projections[0].shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for j, mu in enumerate(res.eigenvalues):
        if j == i:
            continue
        acc += res.projections[j] / (lam - mu)
    return TOperator(base_eigenvalue=lam, matrix=acc)


@dataclass(frozen=True)
class Branch:
    """One locally analytic spectrum component through 1/lambda (or 0).

    samples runs down the ladder (largest t first); values are x_1 for the
    nonzero kind and x_{n+1} (the tracked eigenvalue) for the zero kind.
    multiplicity is the size of the coincident-root cluster the branch tracks.
    pencil is the MatrixTuple the branch was tracked on.  residuals[k] is
    the relative smallest singular value s_min / (1 + s_max) of the pencil
    matrix at samples[k]: v A_1 + t xhat.A_rest - I for the nonzero kind,
    A_1 + t xhat.A_rest - v I for the zero kind.  They are computed from
    pencil on first read, with one stacked SVD.  _rung_roots is the root
    table of its kind on the ladder it was tracked on (see SliceLadder),
    which its projections test its separation against, so they solve no
    rung again; equality ignores pencil, residuals and _rung_roots.
    """

    lam: complex
    kind: str  # "nonzero" | "zero"
    direction: tuple
    index: int
    samples: tuple  # ((t, value), ...) with t decreasing
    multiplicity: int
    d1: complex = None
    d2: complex = None
    d1_error: float = None
    d2_error: float = None
    pencil: MatrixTuple = field(default=None, compare=False, repr=False)
    _rung_roots: tuple = field(default=None, compare=False, repr=False)

    @cached_property
    def residuals(self):
        ts = np.array([tk for tk, _ in self.samples])
        return _branch_residuals(self.pencil, self.kind, self.direction, ts,
                                 [v for _, v in self.samples])

    @property
    def limit_value(self):
        return 0.0 if self.kind == "zero" else 1.0 / self.lam

    def to_json(self):
        return {
            "lambda": complex_to_pair(self.lam),
            "j": self.index,
            "kind": self.kind,
            "direction": [complex_to_pair(v) for v in self.direction],
            "d1": None if self.d1 is None else complex_to_pair(self.d1),
            "d2": None if self.d2 is None else complex_to_pair(self.d2),
            "multiplicity": self.multiplicity,
            "samples": [[t, *complex_to_pair(v)] for t, v in self.samples],
            "residuals": list(self.residuals),
        }


def _reference_spectrum(a1, a1_norm):
    """The eigenvalue clusters of A_1, from one eigvals, and the kind of each:
    "zero" within 1e-9 max(1, ||A_1||) of 0, else "nonzero"; ||A_1|| = a1_norm.

    Tuples that share A_1, such as (A_1, A_2) and (A_1, A_1 A_2), share them.
    """
    refs = _eigenvalue_clusters(np.linalg.eigvals(a1), a1_norm)
    tol = 1e-9 * max(1.0, a1_norm)
    return refs, ["zero" if abs(c) <= tol else "nonzero" for c, _ in refs]


def _ladder_roots(t: MatrixTuple, kind, xhat, ts):
    """The roots of kind on the slice along t_k xhat as a table, one row for
    every t_k in ts, padded with nan.  This is the one place slice pencils
    are assembled to be solved, and nothing solves them with eigenvectors.

    For the nonzero kind, the finite x_1 of det(x_1 A_1 + t_k xhat.A_rest - I)
    = 0 from one line_roots_batch call (_root_table): the bases are the rows
    (0, t_k xhat) and every direction is e_1.  For the zero kind, the
    eigenvalues of A_1 + t_k xhat.A_rest from one stacked eigvals, which
    fill every row.
    """
    ts = np.asarray(ts, dtype=float)
    if kind == "zero":
        b = sum(c * m for c, m in zip(xhat, t.matrices[1:]))
        return np.linalg.eigvals(t.matrices[0] + ts[:, None, None] * b)
    bases = np.zeros((ts.size, t.n), dtype=complex)
    bases[:, 1:] = ts[:, None] * xhat
    e1 = np.zeros_like(bases)
    e1[:, 0] = 1.0
    return _root_table(line_roots_batch(t, bases, e1))


def _shifted_pencils(t: MatrixTuple, kind, xhat, ts, values, out=None):
    """The pencil matrix at every sample (t_k, values[k]), stacked:
    v A_1 + t xhat.A_rest - I for the nonzero kind, A_1 + t xhat.A_rest - v I
    for the zero kind.  It is singular where v is a root of the slice at t.

    The stack is written into out, a complex stack, when given;
    one stack-sized temporary is made either way.
    """
    ts = np.asarray(ts, dtype=float)[:, None, None]
    v = np.asarray(values, dtype=complex)[:, None, None]
    rest = sum(c * m for c, m in zip(xhat, t.matrices[1:]))
    if out is None:
        out = np.empty((ts.shape[0], t.dim, t.dim), dtype=complex)
    if kind == "zero":
        np.multiply(ts, rest, out=out)
        out += t.matrices[0]
        out -= v * np.eye(t.dim)
    else:
        np.multiply(v, t.matrices[0], out=out)
        out += ts * rest
        out[:, range(t.dim), range(t.dim)] -= 1.0
    return out


def _branch_residuals(t: MatrixTuple, kind, xhat, ts, values):
    """s_min / (1 + s_max) of the pencil matrix at every sample, from one stacked SVD."""
    smin, smax = _svd_extremes(_shifted_pencils(t, kind, xhat, ts, values))
    return tuple((smin / (1.0 + smax)).tolist())


def _nearest_unambiguous(values, target):
    """Index of the value nearest target, or None unless it is 4x nearer than
    the runner-up."""
    d = np.abs(np.asarray(values) - target)
    order = np.argsort(d)
    if d.size > 1 and d[order[0]] > 0.25 * d[order[1]]:
        return None
    return int(order[0])


def _unit_direction(t: MatrixTuple, xhat):
    xhat = np.asarray(xhat, dtype=complex).reshape(-1)
    if xhat.shape[0] != t.n - 1:
        raise ValueError(f"direction must have n-1={t.n - 1} coordinates, not {xhat.shape[0]}")
    if not np.isfinite(xhat).all():
        raise ValueError("direction must have finite coordinates")
    nrm = np.linalg.norm(xhat)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    return xhat / nrm


@dataclass(frozen=True)
class SliceLadder:
    """Slice roots along t*xhat on the ladder t_k = t_max * 2^-k, solved once.

    ts holds the t_k; reference holds the eigenvalue clusters of A_1 and
    kinds the kind of each cluster, "zero" or "nonzero"; roots maps each
    solved kind to its _ladder_roots table, one row per t_k: x_1 of the
    slice for "nonzero", the eigenvalues of A_1 + t_k xhat.A_rest for
    "zero".  The roots depend on the tuple, the direction and the ladder
    only, so one ladder serves the branches at every eigenvalue of A_1, and
    each kind's table is built once.  Every kind is solved for its roots
    only; the branches tracked on the ladder carry their kind's table to
    projection_ladders and component_projection, which then solve no rung
    again.
    """

    direction: tuple
    ts: np.ndarray
    reference: tuple
    kinds: tuple
    roots: dict


def _is_integer(v):
    """Whether v is an integer (an Integral, not a bool)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _solve_ladder(t: MatrixTuple, xhat, t_max, samples, reference, kinds, solved=None):
    """The ladder of t along the unit xhat with the roots of each kind in
    solved (by default every kind of A_1); reference and kinds are those of
    _reference_spectrum.

    Every ladder is built here: t_max must be a finite real > 0 and samples
    an integer >= 2 whose finest rung t_max * 2^-(samples-1) is a positive
    normal float, else ValueError.
    """
    if not (_is_real(t_max) and t_max > 0):
        raise ValueError(f"t_max must be a finite real > 0; got {t_max!r}")
    if not (_is_integer(samples) and samples >= 2):
        raise ValueError(f"samples must be an integer >= 2; got {samples!r}")
    finest = math.ldexp(t_max, 1 - int(samples))
    if finest < np.finfo(float).smallest_normal:
        raise ValueError(f"samples must keep the finest rung t_max * 2^-(samples-1) a "
                         f"positive normal float; got {samples!r} (rung {finest!r})")
    solved = sorted(set(kinds)) if solved is None else solved
    ts = t_max * 2.0 ** (-np.arange(samples))
    return SliceLadder(
        direction=tuple(xhat.tolist()),
        ts=ts,
        reference=tuple(reference),
        kinds=tuple(kinds),
        roots={k: _ladder_roots(t, k, xhat, ts) for k in solved},
    )


def local_branches(t: MatrixTuple, lam, xhat, t_max=1e-2, samples=8):
    """Track the spectrum branches through 1/lambda (or 0) along the line t*xhat.

    Solves the slice eigenproblem on the geometric ladder t_k = t_max * 2^-k,
    clusters coincident roots (multiplicity), and continues clusters between
    adjacent levels by predicted nearest-neighbor matching.  A match is
    accepted only when the nearest candidate is 4x closer than the second
    nearest; anything else is reported as a branch collision.  With
    samples >= 5 the first and second derivatives of all branches come from
    one stacked extrapolation each; the first branch whose derivatives do
    not converge raises ExtrapolationError (d1 before d2).

    Only the kind lambda needs is solved, and the branches keep its roots
    for their projections.  An xhat that is not n-1 finite coordinates,
    not all 0, a t_max that is not a finite real > 0 or a samples that is
    not an integer >= 2 raises ValueError before anything is solved.  The
    branches keep t as their pencil and compute their residuals when first
    read.
    """
    xhat = _unit_direction(t, xhat)
    a1 = t.matrices[0]
    refs, kinds = _reference_spectrum(a1, opnorm(a1))
    i = _nearest_eigenvalue(np.array([c for c, _ in refs]), lam, "A1")
    ladder = _solve_ladder(t, xhat, t_max, samples, refs, kinds, (kinds[i],))
    (entry,) = _differentiated(t, ladder, [i])
    if isinstance(entry, Exception):
        raise entry
    lam0, kind, tracks, derivatives, failure = entry
    if failure is not None:
        raise failure
    return _branches(t, ladder, lam0, kind, tracks, derivatives)


def _selection_disks(t: MatrixTuple, reference, positions, kind):
    """Center and selection radius of the clusters of A_1 at positions (indices
    into reference, the clusters of _reference_spectrum), all of kind, from
    one pairwise-distance computation.

    A cluster's branches pass through its center at t = 0: 1/lambda_0 for
    the nonzero kind, 0 for the zero kind.  The radius is half the distance
    to the nearest other cluster's center in that chart (nonzero clusters
    within 1e-12 of 0 have none), or half of 1 + |center| (nonzero kind) or
    1 + ||A_1|| (zero kind) when there is no other cluster.  The distances
    are hypot's, which is abs of a complex scalar.
    """
    values = np.array([c for c, _ in reference])
    own = values[positions]
    others = values[None, :] != own[:, None]
    if kind == "zero":
        centers = np.zeros(own.shape, dtype=complex)
        dist = np.hypot(values.real, values.imag)[None, :]
    else:
        charted = np.hypot(values.real, values.imag) > 1e-12
        inverse = 1.0 / np.where(charted, values, 1.0)
        centers = inverse[positions]
        delta = inverse[None, :] - centers[:, None]
        dist = np.hypot(delta.real, delta.imag)
        others &= charted
    radii = 0.5 * np.where(others, dist, np.inf).min(axis=1)
    alone = ~others.any(axis=1)
    if alone.any():
        # the zero kind's default costs an opnorm, so it is taken only here
        radii[alone] = 0.5 * (1.0 + (opnorm(t.matrices[0]) if kind == "zero"
                                     else np.hypot(centers.real, centers.imag)[alone]))
    return centers, radii


def _tracks(t: MatrixTuple, ladder: SliceLadder, positions):
    """The branches of the clusters of A_1 at positions (indices into
    ladder.reference) on ladder, before differentiation: one pass per kind.

    Each entry is (lambda_0, kind, center, tracks), or the TrackingError or
    BranchCollisionError the cluster's branches raise: lambda_0 is the
    cluster's value, center the branches' value at t = 0, and tracks one
    (values down the ladder, multiplicity) per branch, in the order of the
    first values.

    The selection disks of a kind's clusters come from _selection_disks,
    and which roots of every rung lie in which disk from one comparison on
    the kind's root table.  A simple cluster whose disk holds one root at
    every rung takes that column of roots as its track: clustering one
    value returns it and matching one candidate accepts it, so _track would
    give the same.  Every other cluster is tracked by _track.
    """
    refs, kinds = ladder.reference, ladder.kinds
    out = [None] * len(positions)
    for kind in sorted({kinds[i] for i in positions}):
        mine = [n for n, i in enumerate(positions) if kinds[i] == kind]
        at = [positions[n] for n in mine]
        centers, radii = _selection_disks(t, refs, at, kind)
        table = ladder.roots[kind]
        inside = np.abs(table[:, :, None] - centers) <= radii
        lone = (inside.sum(axis=1) == 1).all(axis=0)
        if lone.any():  # then the table has a column
            columns = np.take_along_axis(table, inside.argmax(axis=1), axis=1)
        for s, (n, i) in enumerate(zip(mine, at)):
            lam0, members = refs[i]
            center = centers[s]
            if lone[s] and len(members) == 1:
                out[n] = (lam0, kind, center, [(columns[:, s], 1)])
                continue
            try:
                out[n] = (lam0, kind, center, _track(table, inside[:, :, s], center, len(members)))
            except JointSpecError as exc:
                out[n] = exc
    return out


def _track(table, inside, center, multiplicity):
    """The branches through center on one kind's root table, whose roots in
    the selection disk are marked in inside: one (values down the ladder,
    multiplicity) per branch, in the order of the first values.  Raises the
    tracking errors of local_branches.

    Each rung's roots in the disk are clustered, and the clusters are
    matched rung to rung; multiplicity is that of the eigenvalue of A_1.
    """
    coincide_tol = 1e-6 * (1.0 + abs(center))
    levels = [[(c, len(idx)) for c, idx in _cluster_values(roots[keep], coincide_tol)]
              for roots, keep in zip(table, inside)]

    counts = {len(lv) for lv in levels}
    if len(counts) != 1:
        raise TrackingError(
            f"tracked cluster count changed along the ladder: {[len(lv) for lv in levels]}"
        )
    total = sum(sz for _, sz in levels[-1])
    if total != multiplicity:
        raise TrackingError(
            f"found total multiplicity {total} near {center}, expected {multiplicity}"
        )

    # continue clusters coarse -> fine with linear prediction toward the center
    tracks = [[cl] for cl in levels[0]]
    for lv in levels[1:]:
        cands = list(lv)
        used = [False] * len(cands)
        for track in tracks:
            prev, size = track[-1]
            pred = center + 0.5 * (prev - center)
            best = _nearest_unambiguous([c for c, _ in cands], pred)
            if best is None:
                raise BranchCollisionError(
                    f"ambiguous branch continuation near t-level with values "
                    f"{[c for c, _ in cands]}"
                )
            if used[best]:
                raise BranchCollisionError("two tracked branches matched the same root cluster")
            if cands[best][1] != size:
                raise TrackingError("branch multiplicity changed along the ladder")
            used[best] = True
            track.append(cands[best])

    tracks.sort(key=lambda tr: (tr[0][0].real, tr[0][0].imag))
    return [([c for c, _ in tr], tr[0][1]) for tr in tracks]


def _differentiated(t: MatrixTuple, ladder: SliceLadder, positions):
    """_tracks' entries with each branch's derivatives: (lambda_0, kind,
    tracks, derivatives, failure), derivatives holding (d1, d1_error, d2,
    d2_error) per track, all None when the ladder has fewer than 5 rungs.

    With 5 rungs or more the first and second derivatives of every tracked
    branch, at all the positions, come from one stacked first_derivative
    and one second_derivative call; failure is the ExtrapolationError of
    the cluster's first branch whose derivatives did not converge, d1
    before d2, or None.
    """
    tracked = _tracks(t, ladder, positions)
    found = [tr for tr in tracked if not isinstance(tr, Exception)]
    flat = [(vals, center) for _, _, center, tracks in found for vals, _ in tracks]
    derivs = iter([(None,) * 6] * len(flat))
    if ladder.ts.size >= 5 and flat:
        vals = np.array([v for v, _ in flat])
        centers = np.array([c for _, c in flat])
        first = extrapolate._each_series(extrapolate.first_derivative, ladder.ts, vals, centers)
        second = extrapolate._each_series(extrapolate.second_derivative, ladder.ts, vals, centers)
        derivs = zip(*first, *second)

    out = []
    for tr in tracked:
        if isinstance(tr, Exception):
            out.append(tr)
            continue
        lam0, kind, _, tracks = tr
        each, failure = [], None
        for _ in tracks:
            d1, e1, f1, d2, e2, f2 = next(derivs)
            failure = failure or f1 or f2
            each.append((d1, e1, d2, e2))
        out.append((lam0, kind, tracks, each, failure))
    return out


def _branches(t: MatrixTuple, ladder: SliceLadder, lam0, kind, tracks, derivatives):
    """The Branch objects of one cluster's tracks and derivatives (_differentiated's)."""
    return [
        Branch(
            lam=complex(lam0),
            kind=kind,
            direction=ladder.direction,
            index=j,
            samples=tuple((float(tk), complex(v)) for tk, v in zip(ladder.ts, vals)),
            multiplicity=mult,
            d1=None if d1 is None else complex(d1),
            d2=None if d2 is None else complex(d2),
            d1_error=None if e1 is None else float(e1),
            d2_error=None if e2 is None else float(e2),
            pencil=t,
            _rung_roots=ladder.roots[kind],
        )
        for j, ((vals, mult), (d1, e1, d2, e2)) in enumerate(zip(tracks, derivatives))
    ]


@dataclass(frozen=True)
class RegularityReport:
    """Numeric proxies for the local regularity conditions at lambda.

    condition_a: every branch tracks a finite simple root cluster.
    condition_b: expanded first derivatives are pairwise distinct, so the
    sheets through the base point are transversal.
    failure: why the branches at lambda could not be tracked or
    differentiated; error: the exception of a failure that is not a
    tracking failure (an ExtrapolationError), for the gate to raise.
    """

    lam: complex
    condition_a: bool
    condition_b: bool
    branch_derivative_gaps: float
    tangency_margin: float
    tangency_ok: bool
    branches: tuple = ()
    failure: str = None
    error: Exception = field(default=None, compare=False, repr=False)

    def to_json(self):
        return {
            "lambda": complex_to_pair(self.lam),
            "condition_a": self.condition_a,
            "condition_b": self.condition_b,
            "branch_derivative_gaps": self.branch_derivative_gaps,
            "tangency_margin": self.tangency_margin,
            "tangency_ok": self.tangency_ok,
            "failure": self.failure,
        }


def check_regularity(t: MatrixTuple, xhat, t_max=1e-2, samples=8):
    """Check conditions a) and b) (or their lambda = 0 analogues) along xhat
    at every eigenvalue of A_1: one RegularityReport each, in the order of
    A_1's eigenvalue clusters.

    All eigenvalues are tracked on one slice ladder, which solves every kind
    of A_1 without eigenvectors, in one pass per kind: a simple eigenvalue
    whose selection disk holds one root at every rung takes that column of
    roots, and every other one is clustered and matched rung to rung (see
    local_branches).  The derivatives of all their branches come from one
    stacked extrapolation each.  An
    eigenvalue whose branches cannot be tracked gets a report with failed
    conditions a) and b) and the failure's message.  So does one whose
    derivatives do not converge, and its report keeps the ExtrapolationError
    in error: a gate that walks the eigenvalues in order raises it on
    reaching that report.  Branches tracked with samples < 5 have no first
    derivatives, and regularity_report refuses them with ValueError.  An
    xhat, t_max or samples that local_branches refuses raises ValueError
    here too.
    """
    xhat = _unit_direction(t, xhat)
    a1 = t.matrices[0]
    return _regularity_reports(
        t, _solve_ladder(t, xhat, t_max, samples, *_reference_spectrum(a1, opnorm(a1))))


def _regularity_reports(t: MatrixTuple, ladder: SliceLadder, keep=None):
    """check_regularity's reports on ladder, which must solve every kind of
    A_1: one _differentiated pass over the clusters of A_1, by position.

    Only the reports at the positions in keep (every report when keep is
    None) carry their branches; the others hold the conditions alone.
    """
    reports = []
    positions = range(len(ladder.reference))
    for i, ((lam, _), entry) in enumerate(zip(ladder.reference,
                                               _differentiated(t, ladder, positions))):
        failure = entry if isinstance(entry, Exception) else entry[4]
        if failure is not None:
            tracking = isinstance(failure, (BranchCollisionError, TrackingError))
            reports.append(RegularityReport(
                lam=complex(lam),
                condition_a=False,
                condition_b=False,
                branch_derivative_gaps=0.0,
                tangency_margin=0.0,
                tangency_ok=False,
                failure=str(failure),
                error=None if tracking else failure,
            ))
            continue
        lam0, kind, tracks, derivatives, _ = entry
        branches = (_branches(t, ladder, lam0, kind, tracks, derivatives)
                    if keep is None or i in keep else ())
        reports.append(_conditions(complex(lam0), [m for _, m in tracks],
                                   [d1 for d1, _, _, _ in derivatives],
                                   [v for v, _ in tracks], ladder.ts, branches))
    return tuple(reports)


def regularity_report(branches):
    """Conditions a) and b) from the branches local_branches tracked at one lambda.

    Condition b) compares first derivatives, so the branches must have been
    tracked with samples >= 5; branches without d1 raise ValueError.
    """
    return _conditions(branches[0].lam, [b.multiplicity for b in branches],
                       [b.d1 for b in branches], [[v for _, v in b.samples] for b in branches],
                       [tk for tk, _ in branches[0].samples], branches)


def _conditions(lam, multiplicities, d1s, series, ts, branches):
    """The RegularityReport at lam of the branches with these multiplicities,
    first derivatives and values down the ladder ts, carrying branches.

    The one implementation of conditions a) and b): regularity_report and
    the gate both call it.  A d1 of None raises ValueError.
    """
    if any(d1 is None for d1 in d1s):
        raise ValueError(
            "condition b) needs the first derivatives of the branches: "
            "track them with samples >= 5"
        )
    cond_a = all(m == 1 for m in multiplicities)

    # expand derivatives by multiplicity: a repeated sheet has gap 0
    expanded = []
    for d1, m in zip(d1s, multiplicities):
        expanded.extend([complex(d1)] * m)
    if len(expanded) < 2:
        gap = float("inf")
    else:
        gap = min(
            abs(expanded[i] - expanded[j])
            for i in range(len(expanded)) for j in range(i + 1, len(expanded))
        )
    scale = 1.0 + max((abs(d) for d in expanded), default=0.0)
    cond_b = bool(gap > 1e-6 * scale)

    if len(series) < 2:
        margin = 0.0 if not cond_b else float("inf")
    else:
        margin = float("inf")
        for i in range(len(series)):
            for j in range(i + 1, len(series)):
                for tk, vi, vj in zip(ts, series[i], series[j]):
                    margin = min(margin, abs(vi - vj) / tk)
    if any(m > 1 for m in multiplicities):
        margin = 0.0

    return RegularityReport(
        lam=lam,
        condition_a=cond_a,
        condition_b=cond_b,
        branch_derivative_gaps=float(gap) if np.isfinite(gap) else float("inf"),
        tangency_margin=float(margin),
        tangency_ok=bool(margin > 1e-6),
        branches=tuple(branches),
    )
