"""Numerical verification of the limit-projection identities for pairs.

Every identity is checked in operator norm; a RelationReport records the
residual, the tolerance used, and the verdict.  The identities are reported
by verify_pair, one report per relation_id: each identity's residual
matrices come from one private helper, and a call's operator norms from one
stacked SVD.  verify_pair computes one analysis per (pair, eigenvalue): it
tracks the branches of (A1, A2) and (A1, A1 A2) once at each eigenvalue of
A1, derives the regularity gate from those branches (normal leading matrix,
conditions a/b at every eigenvalue, multiplicity-1 branches) and refuses
when it fails; the rung projections and limits are built once from the
same branches, and the limits serve every identity at that eigenvalue.
check_regularity diagnoses an instance the gate refuses.
"""

from dataclasses import dataclass

import numpy as np

from .branches import (
    SpectralResolution,
    TOperator,
    _is_integer,
    _nearest_eigenvalue,
    _nearest_unambiguous,
    _reference_spectrum,
    _regularity_reports,
    _solve_ladder,
    _spectral_resolution,
    _unit_direction,
    local_branches,
    spectral_resolution,
    t_operator,
)
from .errors import JointSpecError, PairingAmbiguityError
from .pencil import MatrixTuple, _is_real, _svd_extremes, opnorm
from .projections import _checked, _limits, _rung_stack
from .serialize import complex_to_pair


class HypothesisNotMet(JointSpecError):
    """The hypotheses of the identity being verified do not hold."""


@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    lam: complex
    branch_indices: tuple
    residual: float
    tolerance: float
    passed: bool

    def to_json(self):
        return {
            "relation_id": self.relation_id,
            "lambda": complex_to_pair(self.lam),
            "branch_indices": list(self.branch_indices),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _report(relation_id, lam, indices, residual, tol):
    return RelationReport(
        relation_id=relation_id,
        lam=complex(lam),
        branch_indices=tuple(indices),
        residual=float(residual),
        tolerance=float(tol),
        passed=bool(residual <= tol),
    )


@dataclass(frozen=True)
class _Residual:
    """One relation report before its norms are taken: its residual is the
    largest operator norm of matrices, 0 when there are none."""

    relation_id: str
    lam: complex
    indices: tuple
    matrices: tuple


def _check_tol(tol):
    """ValueError unless tol is a finite real > 0."""
    if not (_is_real(tol) and tol > 0):
        raise ValueError(f"tol must be a finite real > 0; got {tol!r}")


def _reports(residuals, tol):
    """The RelationReports of residuals, all operator norms from one stacked SVD.

    A tol that is not a finite real > 0 raises ValueError.
    """
    _check_tol(tol)
    mats = [m for r in residuals for m in r.matrices]
    norms = iter(_svd_extremes(np.array(mats))[1].tolist() if mats else ())
    return [_report(r.relation_id, r.lam, r.indices,
                    max([next(norms) for _ in r.matrices], default=0.0), tol)
            for r in residuals]


def _orthogonality_and_resolution(projs, res: SpectralResolution, lam):
    if not projs:
        raise ValueError("need at least one limit projection")
    d0 = projs[0].direction
    if any(not np.allclose(p.direction, d0) for p in projs):
        raise ValueError("mismatched direction across limit projections")
    residuals = []
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            residuals.append(_Residual(
                "orthogonality", lam, (projs[i].branch_index, projs[j].branch_index),
                (projs[i].matrix @ projs[j].matrix, projs[j].matrix @ projs[i].matrix)))
    total = sum(p.matrix for p in projs)
    residuals.append(_Residual("resolution", lam, tuple(p.branch_index for p in projs),
                               (total - res.projection_for(lam),)))
    return residuals


def _cross_moment_zero(proj_i, proj_j, a2):
    if proj_i.branch_index == proj_j.branch_index:
        raise ValueError("cross moment needs two distinct branches")
    if abs(proj_i.lam - proj_j.lam) > 1e-8 * (1.0 + abs(proj_i.lam)):
        raise ValueError("cross moment needs branches at the same eigenvalue")
    return _Residual("cross_moment_zero", proj_i.lam,
                     (proj_j.branch_index, proj_i.branch_index),
                     (proj_j.matrix @ np.asarray(a2, dtype=complex) @ proj_i.matrix,))


def _first_moment(proj, a2, d1):
    if proj.rank > 1:
        raise HypothesisNotMet("first-moment identity requires a multiplicity-1 branch")
    a2 = np.asarray(a2, dtype=complex)
    p = proj.matrix
    coeff = -d1 if proj.kind == "zero" else proj.lam * d1
    rel = "first_moment_zero_case" if proj.kind == "zero" else "first_moment"
    return _Residual(rel, proj.lam, (proj.branch_index,), (p @ a2 @ p + coeff * p,))


def _second_moment(proj, a2, t_op: TOperator, d2):
    if proj.rank > 1:
        raise HypothesisNotMet("second-moment identity requires a multiplicity-1 branch")
    if abs(t_op.base_eigenvalue - proj.lam) > 1e-8 * (1.0 + abs(proj.lam)):
        raise ValueError("T operator belongs to a different eigenvalue")
    a2 = np.asarray(a2, dtype=complex)
    p = proj.matrix
    sign = -1.0 if proj.kind == "zero" else 1.0
    rel = "second_moment_zero_case" if proj.kind == "zero" else "second_moment"
    return _Residual(rel, proj.lam, (proj.branch_index,),
                     (p @ a2 @ t_op.matrix @ a2 @ p + sign * (d2 / 2.0) * p,))


def _prime_relations(limits, a1, a2, branches):
    if len(limits) != len(branches):
        raise ValueError("one limit projection per branch is required")
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    eye = np.eye(a1.shape[0])

    residuals = []
    for k, b in enumerate(branches):
        p, dp = limits[k].matrix, limits[k].derivative
        if b.kind == "zero":
            r_op = a2 - b.d1 * eye
            rhs = (b.d2 / 2.0) * p
        else:
            # general-lam form: the right side carries the eigenvalue factor
            r_op = b.d1 * a1 + a2
            rhs = -b.lam * (b.d2 / 2.0) * p
        siblings = [limits[i].matrix for i in range(len(branches)) if i != k]
        others = tuple(bb.index for i, bb in enumerate(branches) if i != k)
        residuals.append(_Residual("prime_relation_1", b.lam, (b.index,), (dp @ r_op @ p - rhs,)))
        residuals.append(_Residual("prime_relation_2", b.lam, (b.index,), (p @ r_op @ dp - rhs,)))
        residuals.append(_Residual("prime_relation_3", b.lam, (b.index, *others),
                                   tuple(dp @ r_op @ pi for pi in siblings)))
        residuals.append(_Residual("prime_relation_4", b.lam, (b.index, *others),
                                   tuple(pi @ r_op @ dp for pi in siblings)))
    return residuals


@dataclass(frozen=True)
class PairAnalysis:
    """Branches and limit projections at one eigenvalue; the rung projections
    are intermediate data, which projection_ladders returns."""

    tup: MatrixTuple
    lam: complex
    resolution: SpectralResolution
    branches: tuple
    limits: tuple


def analyze_pair(t: MatrixTuple, lam):
    """Track branches at lam along e_1 on the default ladder (t_max 1e-2, 8
    samples), project every branch at every rung, extrapolate limits.

    The ladder is solved once, and the projections test separation against
    its roots.  The rung projections go to the extrapolation as one stack.
    """
    resolution = spectral_resolution(t.matrices[0])
    branches = local_branches(t, lam, np.eye(t.n - 1)[0])
    limits = [_checked(*pl) for pl in zip(*_limits(branches, _rung_stack(t, branches)))]
    return _analysis(t, branches, limits, resolution)


def _analysis(t: MatrixTuple, branches, limits, resolution):
    return PairAnalysis(tup=t, lam=complex(branches[0].lam), resolution=resolution,
                        branches=tuple(branches), limits=tuple(limits))


def _pair_by_derivative(x_branches, z_branches, lam):
    """Match z-branches to x-branches through z'(0) = lam * x'(0)."""
    targets = [lam * b.d1 for b in x_branches]
    cand = [b.d1 for b in z_branches]
    pairing = []
    used = set()
    for j, tgt in enumerate(targets):
        best = _nearest_unambiguous(cand, tgt)
        if best is None:
            raise PairingAmbiguityError(
                f"two z-branches match lam*x'={tgt} equally well"
            )
        if best in used:
            raise PairingAmbiguityError("pairing by derivative correspondence is not injective")
        used.add(best)
        pairing.append(best)
    return pairing


def _product_pair(ax: PairAnalysis, az: PairAnalysis):
    """Same-projection and square residuals from the analyses of (A1, A2) and
    (A1, A1 A2) at one lam of the nonzero kind, with branches matched through
    z'(0) = lam * x'(0)."""
    if any(b.multiplicity != 1 for b in ax.branches + az.branches):
        raise HypothesisNotMet(
            "the same-projection and square identities require multiplicity-1 branches"
        )
    lam0 = ax.lam
    a2 = ax.tup.matrices[1]
    pairing = _pair_by_derivative(ax.branches, az.branches, lam0)
    same, square = [], []
    for j, bx in enumerate(ax.branches):
        bz = az.branches[pairing[j]]
        p = ax.limits[j].matrix
        same.append(p - az.limits[pairing[j]].matrix)
        coeff = (bz.d2 + 2.0 * lam0**3 * bx.d1**2 - lam0**2 * bx.d2) / (2.0 * lam0)
        square.append(p @ a2 @ a2 @ p - coeff * p)
    indices = tuple(b.index for b in ax.branches)
    return (
        _Residual("same_projection_lemma", lam0, indices, tuple(same)),
        _Residual("square_relation", lam0, indices, tuple(square)),
    )


_PAIR_NAMES = ("(A1, A2)", "(A1, A1*A2)")


def _gated_branches(t: MatrixTuple, pair, ladder, res: SpectralResolution, wanted):
    """The branches check_regularity tracks on ladder at each eigenvalue of
    wanted (indices into res); walking every eigenvalue of A_1 in order, the
    first failure raises: the error a report keeps, or HypothesisNotMet.

    Only the reports at wanted carry their branches.
    """
    values = np.array([c for c, _ in ladder.reference])
    at = [_nearest_eigenvalue(values, res.eigenvalues[k], "A1") for k in wanted]
    reports = _regularity_reports(t, ladder, set(at))
    for rep in reports:
        if rep.error is not None:
            raise rep.error
        if not (rep.condition_a and rep.condition_b):
            detail = f": {rep.failure or 'conditions a/b'}" if pair == 0 else ""
            raise HypothesisNotMet(
                f"regularity fails at lambda={res.eigenvalues[res.index_of(rep.lam)]} for "
                f"{_PAIR_NAMES[pair]}{detail}; check_regularity reports conditions a/b, "
                f"the gaps and the failure at every eigenvalue"
            )
    return [reports[i].branches for i in at]


def verify_pair(t: MatrixTuple, lam=None, tol=1e-5, t_max=1e-2, samples=8):
    """Run every identity check for a pair, at one or all eigenvalues of A1.

    A1's operator norm, eigenvalue clusters and their kinds are computed
    once and serve both pairs.  The slices of each pair are solved once (one
    slice ladder per pair, every kind of A1 solved for its roots only), and
    the gate tracks (A1, A2) and (A1, A1 A2) on them at every eigenvalue of
    A1, also when lam is given, in one tracking pass per (pair, kind): all
    branch derivatives of a pair come from one stacked extrapolation each,
    and the gate reads conditions a/b from the tracks.  Branch objects are
    built only at the eigenvalues analysed, whose analyses reuse those
    branches.  The projections at every rung of every analysed branch of a
    pair are one stack, with no ComponentProjection built; its rank-1
    projections are one stacked inverse iteration.  P and P'(0) of every
    analysed branch of both pairs come from one stacked extrapolation each,
    and the call takes two stacked SVDs: the limits' idempotency and the
    reports'.  The rung norms of the blow-up test come from the rank-1
    kernel, so no rung projection is decomposed when every rung is rank 1.
    Failures are raised in the order of analysing one eigenvalue and one
    branch at a time.

    Raises NotNormalError for non-normal A1 and HypothesisNotMet when the
    regularity gate fails; check_regularity reports the conditions at every
    eigenvalue of such an instance.  The moments and the gate read branch
    derivatives, so samples < 5 raises ValueError, as do a tol that is not a
    finite real > 0, a t_max that is not, and a non-integer samples.
    """
    if t.n != 2:
        raise ValueError("verify_pair is defined for pairs (n = 2)")
    if not _is_integer(samples):
        raise ValueError(f"samples must be an integer; got {samples!r}")
    if samples < 5:
        raise ValueError("verify_pair reads branch derivatives: it needs samples >= 5")
    _check_tol(tol)
    a1, a2 = t.matrices
    a1_norm = opnorm(a1)
    res = _spectral_resolution(a1, a1_norm)
    pairs = (t, MatrixTuple([a1, a1 @ a2]))
    eigs = res.eigenvalues
    reference = _reference_spectrum(a1, a1_norm)
    ks = range(len(eigs)) if lam is None else [res.index_of(lam)]
    ladders = [_solve_ladder(tt, _unit_direction(tt, [1.0]), t_max, samples, *reference)
               for tt in pairs]
    gated = [_gated_branches(t, 0, ladders[0], res, ks)]
    # (A1, A1 A2) is analysed at the eigenvalues of the nonzero kind only
    wanted = (ks, [k for k, bs in zip(ks, gated[0]) if bs[0].kind == "nonzero"])
    gated.append(_gated_branches(pairs[1], 1, ladders[1], res, wanted[1]))
    # each pair's rung projections; the limits of both pairs are
    # extrapolated together below, so a failure here is raised after those
    # of the pairs before it, as when each pair was finished in turn
    stacks, pending = [], None
    for found, tt in zip(gated, pairs):
        try:
            stacks.append(_rung_stack(tt, [b for bs in found for b in bs]))
        except Exception as exc:  # raised below, after the limits before it
            pending = exc
            break
    tracked = [b for found in gated[:len(stacks)] for bs in found for b in bs]
    limits = iter([_checked(*pl) for pl in zip(*_limits(tracked, *stacks))])
    if pending is not None:
        raise pending

    analyses = [
        {k: _analysis(pairs[pair], bs, [next(limits) for _ in bs], res)
         for k, bs in zip(wanted[pair], gated[pair])}
        for pair in range(2)
    ]

    # the gate admits simple branches only, so every identity applies
    residuals = []
    for k in ks:
        ax = analyses[0][k]
        residuals.extend(_orthogonality_and_resolution(ax.limits, res, ax.lam))
        for i in range(len(ax.limits)):
            for j in range(len(ax.limits)):
                if i != j:
                    residuals.append(_cross_moment_zero(ax.limits[i], ax.limits[j], a2))
        t_op = t_operator(res, ax.lam)
        for b, lp in zip(ax.branches, ax.limits):
            residuals.append(_first_moment(lp, a2, b.d1))
            residuals.append(_second_moment(lp, a2, t_op, b.d2))
        residuals.extend(_prime_relations(ax.limits, a1, a2, ax.branches))
        if k in analyses[1]:
            residuals.extend(_product_pair(ax, analyses[1][k]))
    return _reports(residuals, tol)
