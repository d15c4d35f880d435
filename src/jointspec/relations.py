"""Numerical verification of the limit-projection identities for pairs.

Every identity is checked in operator norm; a RelationReport records the
residual, the tolerance used, and the verdict.  The pair-level aggregator
computes one analysis per (pair, eigenvalue): it tracks the branches of
(A1, A2) and (A1, A1 A2) once at each eigenvalue of A1, derives the
regularity gate from those branches (normal leading matrix, conditions a/b
at every eigenvalue, multiplicity-1 branches) and refuses when it fails;
projection ladders and limits are built once from the same branches and
serve every identity at that eigenvalue.  check_hypotheses=False computes
residuals anyway with no pass/fail claim.
"""

from dataclasses import dataclass

import numpy as np

from .branches import (
    SpectralResolution,
    TOperator,
    _nearest_unambiguous,
    check_regularity,
    local_branches,
    slice_ladder,
    spectral_resolution,
    t_operator,
)
from .errors import JointSpecError, PairingAmbiguityError
from .pencil import MatrixTuple, opnorm
from .projections import limit_projection, projection_ladders
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
    passed: bool  # None when residuals are reported without a pass/fail claim

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


def verify_orthogonality_and_resolution(projs, res: SpectralResolution, lam, tol=1e-5):
    """Pairwise products vanish and the limit projections sum to the eigenprojection."""
    if not projs:
        raise ValueError("need at least one limit projection")
    d0 = projs[0].direction
    if any(not np.allclose(p.direction, d0) for p in projs):
        raise ValueError("mismatched direction across limit projections")
    reports = []
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            r = max(
                opnorm(projs[i].matrix @ projs[j].matrix),
                opnorm(projs[j].matrix @ projs[i].matrix),
            )
            reports.append(
                _report("orthogonality", lam, (projs[i].branch_index, projs[j].branch_index), r, tol)
            )
    total = sum(p.matrix for p in projs)
    script_p = res.projection_for(lam)
    reports.append(
        _report("resolution", lam, tuple(p.branch_index for p in projs),
                opnorm(total - script_p), tol)
    )
    return reports


def verify_cross_moment_zero(proj_i, proj_j, a2, tol=1e-5):
    """P_j A2 P_i = 0 for distinct branches at the same eigenvalue."""
    if proj_i.branch_index == proj_j.branch_index:
        raise ValueError("cross moment needs two distinct branches")
    if abs(proj_i.lam - proj_j.lam) > 1e-8 * (1.0 + abs(proj_i.lam)):
        raise ValueError("cross moment needs branches at the same eigenvalue")
    r = opnorm(proj_j.matrix @ np.asarray(a2, dtype=complex) @ proj_i.matrix)
    return _report("cross_moment_zero", proj_i.lam,
                   (proj_j.branch_index, proj_i.branch_index), r, tol)


def verify_first_moment(proj, a2, d1, tol=1e-5):
    """P A2 P + lam * d1 * P = 0 (nonzero kind) or P A2 P - d1 * P = 0 (zero kind).

    The lam factor is forced by scale invariance: A1 -> A1/lam maps the
    analysis at lam to the one at 1 and multiplies the branch derivative by
    lam, leaving the identity unchanged.
    """
    if proj.rank > 1:
        raise HypothesisNotMet("first-moment identity requires a multiplicity-1 branch")
    a2 = np.asarray(a2, dtype=complex)
    p = proj.matrix
    coeff = -d1 if proj.kind == "zero" else proj.lam * d1
    r = opnorm(p @ a2 @ p + coeff * p)
    rel = "first_moment_zero_case" if proj.kind == "zero" else "first_moment"
    return _report(rel, proj.lam, (proj.branch_index,), r, tol)


def verify_second_moment(proj, a2, t_op: TOperator, d2, tol=1e-5):
    """P A2 T A2 P = -(d2/2) P (nonzero kind) or +(d2/2) P (zero kind)."""
    if proj.rank > 1:
        raise HypothesisNotMet("second-moment identity requires a multiplicity-1 branch")
    if abs(t_op.base_eigenvalue - proj.lam) > 1e-8 * (1.0 + abs(proj.lam)):
        raise ValueError("T operator belongs to a different eigenvalue")
    a2 = np.asarray(a2, dtype=complex)
    p = proj.matrix
    sign = -1.0 if proj.kind == "zero" else 1.0
    r = opnorm(p @ a2 @ t_op.matrix @ a2 @ p + sign * (d2 / 2.0) * p)
    rel = "second_moment_zero_case" if proj.kind == "zero" else "second_moment"
    return _report(rel, proj.lam, (proj.branch_index,), r, tol)


def verify_prime_relations(limits, a1, a2, branches, tol=1e-5):
    """The four derivative identities linking P, P' and the branch derivatives.

    limits[k] is the LimitProjection of branches[k]; P and P'(0) are read
    from its matrix and derivative.  All branches must share the eigenvalue.
    The cross relations (3, 4) are reported with residual 0 when there is no
    sibling branch.
    """
    if len(limits) != len(branches):
        raise ValueError("one limit projection per branch is required")
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    eye = np.eye(a1.shape[0])

    reports = []
    for k, b in enumerate(branches):
        p, dp = limits[k].matrix, limits[k].derivative
        if b.kind == "zero":
            r_op = a2 - b.d1 * eye
            rhs = (b.d2 / 2.0) * p
        else:
            # general-lam form: the right side carries the eigenvalue factor
            r_op = b.d1 * a1 + a2
            rhs = -b.lam * (b.d2 / 2.0) * p
        r1 = opnorm(dp @ r_op @ p - rhs)
        r2 = opnorm(p @ r_op @ dp - rhs)
        r3 = 0.0
        r4 = 0.0
        for i, bi in enumerate(branches):
            if i == k:
                continue
            pi = limits[i].matrix
            r3 = max(r3, opnorm(dp @ r_op @ pi))
            r4 = max(r4, opnorm(pi @ r_op @ dp))
        others = tuple(bb.index for i, bb in enumerate(branches) if i != k)
        reports.append(_report("prime_relation_1", b.lam, (b.index,), r1, tol))
        reports.append(_report("prime_relation_2", b.lam, (b.index,), r2, tol))
        reports.append(_report("prime_relation_3", b.lam, (b.index, *others), r3, tol))
        reports.append(_report("prime_relation_4", b.lam, (b.index, *others), r4, tol))
    return reports


@dataclass(frozen=True)
class PairAnalysis:
    """Branches, projection ladders and limit projections at one eigenvalue."""

    tup: MatrixTuple
    lam: complex
    resolution: SpectralResolution
    branches: tuple
    ladders: tuple
    limits: tuple


def analyze_pair(t: MatrixTuple, lam, resolution=None):
    """Track branches at lam along e_1 on the default ladder (t_max 1e-2, 8
    samples), build projection ladders, extrapolate limits."""
    if resolution is None:
        resolution = spectral_resolution(t.matrices[0])
    branches = local_branches(t, lam, np.eye(t.n - 1)[0])
    return _analysis(t, branches, projection_ladders(t, branches), resolution)


def _analysis(t: MatrixTuple, branches, ladders, resolution):
    """Limit projections of branches already tracked, from their projection ladders."""
    limits = tuple(
        limit_projection(t, b, ladder=lad) for b, lad in zip(branches, ladders)
    )
    return PairAnalysis(
        tup=t,
        lam=complex(branches[0].lam),
        resolution=resolution,
        branches=tuple(branches),
        ladders=tuple(ladders),
        limits=limits,
    )


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


def _product_pair_reports(ax: PairAnalysis, az: PairAnalysis, tol):
    """Same-projection and square reports from the analyses of (A1, A2) and
    (A1, A1 A2) at one lam != 0, with branches matched through z'(0) = lam * x'(0)."""
    if any(b.multiplicity != 1 for b in ax.branches + az.branches):
        raise HypothesisNotMet(
            "the same-projection and square identities require multiplicity-1 branches"
        )
    lam0 = ax.lam
    a2 = ax.tup.matrices[1]
    pairing = _pair_by_derivative(ax.branches, az.branches, lam0)
    same = square = 0.0
    for j, bx in enumerate(ax.branches):
        bz = az.branches[pairing[j]]
        p = ax.limits[j].matrix
        same = max(same, opnorm(p - az.limits[pairing[j]].matrix))
        coeff = (bz.d2 + 2.0 * lam0**3 * bx.d1**2 - lam0**2 * bx.d2) / (2.0 * lam0)
        square = max(square, opnorm(p @ a2 @ a2 @ p - coeff * p))
    indices = tuple(b.index for b in ax.branches)
    return (
        _report("same_projection_lemma", lam0, indices, same, tol),
        _report("square_relation", lam0, indices, square, tol),
    )


def _product_pair_analyses(t: MatrixTuple, lam, identity):
    if t.n != 2:
        raise ValueError(f"the {identity} identity is stated for pairs")
    if abs(complex(lam)) < 1e-12:
        raise ValueError(f"the {identity} identity requires lam != 0")
    a1, a2 = t.matrices
    ax = analyze_pair(t, lam)
    az = analyze_pair(MatrixTuple([a1, a1 @ a2]), lam, resolution=ax.resolution)
    return ax, az


def verify_same_projection_lemma(t: MatrixTuple, lam, tol=1e-5):
    """Limit projections of (A1, A2) and (A1, A1 A2) coincide at lam != 0."""
    ax, az = _product_pair_analyses(t, lam, "same-projection")
    return _product_pair_reports(ax, az, tol)[0]


def verify_square_relation(t: MatrixTuple, lam, tol=1e-5):
    """P A2^2 P = ((z'' + 2 lam^3 x'^2 - lam^2 x'') / 2 lam) P at lam != 0.

    x', x'' are the branch derivatives for (A1, A2) and z'' the second
    derivative of the matched branch for (A1, A1 A2); branches are matched
    through z'(0) = lam * x'(0).
    """
    ax, az = _product_pair_analyses(t, lam, "square")
    return _product_pair_reports(ax, az, tol)[1]


_PAIR_NAMES = ("(A1, A2)", "(A1, A1*A2)")


def _gated_branches(t: MatrixTuple, lv, pair, t_max, samples, ladder):
    """Branches of t at lv; HypothesisNotMet unless they are regular."""
    rep = check_regularity(t, lv, [1.0], t_max=t_max, samples=samples, ladder=ladder)
    if rep.condition_a and rep.condition_b:
        return rep.branches
    detail = f": {rep.failure or 'conditions a/b'}" if pair == 0 else ""
    raise HypothesisNotMet(
        f"regularity fails at lambda={lv} for {_PAIR_NAMES[pair]}{detail}; "
        f"pass check_hypotheses=False to report residuals without a claim"
    )


def verify_pair(
    t: MatrixTuple,
    lam=None,
    tol=1e-5,
    check_hypotheses=True,
    t_max=1e-2,
    samples=8,
):
    """Run every identity check for a pair, at one or all eigenvalues of A1.

    The slices of each pair are solved once (one slice_ladder per pair) and
    (A1, A2) and (A1, A1 A2) are tracked on them once per eigenvalue of A1.
    The regularity gate reads those branches at every eigenvalue of both
    pairs, also when lam is given, and the analyses at lam reuse them.  The
    projection ladders of every analysed branch of a pair come from one
    projection_ladders call, so each rung's eigensolve serves all of them.

    Raises NotNormalError for non-normal A1 and HypothesisNotMet when the
    regularity gate fails (unless check_hypotheses=False, in which case all
    reports carry passed=None).  The moments and the gate read branch
    derivatives, so samples < 5 raises ValueError.
    """
    if t.n != 2:
        raise ValueError("verify_pair is defined for pairs (n = 2)")
    if samples < 5:
        raise ValueError("verify_pair reads branch derivatives: it needs samples >= 5")
    a1, a2 = t.matrices
    res = spectral_resolution(a1)
    pairs = (t, MatrixTuple([a1, a1 @ a2]))
    eigs = res.eigenvalues
    ladders = [slice_ladder(tt, [1.0], t_max=t_max, samples=samples) for tt in pairs]
    if check_hypotheses:
        gated = [[_gated_branches(tt, lv, pair, t_max, samples, ladders[pair]) for lv in eigs]
                 for pair, tt in enumerate(pairs)]

    def tracked(pair, k):
        if check_hypotheses:
            return gated[pair][k]
        return local_branches(pairs[pair], eigs[k], [1.0], t_max=t_max,
                              samples=samples, ladder=ladders[pair])

    ks = range(len(eigs)) if lam is None else [res.index_of(lam)]
    # (A1, A1 A2) is analysed at the nonzero eigenvalues only
    wanted = (ks, [k for k in ks if abs(eigs[k]) > 1e-12])
    analyses = []
    for pair, tt in enumerate(pairs):
        sets = {k: tracked(pair, k) for k in wanted[pair]}
        lads = iter(projection_ladders(tt, [b for bs in sets.values() for b in bs]))
        analyses.append({k: _analysis(tt, bs, [next(lads) for _ in bs], res)
                         for k, bs in sets.items()})

    reports = []
    for k in ks:
        ax = analyses[0][k]
        reports.extend(verify_orthogonality_and_resolution(ax.limits, res, ax.lam, tol=tol))
        for i in range(len(ax.limits)):
            for j in range(len(ax.limits)):
                if i != j:
                    reports.append(verify_cross_moment_zero(ax.limits[i], ax.limits[j], a2, tol=tol))
        t_op = t_operator(res, ax.lam)
        for b, lp in zip(ax.branches, ax.limits):
            if b.multiplicity == 1:
                reports.append(verify_first_moment(lp, a2, b.d1, tol=tol))
                reports.append(verify_second_moment(lp, a2, t_op, b.d2, tol=tol))
        reports.extend(verify_prime_relations(ax.limits, a1, a2, ax.branches, tol=tol))
        if k in analyses[1]:
            try:
                reports.extend(_product_pair_reports(ax, analyses[1][k], tol))
            except HypothesisNotMet:
                if check_hypotheses:
                    raise
                # run-anyway mode: these identities have no meaning for
                # repeated branches, so they are skipped rather than reported

    if not check_hypotheses:
        reports = [
            RelationReport(r.relation_id, r.lam, r.branch_indices, r.residual, r.tolerance, None)
            for r in reports
        ]
    return reports
