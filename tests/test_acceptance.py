"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import sys
import time
from functools import wraps

import numpy as np

import jointspec as js
from jointspec.fixtures import (
    blowup_demo_pair,
    commuting_diagonal_pair,
    dihedral_pair,
    planted_tuple,
    regular_random_pair,
)

import oracles
from oracles import eigenprojection_direct, pencil_root_near
from slices import e1_line_roots

ALPHAS = [math.pi / 3, math.pi / 4, math.pi / 5, 2 * math.pi / 5, math.pi / 2]


def criterion(label):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL", file=sys.stderr, flush=True)
                raise
            print(f"ACCEPTANCE {label}: PASS", file=sys.stderr, flush=True)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared random-instance suite (criterion 4 constraints; reused by 5 and 6)
# ---------------------------------------------------------------------------

_SUITE = None


def random_suite():
    """20 seeded instances, N in {4..8}, rejection-sampled for regularity."""
    global _SUITE
    if _SUITE is None:
        instances = []
        for k in range(20):
            dim = 4 + k % 5
            zero = k % 4 == 0
            tup, seed = regular_random_pair(100 + k, dim, zero_eigenvalue=zero)
            instances.append((tup, seed, zero))
        _SUITE = instances
    return _SUITE


def analyses_for(tup):
    """PairAnalysis at every eigenvalue of A1."""
    eigenvalues = js.spectral_resolution(tup.matrices[0]).eigenvalues
    return [js.analyze_pair(tup, lam) for lam in eigenvalues]


@criterion("1 (counterexample reproduction)")
def test_criterion_1_nonnormal_counterexample():
    start = time.monotonic()
    tup = blowup_demo_pair()
    branches = js.local_branches(tup, 1.0, [1.0], t_max=0.1, samples=10)
    branch = [b for b in branches if abs(b.d1 + 1.0) < 1e-6][0]
    cp = js.component_projection(tup, branch, 0.1)
    err = np.max(np.abs(cp.matrix - np.array([[1.0, 4.5], [0.0, 0.0]])))
    assert err <= 1e-10
    # fitted blow-up exponent over the ladder t in [1e-4, 1e-1]
    profile = oracles.projection_norm_profile(tup, branch)
    ts = [t for t, _ in profile.points]
    assert max(ts) <= 1e-1 + 1e-12 and min(ts) >= 1e-4
    assert abs(profile.exponent + 1.0) <= 0.05
    assert time.monotonic() - start < 1.0


@criterion("2 (dihedral spectrum catalog)")
def test_criterion_2_catalog():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for alpha in ALPHAS:
        c = math.cos(alpha)
        g1, g2 = dihedral_pair(alpha).matrices
        pair_xy = js.MatrixTuple([g1, g2])
        pair_z = js.MatrixTuple([g1, g1 @ g2])
        for pair, poly in (
            (pair_xy, lambda x1, x2: x1 * x1 + 2 * c * x1 * x2 + x2 * x2 - 1.0),
            (pair_z, lambda x1, x2: x1 * x1 - x2 * x2 + 2 * c * x2 - 1.0),
        ):
            count = 0
            while count < 200:
                x2 = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
                for x1 in e1_line_roots(pair, [x2])[0]:
                    assert abs(poly(x1, x2)) <= 1e-9
                    count += 1
    assert time.monotonic() - start < 5.0


@criterion("3 (branch derivatives)")
def test_criterion_3_branch_derivatives():
    for alpha in ALPHAS:
        c = math.cos(alpha)
        tup = dihedral_pair(alpha)
        b = js.local_branches(tup, 1.0, [1.0])[0]
        assert abs(b.d1 - (-c)) <= 1e-7
        assert abs(b.d2 - (-1.0 + c * c)) <= 1e-7
        a1, a2 = tup.matrices
        zb = js.local_branches(js.MatrixTuple([a1, a1 @ a2]), 1.0, [1.0])[0]
        assert abs(zb.d2 - (1.0 - c * c)) <= 1e-7


@criterion("4 (first and second moment identities)")
def test_criterion_4_moment_relations():
    start = time.monotonic()
    zero_case_seen = 0
    for tup, seed, zero in random_suite():
        a2 = tup.matrices[1]
        for ax in analyses_for(tup):
            t_op = js.t_operator(ax.resolution, ax.lam)
            for b, lp in zip(ax.branches, ax.limits):
                r1 = oracles.verify_first_moment(lp, a2, b.d1, tol=1e-5)
                r2 = oracles.verify_second_moment(lp, a2, t_op, b.d2, tol=1e-5)
                assert r1.residual <= 1e-5, (seed, ax.lam, r1.residual)
                assert r2.residual <= 1e-5, (seed, ax.lam, r2.residual)
                if b.kind == "zero":
                    zero_case_seen += 1
                    assert r1.relation_id == "first_moment_zero_case"
                    assert r2.relation_id == "second_moment_zero_case"
    assert zero_case_seen >= 5
    assert time.monotonic() - start < 60.0


@criterion("5 (orthogonality and resolution of projections)")
def test_criterion_5_orthogonality_resolution():
    fixtures = [commuting_diagonal_pair(), dihedral_pair(math.pi / 3)]
    for tup in fixtures:
        for ax in analyses_for(tup):
            for r in oracles.verify_orthogonality_and_resolution(
                ax.limits, ax.resolution, ax.lam, tol=1e-7
            ):
                assert r.residual <= 1e-7
    for tup, seed, _ in random_suite():
        for ax in analyses_for(tup):
            for r in oracles.verify_orthogonality_and_resolution(
                ax.limits, ax.resolution, ax.lam, tol=1e-7
            ):
                assert r.residual <= 1e-7, (seed, ax.lam, r.relation_id, r.residual)


@criterion("6 (same-projection and square identities)")
def test_criterion_6_lemma_and_square():
    for tup, seed, _ in random_suite():
        lemma = oracles.verify_same_projection_lemma(tup, 1.0, tol=1e-5)
        square = oracles.verify_square_relation(tup, 1.0, tol=1e-5)
        assert lemma.residual <= 1e-5, (seed, lemma.residual)
        assert square.residual <= 1e-5, (seed, square.residual)
    # involutive-A2 dihedral fixtures reproduce coefficient 1 exactly
    for alpha in (math.pi / 3, 2 * math.pi / 5):
        square = oracles.verify_square_relation(dihedral_pair(alpha), 1.0, tol=1e-8)
        assert square.residual <= 1e-8
        lemma = oracles.verify_same_projection_lemma(dihedral_pair(alpha), 1.0, tol=1e-7)
        assert lemma.residual <= 1e-7


def _coxeter_cases():
    cases = []
    for m, summands in (
        (3, [js.DihedralIrrep("two_dim", 2 * math.pi / 3), "one_dim_pp"]),
        (4, [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"]),
        (5, [js.DihedralIrrep("two_dim", 2 * math.pi / 5),
             js.DihedralIrrep("two_dim", 4 * math.pi / 5)]),
    ):
        cm = js.dihedral(m)
        rep = js.build_representation(cm, summands)
        rng = np.random.default_rng(40 + m)
        b1 = np.diag([0.3, -0.22 + 0.1j])
        b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b2 = 0.3 * b2 / js.opnorm(b2)
        cases.append((f"dihedral m={m}", planted_tuple(rep, [b1, b2], seed=m), rep))
    cm = js.CoxeterMatrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    rep = js.CoxeterRep(cm=cm, generators=tuple(js.geometric_representation(cm)))
    rng = np.random.default_rng(77)
    blocks = [np.diag([0.28, -0.2 + 0.12j, 0.1 - 0.3j])]
    for _ in range(2):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        blocks.append(0.3 * b / js.opnorm(b))
    cases.append(("type A3", planted_tuple(rep, blocks, seed=11), rep))
    return cases


@criterion("7 (Coxeter rigidity end-to-end)")
def test_criterion_7_rigidity():
    start = time.monotonic()
    for name, tup, rep in _coxeter_cases():
        rig = js.rigidity_check(tup, rep, seed=1)
        assert all(rig.condition_star.values()), name
        assert rig.condition_I, name
        assert all(rig.condition_II.values()), name
        assert rig.norms_ok and rig.applicable, name
        assert rig.dim_L == rep.dim, name
        rr = rig.restriction
        assert max(rr.unitary_residuals) <= 1e-7, name
        assert max(rr.selfadjoint_residuals) <= 1e-7, name
        assert max(rr.relation_residuals.values()) <= 1e-7, name
        assert max(rig.invariance_residuals) <= 1e-7, name
        assert rr.exponents_ok and rr.recovered_orders == rr.expected_orders, name
        assert rr.spectra_match, name
        assert rig.equivalence.max_discrepancy <= 1e-6, name

    # negative control: duplicated irrep flips exactly condition (*)
    cm = js.dihedral(5)
    dup = js.build_representation(cm, [js.DihedralIrrep("two_dim", 2 * math.pi / 5)] * 2)
    rng = np.random.default_rng(9)
    b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    tup = planted_tuple(dup, [np.diag([0.3, -0.25]), 0.3 * b2 / js.opnorm(b2)], seed=13)
    rig = js.rigidity_check(tup, dup, seed=2)
    assert rig.condition_star == {2: False}
    assert rig.condition_I and all(rig.condition_II.values())
    assert not rig.applicable

    # negative control: planted sheet through a zeta-ball flips exactly (II) there
    cm = js.dihedral(4)
    rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"])
    tup = planted_tuple(rep, [np.diag([0.3, -0.22]), np.diag([0.925, 0.2])], seed=17)
    rig = js.rigidity_check(tup, rep, seed=3)
    assert all(rig.condition_star.values()) and rig.condition_I
    assert rig.condition_II[(2, 1)] is False
    assert all(ok for key, ok in rig.condition_II.items() if key != (2, 1))

    assert time.monotonic() - start < 120.0


def _block_with_trivial(alpha):
    g1, g2 = dihedral_pair(alpha).matrices
    z = np.zeros((2, 1))
    a1 = np.block([[g1, z], [z.T, np.eye(1)]])
    a2 = np.block([[g2, z], [z.T, np.eye(1)]])
    return js.MatrixTuple([a1, a2])


@criterion("8 (extrapolation agrees with direct eigenprojection)")
def test_criterion_8_oracle_equivalence():
    fixtures = []
    for alpha in ALPHAS:
        fixtures.append((dihedral_pair(alpha), 1.0))
        fixtures.append((dihedral_pair(alpha), -1.0))
    fixtures.append((commuting_diagonal_pair(), 1.0))
    fixtures.append((_block_with_trivial(math.pi / 3), 1.0))
    tt = 1e-6
    for tup, lam in fixtures:
        a1, rest = tup.matrices[0], tup.matrices[1]
        for b in js.local_branches(tup, lam, [1.0]):
            assert b.multiplicity == 1
            lp = js.limit_projection(tup, b)
            # independent route: generalized eigensolve for the branch value,
            # then a left/right eigenvector projection at t = 1e-6; the
            # first-order prediction only selects which root is this branch
            x1 = pencil_root_near(a1, rest, tt, 1.0 / b.lam + b.d1 * tt)
            m = x1 * a1 + tt * rest
            evs = np.linalg.eigvals(m)
            center = 1.0
            target = evs[np.argmin(np.abs(evs - center))]
            direct = eigenprojection_direct(m, target, 1e-8)
            assert js.opnorm(lp.matrix - direct) <= 1e-6, (lam, b.index)
