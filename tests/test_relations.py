"""Tests for the projection identity verifications."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jointspec as js
from jointspec import branches, extrapolate, fixtures, pencil, relations
from jointspec.coxeter import random_unitary
from jointspec.fixtures import (
    blowup_demo_pair,
    commuting_diagonal_pair,
    dihedral_pair,
    random_normal_pair,
    regular_random_pair,
)

import oracles
from oracles import (
    eigenprojection_direct,
    first_order_eigenvalue_derivative,
    pencil_root_near,
    quadratic_fit_d2,
)
from slices import count_solves, count_tracking


def analysis(t, lam, **kw):
    return js.analyze_pair(t, lam, **kw)


def block_pair_with_trivial_summand(alpha):
    # 3x3 oracle: dihedral 2-dim irrep ⊕ the trivial 1-dim irrep; the two
    # limit projections at lambda = 1 are e1 e1* and e3 e3* by construction
    g1, g2 = dihedral_pair(alpha).matrices
    z = np.zeros((2, 1))
    a1 = np.block([[g1, z], [z.T, np.eye(1)]])
    a2 = np.block([[g2, z], [z.T, np.eye(1)]])
    return js.MatrixTuple([a1, a2])


class TestOrthogonalityAndResolution:
    def test_commuting_diagonal_exact(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        reports = oracles.verify_orthogonality_and_resolution(ax.limits, ax.resolution, 1.0, tol=1e-10)
        assert {r.relation_id for r in reports} == {"orthogonality", "resolution"}
        assert all(r.residual <= 1e-10 and r.passed for r in reports)

    def test_block_sum_with_trivial_irrep(self):
        t = block_pair_with_trivial_summand(np.pi / 3)
        ax = analysis(t, 1.0)
        assert len(ax.limits) == 2
        reports = oracles.verify_orthogonality_and_resolution(ax.limits, ax.resolution, 1.0, tol=1e-8)
        assert all(r.residual <= 1e-8 for r in reports)
        mats = sorted((lp.matrix for lp in ax.limits), key=lambda m: m[0, 0].real)
        e3 = np.zeros((3, 3)); e3[2, 2] = 1.0
        e1 = np.zeros((3, 3)); e1[0, 0] = 1.0
        assert_allclose(mats[1], e1, atol=1e-8)
        assert_allclose(mats[0], e3, atol=1e-8)

    def test_single_branch_matches_eigenprojection(self):
        t = dihedral_pair(1.2)
        ax = analysis(t, 1.0)
        reports = oracles.verify_orthogonality_and_resolution(ax.limits, ax.resolution, 1.0, tol=1e-8)
        res_report = [r for r in reports if r.relation_id == "resolution"][0]
        assert res_report.residual <= 1e-8

    def test_mismatched_directions_rejected(self):
        t = js.MatrixTuple([np.diag([1.0, -1.0, 0.3]),
                            np.diag([0.5, 0.2, 0.1]), np.diag([0.1, 0.7, 0.4])])
        a = js.limit_projection(t, js.local_branches(t, 1.0, [1.0, 0.0])[0])
        b = js.limit_projection(t, js.local_branches(t, 1.0, [0.0, 1.0])[0])
        with pytest.raises(ValueError):
            oracles.verify_orthogonality_and_resolution([a, b], js.spectral_resolution(t.matrices[0]), 1.0)


class TestCrossMomentZero:
    def test_commuting_diagonal_exact(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        r = oracles.verify_cross_moment_zero(ax.limits[0], ax.limits[1], t.matrices[1], tol=1e-12)
        assert r.residual <= 1e-12

    def test_two_one_dim_irreps(self):
        # rho(g1) = rho(g2) = I summed with rho(g1) = I, rho(g2) = -I
        t = js.MatrixTuple([np.eye(2), np.diag([1.0, -1.0])])
        ax = analysis(t, 1.0)
        r = oracles.verify_cross_moment_zero(ax.limits[0], ax.limits[1], t.matrices[1], tol=1e-10)
        assert r.residual <= 1e-10

    def test_random_instance_against_small_t_oracle(self):
        t, _ = regular_random_pair(17, 4)
        a1, a2 = t.matrices
        ax = analysis(t, 1.0)
        assert len(ax.limits) == 2
        r = oracles.verify_cross_moment_zero(ax.limits[0], ax.limits[1], a2, tol=1e-6)
        assert r.residual <= 1e-6
        # independent oracle: continue each eigenprojection to t = 1e-6 directly
        tt = 1e-6
        direct = []
        for b in ax.branches:
            x1 = b.lam ** -1 + b.d1 * tt + 0.5 * b.d2 * tt**2
            m = x1 * a1 + tt * a2
            evs = np.linalg.eigvals(m)
            target = evs[np.argmin(np.abs(evs - 1.0))]
            direct.append(eigenprojection_direct(m, target, 1e-9))
        assert js.opnorm(direct[1] @ a2 @ direct[0]) <= 1e-5

    def test_same_index_rejected(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        with pytest.raises(ValueError):
            oracles.verify_cross_moment_zero(ax.limits[0], ax.limits[0], t.matrices[1])


class TestFirstMoment:
    def test_dihedral(self):
        t = dihedral_pair(np.pi / 3)
        ax = analysis(t, 1.0)
        r = oracles.verify_first_moment(ax.limits[0], t.matrices[1], ax.branches[0].d1, tol=1e-8)
        assert r.residual <= 1e-8

    def test_line_component(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        for b, lp in zip(ax.branches, ax.limits):
            r = oracles.verify_first_moment(lp, t.matrices[1], b.d1, tol=1e-9)
            assert r.residual <= 1e-9

    def test_zero_eigenvalue_case_with_perturbation_oracle(self):
        rng = np.random.default_rng(2)
        a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = js.MatrixTuple([np.diag([0.0, 2.0]), a2])
        ax = analysis(t, 0.0)
        b = ax.branches[0]
        assert abs(b.d1 - first_order_eigenvalue_derivative(a2, 0)) <= 1e-6
        r = oracles.verify_first_moment(ax.limits[0], a2, b.d1, tol=1e-6)
        assert r.relation_id == "first_moment_zero_case"
        assert r.residual <= 1e-6

    def test_multiplicity_gate(self):
        t = js.MatrixTuple([np.diag([1.0, 1.0]), np.eye(2)])
        b = js.local_branches(t, 1.0, [1.0])[0]
        lp = js.limit_projection(t, b)
        with pytest.raises(js.HypothesisNotMet):
            oracles.verify_first_moment(lp, t.matrices[1], b.d1)

    def test_slope_recovered_by_minimization(self):
        # the scalar c minimizing ||P A2 P - c P|| recovers the branch slope
        t = dihedral_pair(0.7)
        for lam in (1.0, -1.0):
            ax = analysis(t, lam)
            b, lp = ax.branches[0], ax.limits[0]
            c = np.trace(lp.matrix @ t.matrices[1] @ lp.matrix) / np.trace(lp.matrix)
            assert abs(c - (-b.lam * b.d1)) <= 1e-6
            if abs(lam - 1.0) < 1e-12:
                assert abs(c - (-b.d1)) <= 1e-6


class TestSecondMoment:
    def test_dihedral_direct_arithmetic(self):
        alpha = np.pi / 3
        t = dihedral_pair(alpha)
        ax = analysis(t, 1.0)
        t_op = js.t_operator(ax.resolution, 1.0)
        assert_allclose(t_op.matrix, np.diag([0.0, 0.5]), atol=1e-12)
        p = ax.limits[0].matrix
        lhs = p @ t.matrices[1] @ t_op.matrix @ t.matrices[1] @ p
        assert_allclose(lhs, (np.sin(alpha) ** 2 / 2.0) * p, atol=1e-8)
        r = oracles.verify_second_moment(ax.limits[0], t.matrices[1], t_op, ax.branches[0].d2, tol=1e-8)
        assert r.residual <= 1e-8

    def test_commuting_diagonal_both_sides_zero(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        t_op = js.t_operator(ax.resolution, 1.0)
        for b, lp in zip(ax.branches, ax.limits):
            r = oracles.verify_second_moment(lp, t.matrices[1], t_op, b.d2, tol=1e-9)
            assert r.residual <= 1e-9

    def test_random_instance_with_quadratic_fit_oracle(self):
        t, _ = regular_random_pair(23, 5)
        a1, a2 = t.matrices
        ax = analysis(t, 1.0)
        t_op = js.t_operator(ax.resolution, 1.0)
        for b, lp in zip(ax.branches, ax.limits):
            r = oracles.verify_second_moment(lp, a2, t_op, b.d2, tol=1e-5)
            assert r.residual <= 1e-5
            # oracle: d2 from a plain quadratic fit at t in {1e-3, 5e-4, 2.5e-4}
            ts = np.array([1e-3, 5e-4, 2.5e-4])
            vals = [pencil_root_near(a1, a2, tv, 1.0 / b.lam + b.d1 * tv + 0.5 * b.d2 * tv**2)
                    for tv in ts]
            d2_fit = quadratic_fit_d2(ts, vals, 1.0 / b.lam)
            assert abs(d2_fit - b.d2) <= 5e-4  # fit truncation is O(d3 * t)
            r2 = oracles.verify_second_moment(lp, a2, t_op, d2_fit, tol=1e-3)
            assert r2.residual <= 1e-3


class TestPrimeRelations:
    def test_dihedral_all_four(self):
        t = dihedral_pair(np.pi / 3)
        ax = analysis(t, 1.0)
        reports = oracles.verify_prime_relations(ax.limits, *t.matrices, ax.branches, tol=1e-6)
        assert len(reports) == 4
        assert all(r.residual <= 1e-6 for r in reports)

    def test_commuting_diagonal_reduce_to_zero(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        reports = oracles.verify_prime_relations(ax.limits, *t.matrices, ax.branches, tol=1e-8)
        assert all(r.residual <= 1e-8 for r in reports)

    def test_two_line_variant(self):
        t = commuting_diagonal_pair()
        ax = analysis(t, 1.0)
        reports = oracles.verify_prime_relations(ax.limits, *t.matrices, ax.branches, tol=1e-6)
        assert {r.relation_id for r in reports} == {
            "prime_relation_1", "prime_relation_2", "prime_relation_3", "prime_relation_4"
        }
        assert all(r.residual <= 1e-6 for r in reports)

    def test_zero_kind_relations(self):
        rng = np.random.default_rng(4)
        a2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a2 /= js.opnorm(a2)
        t = js.MatrixTuple([np.diag([0.0, 1.5, -2.0]), a2])
        ax = analysis(t, 0.0)
        reports = oracles.verify_prime_relations(ax.limits, *t.matrices, ax.branches, tol=1e-6)
        assert all(r.residual <= 1e-6 for r in reports)


class TestSameProjectionLemma:
    def test_dihedral(self):
        r = oracles.verify_same_projection_lemma(dihedral_pair(np.pi / 3), 1.0, tol=1e-7)
        assert r.residual <= 1e-7

    def test_commuting_diagonal(self):
        r = oracles.verify_same_projection_lemma(commuting_diagonal_pair(), 1.0, tol=1e-9)
        assert r.residual <= 1e-9

    def test_random_instance_with_small_t_oracle(self):
        t, _ = regular_random_pair(29, 4)
        r = oracles.verify_same_projection_lemma(t, 1.0, tol=1e-5)
        assert r.residual <= 1e-5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            oracles.verify_same_projection_lemma(commuting_diagonal_pair(), 0.0)


class TestSquareRelation:
    def test_dihedral_coefficient_is_one(self):
        # ((1-c^2) + 2c^2 - (-1+c^2)) / 2 = 1 by direct substitution
        for alpha in (np.pi / 3, np.pi / 5):
            c = np.cos(alpha)
            coeff = ((1 - c**2) + 2 * c**2 - (-1 + c**2)) / 2.0
            assert abs(coeff - 1.0) <= 1e-15
            r = oracles.verify_square_relation(dihedral_pair(alpha), 1.0, tol=1e-8)
            assert r.residual <= 1e-8

    def test_commuting_diagonal_involutive(self):
        r = oracles.verify_square_relation(commuting_diagonal_pair(), 1.0, tol=1e-9)
        assert r.residual <= 1e-9

    def test_random_non_involutive(self):
        t, _ = regular_random_pair(31, 4)
        r = oracles.verify_square_relation(t, 1.0, tol=1e-5)
        assert r.residual <= 1e-5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            oracles.verify_square_relation(commuting_diagonal_pair(), 0.0)


class TestVerifyPair:
    def test_dihedral_full_pass(self):
        reports = js.verify_pair(dihedral_pair(np.pi / 3), tol=1e-6)
        assert len(reports) > 0
        assert all(r.passed for r in reports)

    def test_fewer_than_five_samples_refused(self):
        with pytest.raises(ValueError, match="samples >= 5"):
            js.verify_pair(dihedral_pair(np.pi / 3), samples=4)

    def test_nonnormal_refused(self):
        with pytest.raises(js.NotNormalError):
            js.verify_pair(blowup_demo_pair())

    def test_irregular_instance_refused_then_flagged(self):
        # the refusal names the eigenvalue and the pair, and its hint is
        # check_regularity, which flags the failed conditions
        t = js.MatrixTuple([np.diag([1.0, 1.0]), np.eye(2)])
        with pytest.raises(js.HypothesisNotMet) as exc:
            js.verify_pair(t)
        assert str(exc.value) == (
            "regularity fails at lambda=(1+0j) for (A1, A2): conditions a/b; check_regularity "
            "reports conditions a/b, the gaps and the failure at every eigenvalue")
        (report,) = js.check_regularity(t, [1.0])
        assert not report.condition_a and report.lam == 1.0

    @pytest.mark.parametrize("lam", [None, 0.0, 1.0])
    def test_mixed_kinds_with_a_repeated_branch_refused(self, lam, monkeypatch):
        # the simple zero-kind branch at 0 is regular and the double at 1 is
        # not; the gate covers every eigenvalue of A_1, so even lam=0 is
        # refused at 1, before any rung projection is made
        t = js.MatrixTuple([np.diag([0.0, 1.0, 1.0]), np.eye(3)])
        zero, one = js.check_regularity(t, [1.0])
        assert zero.lam == 0 and zero.condition_a and zero.condition_b
        assert one.lam == 1 and not one.condition_a and not one.condition_b
        solves = count_solves(monkeypatch)
        with pytest.raises(js.HypothesisNotMet, match=r"lambda=\(1\+0j\) for \(A1, A2\)"):
            js.verify_pair(t, lam=lam)
        assert solves["rank1"] == [] and solves["schur"] == 0

    def test_scaling_consistency(self):
        # replacing A1 by A1/lam maps the lam-analysis to the 1-analysis
        t, _ = regular_random_pair(41, 4)
        a1, a2 = t.matrices
        res = js.spectral_resolution(a1)
        lam = max(res.eigenvalues, key=lambda z: abs(z - 1.0))
        scaled = js.MatrixTuple([a1 / lam, a2])
        orig = {r.relation_id: r.residual
                for r in js.verify_pair(t, lam=lam, tol=1e-5)}
        rescaled = {r.relation_id: r.residual
                    for r in js.verify_pair(scaled, lam=1.0, tol=1e-5)}
        assert orig.keys() == rescaled.keys()
        for key in orig:
            assert abs(orig[key] - rescaled[key]) <= 1e-8


@lru_cache(maxsize=1)
def _random_regular_pair():
    return regular_random_pair(17, 4)[0]


class TestUnitaryConjugation:
    # U A1 U*, U A2 U* have the same branches and conjugated projections, so
    # every relation residual is invariant in exact arithmetic; measured
    # shifts are at most about 5e-8, against the tolerance 1e-5
    @settings(deadline=None, max_examples=6)
    @given(st.booleans(), st.floats(0.3, 2.8), st.integers(0, 2**16))
    def test_relation_reports_invariant(self, random_pair, angle, seed):
        t = _random_regular_pair() if random_pair else dihedral_pair(angle)
        u = random_unitary(t.dim, np.random.default_rng(seed))
        conj = js.MatrixTuple([u @ m @ u.conj().T for m in t.matrices])
        before = js.verify_pair(t)
        after = js.verify_pair(conj)
        assert ([(r.relation_id, r.branch_indices, r.passed) for r in before]
                == [(r.relation_id, r.branch_indices, r.passed) for r in after])
        assert all(r.passed and r.residual <= r.tolerance for r in before + after)


class TestOneAnalysisPerEigenvalue:
    @pytest.fixture
    def work(self, monkeypatch):
        """The tracks of every eigenvalue tracked (one entry of a branches._tracks
        pass each, from check_regularity or the relations layer), and the
        branches of each rung stack the relations layer projects (_rung_stack)."""
        counts = {"tracked": [], "ladders": []}
        passes, ladders = branches._tracks, relations._rung_stack

        def counted_pass(*args):
            out = passes(*args)
            counts["tracked"].extend(entry[3] for entry in out)
            return out

        def counted_ladders(t, bs):
            counts["ladders"].append(list(bs))
            return ladders(t, bs)

        monkeypatch.setattr(branches, "_tracks", counted_pass)
        monkeypatch.setattr(relations, "_rung_stack", counted_ladders)
        return counts

    def test_each_pair_tracked_once_per_eigenvalue(self, work):
        t, _ = regular_random_pair(17, 4)
        work["tracked"].clear()  # the fixture's own regularity checks
        eigs = js.spectral_resolution(t.matrices[0]).eigenvalues
        assert all(abs(lv) > 1e-12 for lv in eigs)
        js.verify_pair(t)
        assert len(work["tracked"]) == 2 * len(eigs)
        # every eigenvalue is nonzero: one rung stack per pair
        # takes the branches of all its eigenvalues
        assert [len(bs) for bs in work["ladders"]] == [
            sum(len(tracks) for tracks in work["tracked"][:len(eigs)]),
            sum(len(tracks) for tracks in work["tracked"][len(eigs):]),
        ]

    def test_gate_covers_every_eigenvalue_when_lam_is_given(self, work):
        t, _ = regular_random_pair(17, 4)
        work["tracked"].clear()  # the fixture's own regularity checks
        eigs = js.spectral_resolution(t.matrices[0]).eigenvalues
        js.verify_pair(t, lam=1.0)
        assert len(work["tracked"]) == 2 * len(eigs)
        ladders = work["ladders"]
        a1, a2 = t.matrices
        assert ladders == [js.local_branches(t, 1.0, [1.0]),
                           js.local_branches(js.MatrixTuple([a1, a1 @ a2]), 1.0, [1.0])]

    @pytest.mark.parametrize("lam", [None, 1.0])
    def test_only_the_planted_double_is_clustered(self, lam, monkeypatch):
        # every simple eigenvalue takes its root column; the double at 1 is
        # clustered at each of the 8 rungs, once per pair, and the spectral
        # resolution and the reference spectrum cluster A_1 once each
        t, _ = regular_random_pair(17, 4)
        counts = count_tracking(monkeypatch)
        js.verify_pair(t, lam=lam)
        assert counts == {"pass": [3, 3], "track": 2, "cluster": 2 + 2 * 8}

    @pytest.mark.parametrize("lam", [None, 1.0])
    def test_gate_computes_no_residuals_and_classifies_once_per_call(self, lam, monkeypatch):
        # both pairs take the kinds of A1's eigenvalues from one reference
        # spectrum, and nothing reads the residuals of the gated branches
        t, _ = regular_random_pair(5, 8)
        calls = []
        for mod, name in ((branches, "_branch_residuals"), (branches, "_reference_spectrum"),
                          (relations, "_reference_spectrum")):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        js.verify_pair(t, lam=lam)
        assert calls == ["_reference_spectrum"]

    @pytest.mark.parametrize("lam", [None, 1.0])
    def test_one_norm_and_one_eigensolve_of_a1(self, lam, monkeypatch):
        t, _ = regular_random_pair(100, 4, zero_eigenvalue=True)
        a1 = t.matrices[0]
        calls = []

        def count(mod, name):
            fn = getattr(mod, name)

            def counted(m, *args, **kwargs):
                m = np.asarray(m)
                if m.shape == a1.shape and np.array_equal(m, a1):
                    calls.append(name)
                return fn(m, *args, **kwargs)

            monkeypatch.setattr(mod, name, counted)

        for mod in (pencil, branches, relations):
            count(mod, "opnorm")
        count(np.linalg, "eigvals")
        js.verify_pair(t, lam=lam)
        assert sorted(calls) == ["eigvals", "opnorm"]

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The number of series of every stacked richardson_limit call."""
        calls = []
        limit = extrapolate.richardson_limit

        def counted(ts, values):
            calls.append(len(values))
            return limit(ts, values)

        monkeypatch.setattr(extrapolate, "richardson_limit", counted)
        return calls

    @staticmethod
    def expected_stacks(t, lam):
        """Series per stacked call of verify_pair(t, lam): d1 and d2 of every
        branch at every eigenvalue of each pair (the gate), then P and P'(0)
        of every analysed branch of both pairs."""
        a1, a2 = t.matrices
        eigs = js.spectral_resolution(a1).eigenvalues
        counts = [[len(js.local_branches(tt, lv, [1.0])) for lv in eigs]
                  for tt in (t, js.MatrixTuple([a1, a1 @ a2]))]
        ks = range(len(eigs)) if lam is None else [int(np.argmin(np.abs(eigs - lam)))]
        analysed = [ks, [k for k in ks if abs(eigs[k]) > 1e-12]]
        gated = [sum(c) for c in counts]
        limits = sum(counts[pair][k] for pair in (0, 1) for k in analysed[pair])
        return [gated[0], gated[0], gated[1], gated[1], limits, limits]

    def test_each_limit_and_derivative_extrapolated_once(self, stacks):
        t = dihedral_pair(np.pi / 3)
        want = self.expected_stacks(t, None)
        stacks.clear()
        js.verify_pair(t)
        # two pairs x two eigenvalues x one branch: d1, d2, P and P'(0) each,
        # in six stacked calls
        assert sum(stacks) == 16
        assert stacks == want == [2, 2, 2, 2, 4, 4]
        ax = analysis(t, 1.0)
        stacks.clear()
        oracles.verify_prime_relations(ax.limits, *t.matrices, ax.branches)
        assert stacks == []

    @pytest.mark.parametrize("args, kwargs, lam", [
        ((100, 4), {"zero_eigenvalue": True}, None),
        ((5, 8), {}, None),
        ((5, 8), {}, 1.0),
    ])
    def test_six_stacked_calls_per_verify_pair(self, stacks, args, kwargs, lam):
        t, _ = regular_random_pair(*args, **kwargs)
        want = self.expected_stacks(t, lam)
        stacks.clear()
        js.verify_pair(t, lam=lam)
        assert stacks == want

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every slice eigensolve and projection kernel call (slices.count_solves)."""
        return count_solves(monkeypatch)

    @staticmethod
    def assert_two_svd_stacks(svd, rank1):
        """A verify_pair call takes two stacked SVDs: the limits' idempotency
        (one matrix per analysed branch of both pairs), then the reports';
        none over the rung projections, whose norms the rank-1 kernel gives."""
        assert len(svd) == 2 and svd[0] == sum(rank1) // 8

    @pytest.mark.parametrize("make, lam, rank1", [
        (lambda: regular_random_pair(5, 8)[0], None, [64, 64]),
        (lambda: regular_random_pair(5, 8)[0], 1.0, [16, 16]),
        (lambda: regular_random_pair(2, 32)[0], 1.0, [16, 16]),
        (lambda: dihedral_pair(np.pi / 3), None, [16, 16]),
    ], ids=["N8", "N8-lambda1", "N32-lambda1", "dihedral"])
    def test_one_slice_ladder_per_pair(self, solves, make, lam, rank1):
        # two pairs, one stack of eight rungs each, whatever the number of
        # eigenvalues: each solved for its roots once, for the gate and the
        # projections alike; every analysed (branch, rung) of a pair is one
        # matrix of the pair's one rank-1 kernel stack
        t = make()
        solves.update(ggev=[])
        js.verify_pair(t, lam=lam)
        self.assert_two_svd_stacks(solves.pop("svd"), rank1)
        assert solves == {"ggev": [8] * 2, "eigvals": [], "rank1": rank1, "schur": 0}

    @pytest.mark.parametrize("seed, dim, zero, lam, eigvals, rank1", [
        # two pairs, one kind: every branch at every eigenvalue shares each rung's solve
        (5, 16, False, None, [], [128, 128]),
        (7, 16, False, None, [], [128, 128]),
        # both kinds of both pairs, each solved once: (A1, A1 A2) is never
        # analysed at 0, and at lambda = 0 (A1, A2) is analysed at the zero
        # kind only
        (100, 4, True, None, [8, 8], [32, 24]),
        (100, 4, True, 0.0, [8, 8], [8]),
    ])
    def test_one_solve_per_pair_kind_and_rung(self, solves, seed, dim, zero, lam, eigvals,
                                              rank1):
        t, _ = regular_random_pair(seed, dim, zero_eigenvalue=zero)
        solves.update(ggev=[], eigvals=[])
        js.verify_pair(t, lam=lam)
        self.assert_two_svd_stacks(solves.pop("svd"), rank1)
        assert solves == {"ggev": [8] * 2, "eigvals": eigvals, "rank1": rank1, "schur": 0}

    @pytest.mark.parametrize("args, kwargs, eigvals", [
        ((5, 8), {}, []),
        ((100, 4), {"zero_eigenvalue": True}, [8, 8]),
    ])
    def test_fixture_solves_one_slice_ladder_per_pair(self, solves, monkeypatch, args, kwargs,
                                                      eigvals):
        tries = []
        draw = fixtures.random_normal_pair

        def counted(*args, **kwargs):
            tries.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(fixtures, "random_normal_pair", counted)
        regular_random_pair(*args, **kwargs)
        assert len(tries) == 1
        # the gate projects nothing and measures no residual
        assert solves == {"ggev": [8, 8], "eigvals": eigvals, "rank1": [], "schur": 0,
                          "svd": []}

    @pytest.mark.parametrize("args, lam", [((5, 8), 1.0), ((100, 4), 0.0)])
    def test_analyze_pair_solves_one_slice_stack(self, solves, args, lam):
        t, _ = regular_random_pair(*args, zero_eigenvalue=lam == 0.0)
        solves.update(ggev=[], eigvals=[])
        js.analyze_pair(t, lam)
        # one stacked SVD, the limits' idempotency: none over a rung projection
        want = {"ggev": [8], "eigvals": [], "rank1": [16], "svd": [2]} if lam else {
            "ggev": [], "eigvals": [8], "rank1": [8], "svd": [1]}
        assert solves == {**want, "schur": 0}

    @pytest.mark.parametrize("wrapper", [oracles.verify_same_projection_lemma,
                                         oracles.verify_square_relation])
    def test_product_pair_wrappers_solve_one_stack_per_pair(self, solves, wrapper):
        wrapper(dihedral_pair(np.pi / 3), 1.0)
        # each analysis' limit idempotency, then the two residuals of the pair
        assert solves == {"ggev": [8] * 2, "eigvals": [], "rank1": [8] * 2, "schur": 0,
                          "svd": [1, 1, 2]}

    @pytest.mark.parametrize("args, kwargs, accepted", [
        ((5, 8), {}, 50000),
        ((17, 4), {}, 170000),
        ((100, 4), {"zero_eigenvalue": True}, 1000000),
    ])
    def test_fixture_accepts_the_same_instance(self, args, kwargs, accepted):
        t, seed = regular_random_pair(*args, **kwargs)
        assert seed == accepted
        drawn = random_normal_pair(seed, args[1], **kwargs)
        assert all(np.array_equal(a, b) for a, b in zip(t.matrices, drawn.matrices))

    def test_wrapper_matches_verify_pair(self):
        t = dihedral_pair(np.pi / 3)
        inside = [r for r in js.verify_pair(t)
                  if r.relation_id == "same_projection_lemma" and abs(r.lam - 1.0) < 1e-12]
        assert inside == [oracles.verify_same_projection_lemma(t, 1.0)]


class TestToleranceInput:
    """A tol that is not a finite real > 0 is an input error in verify_pair
    and in every per-relation check of tests/oracles.py."""

    BAD = [0, 0.0, -1, -1e-5, float("nan"), float("inf"), True, 1e-5j]

    @pytest.mark.parametrize("tol", BAD)
    def test_verify_pair_refuses_before_any_solve(self, tol, monkeypatch):
        t, _ = regular_random_pair(5, 4)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a pencil before checking tol")

        for mod, name in ((pencil, "_ggev_stack"), (np.linalg, "eigvals"), (relations, "opnorm"),
                          (relations, "_spectral_resolution")):
            monkeypatch.setattr(mod, name, no_solve)
        with pytest.raises(ValueError, match="tol must be a finite real > 0"):
            js.verify_pair(t, lam=1.0, tol=tol)

    @pytest.mark.parametrize("tol", BAD)
    @pytest.mark.parametrize("check", [oracles.verify_same_projection_lemma,
                                       oracles.verify_square_relation])
    def test_product_pair_checks_refuse_before_any_analysis(self, check, tol, monkeypatch):
        # the blow-up pair's analysis fails (A1 is not normal), but the input
        # error comes first, with no analysis made
        t = blowup_demo_pair()
        with pytest.raises(js.NotNormalError):
            check(t, 1.0)
        calls = []
        analyze = relations.analyze_pair
        monkeypatch.setattr(relations, "analyze_pair",
                            lambda *a, **k: calls.append(a) or analyze(*a, **k))
        with pytest.raises(ValueError, match="tol must be a finite real > 0") as exc:
            check(t, 1.0, tol=tol)
        assert type(exc.value) is ValueError and calls == []

    @pytest.mark.parametrize("tol", BAD)
    def test_every_relation_check_refuses(self, tol):
        t = dihedral_pair(np.pi / 3)
        a1, a2 = t.matrices
        ax = analysis(t, 1.0)
        lp, b = ax.limits[0], ax.branches[0]
        checks = [
            lambda: oracles.verify_orthogonality_and_resolution(ax.limits, ax.resolution, 1.0, tol=tol),
            lambda: oracles.verify_first_moment(lp, a2, b.d1, tol=tol),
            lambda: oracles.verify_second_moment(lp, a2, js.t_operator(ax.resolution, 1.0), b.d2,
                                            tol=tol),
            lambda: oracles.verify_prime_relations(ax.limits, a1, a2, ax.branches, tol=tol),
            lambda: oracles.verify_same_projection_lemma(t, 1.0, tol=tol),
            lambda: oracles.verify_square_relation(t, 1.0, tol=tol),
        ]
        c = commuting_diagonal_pair()
        cx = analysis(c, 1.0)
        checks.append(lambda: oracles.verify_cross_moment_zero(cx.limits[0], cx.limits[1],
                                                          c.matrices[1], tol=tol))
        for check in checks:
            with pytest.raises(ValueError, match="tol must be a finite real > 0"):
                check()

    def test_good_tolerances_pass(self):
        t = dihedral_pair(np.pi / 3)
        for tol in (1e-5, 1, np.float64(1e-6)):
            assert all(r.passed for r in js.verify_pair(t, tol=tol))


class TestRefusalOrder:
    """A failure is raised where analysing one eigenvalue, one branch and one
    extrapolation at a time meets it first, with its class and message,
    although the extrapolations of a pair (or of both pairs) are stacked."""

    @pytest.fixture
    def corrupt(self, monkeypatch):
        """corrupt(name, call, series) puts alternating noise in place of the
        samples of those series in the stacked call number call of
        extrapolate.<name>, and returns the ExtrapolationError messages the
        one-series oracle gives for them, by series."""
        def install(name, call, series):
            fn, oracle = getattr(extrapolate, name), getattr(oracles, name)
            seen, messages = [], {}

            def patched(ts, values, *v0):
                if len(seen) == call:
                    values = np.array(values)
                    shape = (-1,) + (1,) * (values.ndim - 2)
                    for i in series:
                        values[i] = 1e6 * (-1.0) ** np.arange(values.shape[1]).reshape(shape)
                        with pytest.raises(js.ExtrapolationError) as exc:
                            oracle(ts, list(values[i]), *(v[i] for v in v0))
                        messages[i] = str(exc.value)
                seen.append(call)
                return fn(ts, values, *v0)

            monkeypatch.setattr(extrapolate, name, patched)
            return messages
        return install

    @staticmethod
    def first_series(t, k):
        """Stack index of the first branch at the k-th eigenvalue of A1."""
        eigs = js.spectral_resolution(t.matrices[0]).eigenvalues
        return sum(len(js.local_branches(t, lv, [1.0])) for lv in eigs[:k])

    @pytest.mark.parametrize("name", ["first_derivative", "second_derivative"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_derivative_failure_at_a_chosen_eigenvalue(self, corrupt, name, k):
        t, _ = regular_random_pair(17, 4)
        i = self.first_series(t, k)
        messages = corrupt(name, 0, [i])
        with pytest.raises(js.ExtrapolationError) as exc:
            js.verify_pair(t)
        assert type(exc.value) is js.ExtrapolationError
        assert str(exc.value) == messages[i]

    def test_an_earlier_branch_fails_first(self, corrupt):
        # d1 of a later eigenvalue and d2 of an earlier one fail: the walk
        # meets d2 of the earlier eigenvalue first, though its stack comes later
        t, _ = regular_random_pair(17, 4)
        early, late = self.first_series(t, 0), self.first_series(t, 2)
        corrupt("first_derivative", 0, [late])
        messages = corrupt("second_derivative", 0, [early])
        with pytest.raises(js.ExtrapolationError) as exc:
            js.verify_pair(t)
        assert str(exc.value) == messages[early]

    def test_first_derivative_fails_before_the_second(self, corrupt):
        t, _ = regular_random_pair(17, 4)
        i = self.first_series(t, 1)
        first = corrupt("first_derivative", 0, [i])
        second = corrupt("second_derivative", 0, [i])
        with pytest.raises(js.ExtrapolationError) as exc:
            js.verify_pair(t)
        assert str(exc.value) == first[i] != second[i]

    def test_a_failed_gate_comes_before_a_later_extrapolation_failure(self, corrupt):
        # the double eigenvalue 1 tracks one repeated branch (condition a
        # fails) before 2, whose derivative does not converge
        t = js.MatrixTuple([np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 1.0, 0.5])])
        with pytest.raises(js.HypothesisNotMet) as clean:
            js.verify_pair(t)
        assert "lambda=(1+0j)" in str(clean.value)
        corrupt("first_derivative", 0, [self.first_series(t, 1)])
        with pytest.raises(js.HypothesisNotMet) as exc:
            js.verify_pair(t)
        assert str(exc.value) == str(clean.value)

    def test_an_extrapolation_failure_comes_before_a_later_failed_gate(self, corrupt):
        t = js.MatrixTuple([np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 1.0, 0.5])])
        messages = corrupt("first_derivative", 0, [0])
        with pytest.raises(js.ExtrapolationError) as exc:
            js.verify_pair(t)
        assert str(exc.value) == messages[0]

    def test_limits_of_the_first_pair_come_before_the_second_pair(self, corrupt, monkeypatch):
        # P of the first branch of (A1, A2) does not converge, and the
        # rung projections of (A1, A1 A2) are refused: the first pair's
        # limits were due first.  The stacked calls: d1, d2 of each pair, then
        # P and P'(0) of both.
        t, _ = regular_random_pair(17, 4)
        ladders = relations._rung_stack
        made = []

        def refuse_second(tt, bs):
            made.append(tt)
            if len(made) == 2:
                raise js.SeparationError("refused for the test")
            return ladders(tt, bs)

        monkeypatch.setattr(relations, "_rung_stack", refuse_second)
        with pytest.raises(js.SeparationError):
            js.verify_pair(t)
        made.clear()
        messages = corrupt("richardson_limit", 4, [0])
        with pytest.raises(js.ExtrapolationError) as exc:
            js.verify_pair(t)
        assert str(exc.value) == messages[0]


class TestRegularRandomPair:
    def test_default_gap_fits_verify_pair(self):
        # with min_gap=0.05 this seed accepts an N=32 instance whose gap at 1
        # is 0.0504, which verify_pair's finest rung cannot separate
        t, _ = regular_random_pair(1213521000, 32)
        at_one = [r for r in js.check_regularity(t, [1.0]) if abs(r.lam - 1.0) < 1e-9]
        assert len(at_one) == 1 and at_one[0].branch_derivative_gaps >= 0.1

    def test_eigenvalue_draws_are_bounded(self):
        # 64 eigenvalues 0.45 apart do not fit the sampling annulus
        with pytest.raises(ValueError, match="dim=64"):
            random_normal_pair(0, 64)


class TestReportSerialization:
    def test_relation_report_json(self):
        r = oracles.verify_same_projection_lemma(dihedral_pair(1.0), 1.0, tol=1e-7)
        obj = r.to_json()
        assert obj["relation_id"] == "same_projection_lemma"
        assert isinstance(obj["lambda"], list) and obj["passed"] in (True, False)
