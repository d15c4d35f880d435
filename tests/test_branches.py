"""Tests for spectral resolutions, branch tracking, and regularity checks."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jointspec as js
from jointspec import branches
from jointspec.coxeter import random_unitary
from jointspec.fixtures import commuting_diagonal_pair, dihedral_pair, regular_random_pair

import oracles
import slices


def two_line_variant():
    # explicit factorization oracle: det = (x1 + x2 - 1)(x1 - x2 - 1)
    return commuting_diagonal_pair()


def regularity_at(t, lam, **kw):
    """The report check_regularity gives along e_1 at the eigenvalue nearest lam."""
    reports = js.check_regularity(t, [1.0], **kw)
    return min(reports, key=lambda r: abs(r.lam - lam))


class TestSpectralResolution:
    def test_diagonal(self):
        res = js.spectral_resolution(np.diag([1.0, 1.0, -1.0]))
        assert_allclose(np.sort(res.eigenvalues.real), [-1.0, 1.0])
        i = res.index_of(1.0)
        assert res.multiplicities[i] == 2
        assert_allclose(res.projections[i], np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_reflection_generator(self):
        res = js.spectral_resolution(np.diag([1.0, -1.0]))
        e1 = np.zeros((2, 2)); e1[0, 0] = 1.0
        e2 = np.zeros((2, 2)); e2[1, 1] = 1.0
        assert_allclose(res.projection_for(1.0), e1, atol=1e-12)
        assert_allclose(res.projection_for(-1.0), e2, atol=1e-12)

    def test_near_degenerate_cluster(self):
        # construction oracle: conjugate diag(1, 1 + 1e-14) by a random unitary
        u = random_unitary(2, np.random.default_rng(5))
        a1 = u @ np.diag([1.0, 1.0 + 1e-14]) @ u.conj().T
        res = js.spectral_resolution(a1)
        assert res.eigenvalues.size == 1
        assert res.multiplicities[0] == 2

    def test_invariants_on_random_normal(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            evs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            evs[1] = evs[0]  # force a repeated eigenvalue
            u = random_unitary(n, rng)
            a1 = u @ np.diag(evs) @ u.conj().T
            res = js.spectral_resolution(a1)
            total = sum(res.projections)
            assert_allclose(total, np.eye(n), atol=1e-10)
            recon = sum(l * p for l, p in zip(res.eigenvalues, res.projections))
            assert_allclose(recon, a1, atol=1e-10)
            for i, p in enumerate(res.projections):
                assert js.opnorm(p @ p - p) <= 1e-10
                assert js.opnorm(p - p.conj().T) <= 1e-10
                assert res.multiplicities[i] == round(np.trace(p).real)
                for j, q in enumerate(res.projections):
                    if i != j:
                        assert js.opnorm(p @ q) <= 1e-10

    def test_non_normal_rejected(self):
        with pytest.raises(js.NotNormalError):
            js.spectral_resolution(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("a1", [
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.diag([1.0, 2.0]) + 1e-4 * np.diag([1.0], 1),
        np.random.default_rng(8).standard_normal((8, 8)),
        np.diag([1.0, 1.0, 0.0, 2.0j]),
    ], ids=["jordan", "near-normal", "random", "normal"])
    def test_normality_gate_reads_the_commutator_alone(self, a1, monkeypatch):
        # the gate refuses with normality_report's numbers, and makes no
        # eigendecomposition or condition number for its is_diagonalizable
        rep = js.normality_report(a1)

        def refuse(*args, **kwargs):
            raise AssertionError("eig or cond computed")

        for name in ("eig", "cond"):
            monkeypatch.setattr(np.linalg, name, refuse)
        if rep.is_normal:
            js.spectral_resolution(a1)
            return
        with pytest.raises(js.NotNormalError) as exc:
            js.spectral_resolution(a1)
        assert (exc.value.commutator_norm, exc.value.tolerance) == (
            rep.commutator_norm, rep.tolerance)


class TestTOperator:
    def test_two_point_spectrum(self):
        res = js.spectral_resolution(np.diag([1.0, -1.0]))
        t1 = js.t_operator(res, 1.0)
        assert_allclose(t1.matrix, np.diag([0.0, 0.5]), atol=1e-12)

    def test_single_eigenvalue_gives_zero(self):
        res = js.spectral_resolution(np.eye(2))
        assert_allclose(js.t_operator(res, 1.0).matrix, np.zeros((2, 2)), atol=1e-14)

    def test_with_zero_eigenvalue(self):
        res = js.spectral_resolution(np.diag([1.0, 0.0]))
        assert_allclose(js.t_operator(res, 1.0).matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_unknown_eigenvalue(self):
        res = js.spectral_resolution(np.diag([1.0, -1.0]))
        with pytest.raises(js.UnknownEigenvalueError):
            js.t_operator(res, 0.5)

    def test_defining_identities(self):
        rng = np.random.default_rng(11)
        evs = np.array([1.0, 1.0, -0.5 + 0.5j, 2.0])
        u = random_unitary(4, rng)
        a1 = u @ np.diag(evs) @ u.conj().T
        res = js.spectral_resolution(a1)
        for lam in res.eigenvalues:
            t_op = js.t_operator(res, lam)
            p = res.projection_for(lam)
            assert js.opnorm(t_op.matrix @ p) <= 1e-10
            assert js.opnorm(p @ t_op.matrix) <= 1e-10
            lhs = (lam * np.eye(4) - a1) @ t_op.matrix
            assert js.opnorm(lhs - (np.eye(4) - p)) <= 1e-10


class TestLocalBranches:
    def test_two_line_variant(self):
        branches = js.local_branches(two_line_variant(), 1.0, [1.0])
        assert len(branches) == 2
        d1s = sorted(b.d1.real for b in branches)
        assert_allclose(d1s, [-1.0, 1.0], atol=1e-10)
        assert all(b.multiplicity == 1 for b in branches)
        # oracle: explicit factorization x1 = 1 -/+ x2
        for b in branches:
            sgn = -1.0 if b.d1.real < 0 else 1.0
            for tk, v in b.samples:
                assert abs(v - (1.0 + sgn * tk)) <= 1e-10

    def test_dihedral_branch_derivatives(self):
        b = js.local_branches(dihedral_pair(np.pi / 3), 1.0, [1.0])[0]
        assert b.multiplicity == 1
        assert abs(b.d1 - (-0.5)) <= 1e-7
        assert abs(b.d2 - (-0.75)) <= 1e-7

    def test_zero_eigenvalue_branch(self):
        t = js.MatrixTuple([np.diag([0.0, 2.0]), np.eye(2)])
        branches = js.local_branches(t, 0.0, [1.0])
        assert len(branches) == 1
        b = branches[0]
        assert b.kind == "zero"
        for tk, v in b.samples:
            assert abs(v - tk) <= 1e-12   # eigenvalue of A1 + t I near 0 is t
        assert abs(b.d1 - 1.0) <= 1e-9
        assert abs(b.d2) <= 1e-8

    def test_determinant_residual_invariant(self):
        for tup, lam in [(two_line_variant(), 1.0), (dihedral_pair(0.9), 1.0),
                         (js.MatrixTuple([np.diag([0.0, 2.0]), np.eye(2)]), 0.0)]:
            for b in js.local_branches(tup, lam, [1.0]):
                assert max(b.residuals) <= 1e-9

    def test_multiplicity_sums_to_eigenvalue_multiplicity(self):
        t = js.MatrixTuple([np.diag([1.0, 1.0]), np.eye(2)])
        branches = js.local_branches(t, 1.0, [1.0])
        assert sum(b.multiplicity for b in branches) == 2
        res = js.spectral_resolution(t.matrices[0])
        assert res.multiplicities[res.index_of(1.0)] == 2

    def test_nonzero_direction_required(self):
        with pytest.raises(ValueError, match="nonzero"):
            js.local_branches(two_line_variant(), 1.0, [0.0])

    @pytest.mark.parametrize("xhat, message", [
        ([0.0], "nonzero"), ([1.0, 0.0], "n-1=1 coordinates"), ([math.nan], "finite"),
        ([complex(1.0, math.inf)], "finite"),
    ])
    def test_bad_direction_is_refused_before_any_solve(self, monkeypatch, xhat, message):
        counts = slices.count_solves(monkeypatch)
        for call in (lambda: js.local_branches(two_line_variant(), 1.0, xhat),
                     lambda: js.check_regularity(two_line_variant(), xhat)):
            with pytest.raises(ValueError, match=message):
                call()
        assert counts == {"ggev": [], "eigvals": [], "rank1": [], "schur": 0, "svd": []}

    def test_tracking_error_when_branches_merge_below_resolution(self):
        # derivative gap 1e-3: branches are separate at coarse t but fall
        # inside the coincidence tolerance at fine t
        t = js.MatrixTuple([np.diag([1.0, 1.0]), np.diag([1.0, 1.0 + 1e-3])])
        with pytest.raises((js.TrackingError, js.BranchCollisionError)):
            js.local_branches(t, 1.0, [1.0])

    def test_branch_leaving_the_selection_disk_is_refused(self):
        # x1 = 1 - 10 t: outside |x1 - 1| <= 1/3 for t >= 1/30
        t = js.MatrixTuple([np.diag([1.0, 3.0]), np.diag([10.0, 0.0])])
        with pytest.raises(js.TrackingError, match="cluster count changed"):
            js.local_branches(t, 1.0, [1.0], t_max=0.1, samples=4)
        with pytest.raises(js.TrackingError, match="total multiplicity 0"):
            js.local_branches(t, 1.0, [1.0], t_max=0.1, samples=2)

    def test_affine_branches_have_zero_second_derivative(self):
        for b in js.local_branches(two_line_variant(), 1.0, [1.0]):
            assert abs(b.d2) <= 1e-8


class TestSliceLadder:
    def test_tracking_on_a_ladder_matches_solving_again(self):
        # check_regularity tracks every eigenvalue on one ladder of every
        # kind; local_branches solves its own kind only
        t = regular_random_pair(100, 4, zero_eigenvalue=True)[0]
        eigs = js.spectral_resolution(t.matrices[0]).eigenvalues
        reports = js.check_regularity(t, [1.0])
        assert len(reports) == len(eigs)
        for lam, rep in zip(eigs, reports):
            again = js.local_branches(t, lam, [1.0])
            assert list(rep.branches) == again
            assert [b.to_json() for b in rep.branches] == [b.to_json() for b in again]

    def test_zero_kind_only_when_zero_is_an_eigenvalue(self):
        assert list(slices.ladder(dihedral_pair(0.9)).roots) == ["nonzero"]
        t = js.MatrixTuple([np.diag([0.0, 0.0]), np.eye(2)])
        assert list(slices.ladder(t).roots) == ["zero"]
        z = regular_random_pair(100, 4, zero_eigenvalue=True)[0]
        assert sorted(slices.ladder(z).roots) == ["nonzero", "zero"]

    def test_regularity_on_a_ladder(self):
        t = _random_regular_pair()
        reports = js.check_regularity(t, [1.0])
        eigs = js.spectral_resolution(t.matrices[0]).eigenvalues
        assert len(reports) == len(eigs)
        for lam, rep in zip(eigs, reports):
            assert abs(rep.lam - lam) <= 1e-12
            assert rep == js.regularity_report(js.local_branches(t, lam, [1.0]))

    @pytest.mark.parametrize("args, kwargs", [((17, 4), {"zero_eigenvalue": True}),
                                              ((5, 8), {})])
    def test_batches_equal_one_solve_per_rung_bit_for_bit(self, args, kwargs, monkeypatch):
        # one line_roots_batch call (nonzero kind) and one stacked eigvals (zero
        # kind) give the per-rung roots; tracking on them makes no SVD, and
        # each branch's first read of residuals makes one stacked SVD
        t = regular_random_pair(*args, **kwargs)[0]
        calls = []

        def count(mod, name):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, **kw: calls.append(name) or fn(*a, **kw))

        for mod, name in ((branches, "line_roots_batch"), (np.linalg, "eigvals"),
                          (np.linalg, "svd")):
            count(mod, name)
        ladder = slices.ladder(t)
        monkeypatch.undo()
        zero = "zero" in ladder.roots
        # the eigvals of A_1 for the reference spectrum, then one solve per kind
        assert calls == ["eigvals", "line_roots_batch"] + ["eigvals"] * zero
        a1, a2 = t.matrices
        eye = np.eye(t.dim)
        for k, tk in enumerate(ladder.ts):
            want = oracles._line_roots(t.matrices, np.array([0.0, tk], dtype=complex), [1.0, 0.0])
            # a row of the root table, padded with nan past its finite roots
            row = ladder.roots["nonzero"][k]
            assert row[:want.size].tobytes() == want.tobytes()
            assert np.isnan(row[want.size:]).all()
            if zero:
                want = np.linalg.eigvals(a1 + tk * a2)
                assert ladder.roots["zero"][k].tobytes() == want.tobytes()
        calls.clear()
        count(np.linalg, "svd")
        count(branches, "opnorm")
        # the branches at every eigenvalue, tracked on the ladder as the gate does
        found = [b for rep in branches._regularity_reports(t, ladder) for b in rep.branches]
        assert calls == []
        for b in found:
            first = b.residuals
            assert calls == ["svd"]
            assert b.residuals is first
            assert calls == ["svd"]
            calls.clear()
        monkeypatch.undo()
        for b in found:
            for (tk, v), res in zip(b.samples, b.residuals):
                m = a1 + tk * a2 - v * eye if b.kind == "zero" else v * a1 + tk * a2 - eye
                s = np.linalg.svd(m, compute_uv=False)
                assert np.float64(s[-1] / (1.0 + s[0])).tobytes() == np.float64(res).tobytes()


@lru_cache(maxsize=1)
def _random_regular_pair():
    return regular_random_pair(17, 4)[0]


class TestUnitaryConjugation:
    # det(x1 U A1 U* + x2 U A2 U* - I) = det(x1 A1 + x2 A2 - I).  d2 gets the
    # branch-derivative tolerance of the acceptance suite: its second-difference
    # quotients scale sample rounding by 4 / t^2, and conjugation moves d2 by up
    # to about 1.4e-8 on dihedral pairs, the size of its own d2_error estimate
    @settings(deadline=None, max_examples=6)
    @given(st.booleans(), st.floats(0.3, 2.8), st.integers(0, 2**16))
    def test_branches_and_residuals_invariant(self, random_pair, angle, seed):
        t = _random_regular_pair() if random_pair else dihedral_pair(angle)
        u = random_unitary(t.dim, np.random.default_rng(seed))
        conj = js.MatrixTuple([u @ m @ u.conj().T for m in t.matrices])
        for lam in js.spectral_resolution(t.matrices[0]).eigenvalues:
            before = js.local_branches(t, lam, [1.0])
            after = js.local_branches(conj, lam, [1.0])
            assert len(before) == len(after)
            for b, c in zip(before, after):
                assert max(abs(v - w) for (_, v), (_, w) in zip(b.samples, c.samples)) <= 1e-9
                assert abs(b.d1 - c.d1) <= 1e-9
                assert abs(b.d2 - c.d2) <= 1e-7
                assert max(c.residuals) <= 1e-9


class TestScaling:
    # det(x1 A1/lam + x2 A2 - I) = det((x1/lam) A1 + x2 A2 - I), so the branch
    # x1 = v(t) through 1/lam becomes lam v(t) through 1; measured shifts of
    # d1 are below 1e-11 relative
    @settings(deadline=None, max_examples=8)
    @given(st.booleans(), st.floats(0.3, 2.8), st.integers(0, 31))
    def test_d1_scales_with_lambda(self, random_pair, angle, pick):
        t = _random_regular_pair() if random_pair else dihedral_pair(angle)
        a1, a2 = t.matrices
        eigs = js.spectral_resolution(a1).eigenvalues
        lam = eigs[pick % len(eigs)]
        before = js.local_branches(t, lam, [1.0])
        after = js.local_branches(js.MatrixTuple([a1 / lam, a2]), 1.0, [1.0])
        assert len(before) == len(after)
        matched = set()
        for b in before:
            target = lam * b.d1
            nearest = min(range(len(after)), key=lambda k: abs(after[k].d1 - target))
            assert abs(after[nearest].d1 - target) <= 1e-9 * (1.0 + abs(target))
            matched.add(nearest)
        assert len(matched) == len(after)


class TestBranchDerivatives:
    # the derivatives local_branches extrapolates and stores on each Branch

    def test_affine(self):
        b = [bb for bb in js.local_branches(two_line_variant(), 1.0, [1.0])
             if bb.d1.real < 0][0]
        assert abs(b.d1 - (-1.0)) <= 1e-10
        assert abs(b.d2) <= 1e-8

    def test_dihedral_values(self):
        b = js.local_branches(dihedral_pair(np.pi / 3), 1.0, [1.0])[0]
        assert abs(b.d1 - (-0.5)) <= 1e-7
        assert abs(b.d2 - (-0.75)) <= 1e-7
        assert b.d1_error < 1e-7 and b.d2_error < 1e-6

    def test_product_pair_branch(self):
        a1, a2 = dihedral_pair(np.pi / 3).matrices
        z = js.MatrixTuple([a1, a1 @ a2])
        b = js.local_branches(z, 1.0, [1.0])[0]
        assert abs(b.d2 - 0.75) <= 1e-7

    def test_needs_five_samples(self):
        b = js.local_branches(dihedral_pair(1.0), 1.0, [1.0], samples=4)[0]
        assert b.d1 is None and b.d2 is None


class TestCheckRegularity:
    def test_two_line_variant_passes(self):
        rep = regularity_at(two_line_variant(), 1.0)
        assert rep.condition_a and rep.condition_b
        assert abs(rep.branch_derivative_gaps - 2.0) <= 1e-8
        assert rep.tangency_margin > 0.5

    def test_repeated_component_fails_b(self):
        t = js.MatrixTuple([np.diag([1.0, 1.0]), np.eye(2)])
        rep = regularity_at(t, 1.0)
        assert not rep.condition_b
        assert rep.branch_derivative_gaps == 0.0

    def test_duplicated_irrep_fails_b(self):
        # block-diagonal construction oracle: two copies of the same component
        a1, a2 = dihedral_pair(2 * np.pi / 5).matrices
        z = np.zeros((2, 2))
        t = js.MatrixTuple([np.block([[a1, z], [z, a1]]), np.block([[a2, z], [z, a2]])])
        rep = regularity_at(t, 1.0)
        assert not rep.condition_b

    def test_single_branch_is_regular(self):
        rep = regularity_at(dihedral_pair(0.8), 1.0)
        assert rep.condition_a and rep.condition_b

    def test_zero_eigenvalue_regularity(self):
        t = js.MatrixTuple([np.diag([0.0, 2.0]), np.eye(2)])
        rep = regularity_at(t, 0.0)
        assert rep.condition_a and rep.condition_b

    def test_report_is_a_function_of_the_tracked_branches(self):
        for tup, lam in [(two_line_variant(), 1.0), (dihedral_pair(0.8), -1.0),
                         (js.MatrixTuple([np.diag([1.0, 1.0]), np.eye(2)]), 1.0)]:
            branches = js.local_branches(tup, lam, [1.0])
            rep = js.regularity_report(branches)
            direct = regularity_at(tup, lam)
            assert rep == direct
            assert [b.residuals for b in rep.branches] == [b.residuals for b in direct.branches]

    def test_every_eigenvalue_gets_a_report(self):
        # tracking fails at 1 (branches merge below the coincidence tolerance),
        # and the report at -1 is still made
        t = js.MatrixTuple([np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0 + 1e-3, 0.5])])
        with pytest.raises((js.TrackingError, js.BranchCollisionError)) as exc:
            js.local_branches(t, 1.0, [1.0])
        at_minus_one, at_one = js.check_regularity(t, [1.0])
        assert at_one.failure == str(exc.value) and at_one.error is None
        assert not (at_one.condition_a or at_one.condition_b) and at_one.branches == ()
        assert at_minus_one == js.regularity_report(js.local_branches(t, -1.0, [1.0]))
        assert at_minus_one.condition_a and at_minus_one.condition_b

    def test_extrapolation_failure_is_kept_for_the_gate(self, monkeypatch):
        # the second eigenvalue's d1 series is noise: its report keeps the
        # ExtrapolationError that tracking it alone raises, the first is intact
        t = dihedral_pair(0.8)
        first_derivative = branches.extrapolate.first_derivative

        def noisy_second(ts, values, v0):
            values = np.array(values)
            values[-1] = 1e6 * (-1.0) ** np.arange(values.shape[1])
            return first_derivative(ts, values, v0)

        monkeypatch.setattr(branches.extrapolate, "first_derivative", noisy_second)
        with pytest.raises(js.ExtrapolationError) as exc:
            js.local_branches(t, 1.0, [1.0])
        first, second = js.check_regularity(t, [1.0])
        assert first.error is None and first.condition_a and first.condition_b
        assert isinstance(second.error, js.ExtrapolationError)
        assert str(second.error) == second.failure == str(exc.value)
        assert not (second.condition_a or second.condition_b)

    def test_fewer_than_five_samples_refused(self):
        # condition b) compares first derivatives, which need five rungs
        t = dihedral_pair(np.pi / 3)
        with pytest.raises(ValueError, match="samples >= 5"):
            js.check_regularity(t, [1.0], samples=4)
        with pytest.raises(ValueError, match="samples >= 5"):
            js.regularity_report(js.local_branches(t, 1.0, [1.0], samples=4))


class TestLadderInputs:
    """Every ladder is built in one place, which refuses a t_max that is not a
    finite real > 0 and a samples that is not an integer >= 2."""

    BAD = [({"t_max": 0.0}, "t_max"), ({"t_max": 0}, "t_max"), ({"t_max": -0.01}, "t_max"),
           ({"t_max": float("inf")}, "t_max"), ({"t_max": float("nan")}, "t_max"),
           ({"t_max": 1e-2j}, "t_max"), ({"samples": 5.5}, "samples"),
           ({"samples": 8.0}, "samples"), ({"samples": True}, "samples")]

    @pytest.mark.parametrize("kw, name", BAD + [({"samples": 1}, "samples")])
    def test_gate_refuses(self, kw, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            js.check_regularity(dihedral_pair(np.pi / 3), [1.0], **kw)

    @pytest.mark.parametrize("kw, name", BAD + [({"samples": 1}, "samples")])
    def test_tracking_refuses(self, kw, name):
        with pytest.raises(ValueError, match=f"{name} must be") as exc:
            js.local_branches(dihedral_pair(np.pi / 3), 1.0, [1.0], **kw)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("kw, name", [
        ({"t_max": 0}, "t_max"), ({"t_max": -0.01}, "t_max"), ({"samples": 5.5}, "samples"),
    ])
    def test_verify_pair_refuses_before_any_slice_solve(self, kw, name, monkeypatch):
        # these raised ExtrapolationError after both ladders were solved, or
        # ran ceil(samples) rungs
        calls = []
        solve = branches._ladder_roots
        monkeypatch.setattr(branches, "_ladder_roots",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        with pytest.raises(ValueError, match=f"{name} must be"):
            js.verify_pair(dihedral_pair(np.pi / 3), **kw)
        assert calls == []

    def test_verify_pair_refuses_an_unknown_lambda_before_any_slice_solve(self, monkeypatch):
        calls = []
        solve = branches._ladder_roots
        monkeypatch.setattr(branches, "_ladder_roots",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        with pytest.raises(js.UnknownEigenvalueError):
            js.verify_pair(dihedral_pair(np.pi / 3), lam=0.5)
        assert calls == []

    @pytest.mark.parametrize("lam", [math.nan, complex(math.nan, 1.0), complex(1.0, math.nan)],
                             ids=["nan", "complex-nan", "nan-imaginary-part"])
    def test_a_nan_lambda_is_no_eigenvalue(self, lam):
        # NaN is within no distance of an eigenvalue: it was analysed at A_1's first
        t, _ = regular_random_pair(1, 4)
        res = js.spectral_resolution(t.matrices[0])
        for run in (lambda: js.verify_pair(t, lam=lam),
                    lambda: js.local_branches(t, lam, [1.0]),
                    lambda: js.analyze_pair(t, lam),
                    lambda: js.t_operator(res, lam)):
            with pytest.raises(js.UnknownEigenvalueError, match="is not an eigenvalue"):
                run()

    @pytest.mark.parametrize("samples", ["8", None, 8.0])
    def test_verify_pair_refuses_a_samples_that_is_no_integer(self, samples):
        # "8" and None raised TypeError from samples < 5
        with pytest.raises(ValueError, match="samples must be an integer") as exc:
            js.verify_pair(dihedral_pair(np.pi / 3), samples=samples)
        assert type(exc.value) is ValueError

    def test_integer_types_and_the_shortest_ladder_are_accepted(self):
        t = dihedral_pair(np.pi / 3)
        for kw in ({"samples": np.int64(8)}, {"t_max": np.float64(1e-2)}, {"samples": 2},
                   {"t_max": 1}):
            ladder = slices.ladder(t, **kw)
            assert ladder.ts.size == kw.get("samples", 8)

    # t_max * 2^-(samples-1) is subnormal: 2^-1023 at t_max = 1, and below
    # 2^-1022 at the default t_max from samples = 1017 on
    @pytest.mark.parametrize("t_max, samples", [(1.0, 1024), (1e-2, 1017), (1e-2, 2000)])
    def test_a_subnormal_finest_rung_is_refused_before_any_slice_solve(
            self, t_max, samples, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("a slice was solved")

        monkeypatch.setattr(branches, "_ladder_roots", unreached)
        t = dihedral_pair(np.pi / 3)
        for run in (lambda: js.check_regularity(t, [1.0], t_max=t_max, samples=samples),
                    lambda: js.local_branches(t, 1.0, [1.0], t_max=t_max, samples=samples),
                    lambda: js.verify_pair(t, t_max=t_max, samples=samples)):
            with pytest.raises(ValueError, match="finest rung .* positive normal float"):
                run()

    def test_the_smallest_normal_finest_rung_is_accepted(self):
        ladder = slices.ladder(dihedral_pair(np.pi / 3), t_max=1.0, samples=1023)
        assert ladder.ts[-1] == 2.0 ** -1022


class TestClusterValues:
    """A lone value is its own cluster; the union-find is the oracle."""

    @pytest.mark.parametrize("values", [[], [0.3 - 1e-17j], [1.0, 1.0 + 1e-9, 2.0],
                                        [np.nextafter(1.0, 2.0) + 1j / 3]])
    def test_matches_the_union_find(self, values):
        for tol in (1e-6, 0.0):
            got = branches._cluster_values(values, tol)
            want = oracles.cluster_values(values, tol)
            assert [(complex(c).real.hex(), complex(c).imag.hex(), i) for c, i in got] == [
                (complex(c).real.hex(), complex(c).imag.hex(), i) for c, i in want]

    @staticmethod
    def _hex(clusters):
        return [(complex(c).real.hex(), complex(c).imag.hex(), i) for c, i in clusters]

    @pytest.mark.parametrize("values", [[0.0, 0.8, 1.6], [1.6, 5.0, 0.0, 0.8], [0.8j, 3.0, 1.6j, 0.0]])
    def test_single_linkage_chain(self, values):
        # a - b - c with |a - c| = 1.6 > tol: one cluster through b
        got = branches._cluster_values(values, 1.0)
        assert self._hex(got) == self._hex(oracles.cluster_values(values, 1.0))
        assert sorted(len(i) for _, i in got) == ([3] if len(values) == 3 else [1, 3])

    @pytest.mark.parametrize("first", ["ring", "pair"])
    def test_equal_mean_ties(self, first):
        # a square ring of step 0.5 around 0 and a pair at +-0.25, 0.75 from
        # it: two clusters whose means are both exactly 0, kept in index order
        side = np.arange(-1.0, 1.0, 0.5)
        ring = np.concatenate([side - 1j, 1 + 1j * side, -side + 1j, -1 - 1j * side])
        pair = np.array([-0.25, 0.25])
        values = np.concatenate([ring, pair] if first == "ring" else [pair, ring])
        got = branches._cluster_values(values, 0.5)
        assert [c for c, _ in got] == [0, 0]
        assert [len(i) for _, i in got] == ([16, 2] if first == "ring" else [2, 16])
        assert self._hex(got) == self._hex(oracles.cluster_values(values, 0.5))

    def test_regularity_on_the_acceptance_suite(self, monkeypatch):
        from test_acceptance import random_suite

        sizes, passed = [], []
        cluster, passes = branches._cluster_values, branches._tracks

        def counted(values, tol):
            sizes.append(np.size(values))
            return cluster(values, tol)

        def counted_pass(t, ladder, positions):
            before = len(sizes)
            out = passes(t, ladder, positions)
            # a cluster of A_1 takes its root column unless it has several
            # branches or a repeated one: then each rung is clustered
            several = [entry for entry in out if len(entry[3]) > 1 or entry[3][0][1] > 1]
            passed.append((sizes[before:], ladder.ts.size * len(several)))
            return out

        for tup, _, _ in random_suite():
            a1, a2 = tup.matrices
            for tt in (tup, js.MatrixTuple([a1, a1 @ a2])):
                monkeypatch.setattr(branches, "_cluster_values", counted)
                monkeypatch.setattr(branches, "_tracks", counted_pass)
                fast = js.check_regularity(tt, [1.0])
                monkeypatch.undo()
                monkeypatch.setattr(branches, "_cluster_values", oracles.cluster_values)
                slow = js.check_regularity(tt, [1.0])
                monkeypatch.undo()
                # reports compare their branches, whose samples and derivatives compare exactly
                assert fast == slow
                assert [r.to_json() for r in fast] == [r.to_json() for r in slow]
        # each pass clusters every rung of the planted double at 1, and only there
        assert len(passed) == 40
        assert all(want == 8 and got == [2] * want for got, want in passed)


def _tracking_cases():
    """(tuple, ladder keywords) for the tracking pass against its oracle: the
    acceptance suite and random pairs with a zero eigenvalue, both pairs
    each, then disks that hold two roots or none on some rung, and a root
    table with no column."""
    from test_acceptance import random_suite

    pairs = [tup for tup, _, _ in random_suite()]
    pairs += [js.fixtures.random_normal_pair(seed, dim, zero_eigenvalue=True)
              for dim in (4, 8, 16, 32) for seed in (1, 2)]
    cases = [(tt, {}) for tup in pairs
             for tt in (tup, js.MatrixTuple([tup.matrices[0], tup.matrices[0] @ tup.matrices[1]]))]
    # the planted double at 1 merges below resolution; the simple 1 meets the
    # branch from 1.5 in its disk on the first rung; x1 = 1 - 10 t leaves its disk
    cases += [(js.MatrixTuple([np.eye(2), np.diag([1.0, 1.0 + 1e-3])]), {}),
              (js.MatrixTuple([np.diag([1.0, 1.5]), np.diag([0.0, -4.0])]), {"t_max": 0.1}),
              (js.MatrixTuple([np.diag([1.0, 3.0]), np.diag([10.0, 0.0])]),
               {"t_max": 0.1, "samples": 4}),
              (js.MatrixTuple([np.diag([1.0, 3.0]), np.diag([10.0, 0.0])]),
               {"t_max": 0.1, "samples": 2}),
              (js.MatrixTuple([np.diag([0.0, 0.0]), np.eye(2)]), {}),
              (js.MatrixTuple([np.diag([0.0, 1.0, 1.0]), np.eye(3)]), {})]
    # t B - I is singular on the kernel of A_1 at both rungs (B there is
    # diag(1, 2)), so the nonzero kind has no finite root on either rung
    b = np.array([[0.0, 0.3, 0.3], [0.3, 1.0, 0.0], [0.3, 0.0, 2.0]])
    cases.append((js.MatrixTuple([np.diag([1.0, 0.0, 0.0]), b]), {"t_max": 1.0, "samples": 2}))
    return cases


def _oracle_pass(t, ladder, positions):
    """branches._tracks, one eigenvalue at a time by oracles.track_branches."""
    out = []
    for i in positions:
        try:
            out.append(oracles.track_branches(ladder.roots, ladder.reference, ladder.kinds,
                                              t.matrices[0], ladder.reference[i][0]))
        except (js.TrackingError, js.BranchCollisionError) as exc:
            out.append(exc)
    return out


def _bits(z):
    return np.complex128(z).tobytes()


class TestTrackingPass:
    """One pass per kind tracks every eigenvalue of A_1 as the oracle does,
    one eigenvalue at a time."""

    def test_tracks_equal_the_oracle_bit_for_bit(self):
        refused = direct = 0
        for t, kw in _tracking_cases():
            ladder = slices.ladder(t, **kw)
            positions = range(len(ladder.reference))
            for got, want in zip(branches._tracks(t, ladder, positions),
                                 _oracle_pass(t, ladder, positions)):
                if isinstance(want, Exception):
                    assert type(got) is type(want) and str(got) == str(want)
                    refused += 1
                    continue
                (lam0, kind, center, tracks), (lam1, kind1, center1, tracks1) = got, want
                assert (_bits(lam0), kind, _bits(center)) == (_bits(lam1), kind1, _bits(center1))
                assert [([_bits(v) for v in vals], m) for vals, m in tracks] == [
                    ([_bits(v) for v in vals], m) for vals, m in tracks1]
                direct += len(tracks) == 1 and tracks[0][1] == 1
        # the nine refusals are those of the two-root and empty disks
        assert refused == 9 and direct > 300

    def test_reports_equal_those_of_the_oracle(self, monkeypatch):
        for t, kw in _tracking_cases():
            def outcome():
                try:
                    reps = js.check_regularity(t, [1.0], **kw)
                except ValueError as exc:  # fewer than 5 rungs: no derivatives
                    return str(exc)
                return reps, [r.to_json() for r in reps]

            fast = outcome()
            monkeypatch.setattr(branches, "_tracks", _oracle_pass)
            assert outcome() == fast
            monkeypatch.undo()


class TestCrossModuleDerivativePrediction:
    def test_d1_matches_projected_compression(self):
        # Finite-difference d1 vs the eigenvalue of P A2 P on the range of P,
        # scaled by the branch eigenvalue (multiplicity-1 case).
        for tup, lam in [(dihedral_pair(np.pi / 4), 1.0), (two_line_variant(), 1.0)]:
            for b in js.local_branches(tup, lam, [1.0]):
                lp = js.limit_projection(tup, b)
                c = np.trace(lp.matrix @ tup.matrices[1] @ lp.matrix) / np.trace(lp.matrix)
                assert abs(c - (-b.lam * b.d1)) <= 1e-6
