"""Tests for Coxeter representations, the spectrum catalog, and rigidity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jointspec as js
from jointspec import coxeter
from jointspec.coxeter import coxeter_type, geometric_representation, is_nonspecial
from jointspec.fixtures import dihedral_pair, planted_tuple
import oracles
from oracles import word_character_gap
from slices import e1_line_roots


def a3_matrix():
    return js.CoxeterMatrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])


def b3_matrix():
    return js.CoxeterMatrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])


def type_a(n):
    return js.CoxeterMatrix([[1 if i == j else 3 if abs(i - j) == 1 else 2
                              for j in range(n)] for i in range(n)])


def b4_matrix():
    return js.CoxeterMatrix([[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])


def d4_matrix():
    return js.CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])


def h3_matrix():
    return js.CoxeterMatrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])


def random_block(dim, scale, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * b / js.opnorm(b)


def planted_dihedral(m, angle_index=1, seed=7, extra=("one_dim_pp",)):
    cm = js.dihedral(m)
    summands = [js.DihedralIrrep("two_dim", 2 * math.pi * angle_index / m), *extra]
    rep = js.build_representation(cm, summands)
    b1 = np.diag([0.3, -0.22 + 0.1j])
    b2 = random_block(2, 0.3, seed)
    return planted_tuple(rep, [b1, b2], seed=seed), rep


def planted_geometric(cm, seed):
    """Geometric representation of cm plus a planted block of the same size."""
    rep = js.CoxeterRep(cm=cm, generators=tuple(geometric_representation(cm)))
    diag = [0.28, -0.2 + 0.12j, 0.1 - 0.3j, -0.15 - 0.05j, 0.22 + 0.2j][: cm.n]
    blocks = [np.diag(diag)] + [random_block(cm.n, 0.3, seed + k) for k in range(1, cm.n)]
    return planted_tuple(rep, blocks, seed=seed), rep


class TestCoxeterMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            js.CoxeterMatrix([[1, 2], [3, 1]])
        with pytest.raises(ValueError):
            js.CoxeterMatrix([[2, 3], [3, 2]])
        with pytest.raises(ValueError):
            js.CoxeterMatrix([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="integers"):
            js.CoxeterMatrix([[1, 2.5], [2.5, 1]])

    def test_json_round_trip_with_infinity(self):
        cm = js.CoxeterMatrix([[1, math.inf], [math.inf, 1]])
        assert cm.to_json() == [[1, "inf"], ["inf", 1]]
        back = js.CoxeterMatrix.from_json(cm.to_json())
        assert math.isinf(back.order(0, 1))

    def test_type_classification(self):
        assert coxeter_type(js.dihedral(5)) == "dihedral"
        assert coxeter_type(a3_matrix()) == "A"
        assert coxeter_type(b3_matrix()) == "B"
        d4 = js.CoxeterMatrix([
            [1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
        assert coxeter_type(d4) == "D"
        assert is_nonspecial(js.dihedral(7))
        assert not is_nonspecial(h3_matrix())


class TestBuildRepresentation:
    def test_all_trivial(self):
        rep = js.build_representation(a3_matrix(), ["trivial"])
        for g in rep.generators:
            assert_allclose(g, np.eye(1))

    def test_dihedral_canonical_block(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
        g1, g2 = rep.generators
        assert_allclose(g1, np.diag([1.0, -1.0]), atol=1e-14)
        assert max(rep.relation_residuals().values()) <= 1e-10

    def test_mixed_blocks(self):
        rep = js.build_representation(
            js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"])
        assert rep.dim == 3
        for g in rep.generators:
            assert js.opnorm(g @ g - np.eye(3)) <= 1e-12
        assert max(rep.relation_residuals().values()) <= 1e-10

    def test_relation_breaking_angle_rejected(self):
        # (g1 g2) with the canonical pair at angle a is a rotation by a, so
        # m = 3 forces a = 2*pi/3; pi/3 has order 6 and must be rejected
        with pytest.raises(js.AssignmentError):
            js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", math.pi / 3)])

    def test_pm_rejected_for_odd_order(self):
        with pytest.raises(js.AssignmentError):
            js.build_representation(js.dihedral(3), ["one_dim_pm"])

    def test_geometric_summand_and_conjugation(self):
        rep = js.build_representation(a3_matrix(), ["geometric", "sign"], seed=3)
        assert rep.dim == 4
        assert max(rep.relation_residuals().values()) <= 1e-10
        for g in rep.generators:
            assert js.opnorm(g - g.conj().T) <= 1e-12

    def test_geometric_b3(self):
        gens = geometric_representation(b3_matrix())
        rep = js.CoxeterRep(cm=b3_matrix(), generators=tuple(gens))
        assert max(rep.relation_residuals().values()) <= 1e-10


class TestCatalog:
    def test_two_dim_right_angle(self):
        c1, c2 = js.dihedral_component_catalog(js.DihedralIrrep("two_dim", math.pi / 2))
        assert c1.shape == "ellipse" and abs(c1.parameters[0]) <= 1e-15
        assert c2.shape == "gen_ellipse_z"
        assert abs(c1.evaluate(0.6, 0.8)) <= 1e-12          # on the circle
        assert abs(c2.evaluate(np.sqrt(2.0), 1.0)) <= 1e-12  # x1^2 - x2^2 = 1

    def test_one_dim_lines(self):
        line, gen = js.dihedral_component_catalog(js.DihedralIrrep("one_dim_pm"))
        assert line.parameters == (1.0, -1.0)
        assert gen.parameters == (1.0, -1.0)
        line_pp, gen_pp = js.dihedral_component_catalog(js.DihedralIrrep("one_dim_pp"))
        assert line_pp.parameters == (1.0, 1.0)
        assert abs(line_pp.evaluate(0.25, 0.75)) <= 1e-15

    @pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 4, 2 * math.pi / 5])
    def test_descriptor_samples_lie_on_spectrum(self, alpha):
        irr = js.DihedralIrrep("two_dim", alpha)
        cat_xy, cat_z = js.dihedral_component_catalog(irr)
        g1, g2 = irr.generator_matrices
        pair_xy = js.MatrixTuple([g1, g2])
        pair_z = js.MatrixTuple([g1, g1 @ g2])
        rng = np.random.default_rng(0)
        for desc, pair in ((cat_xy, pair_xy), (cat_z, pair_z)):
            for p in desc.sample(200, rng):
                assert js.spectral_mask(pair, [p], 1e-9)[0]

    @pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 2])
    def test_spectrum_slices_satisfy_descriptor(self, alpha):
        irr = js.DihedralIrrep("two_dim", alpha)
        cat_xy, cat_z = js.dihedral_component_catalog(irr)
        g1, g2 = irr.generator_matrices
        rng = np.random.default_rng(1)
        for desc, pair in ((cat_xy, js.MatrixTuple([g1, g2])),
                           (cat_z, js.MatrixTuple([g1, g1 @ g2]))):
            for _ in range(100):
                t = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
                for x1 in e1_line_roots(pair, [t])[0].finite:
                    assert abs(desc.evaluate(x1, t)) <= 1e-9


class TestDihedralDecomposition:
    def test_reads_back_construction(self):
        rep = js.build_representation(
            js.dihedral(4),
            [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm", "one_dim_pp"],
            seed=5,
        )
        dec = js.dihedral_pair_decomposition(rep.generators[0], rep.generators[1])
        counts = {(k, None if a is None else round(a, 9)): m for k, a, m in dec}
        assert counts[("two_dim", round(math.pi / 2, 9))] == 1
        assert counts[("one_dim_pm", None)] == 1
        assert counts[("one_dim_pp", None)] == 1

    def test_distinguishes_pm_and_mp(self):
        g1 = np.diag([1.0, -1.0]).astype(complex)
        g2 = np.diag([-1.0, 1.0]).astype(complex)
        dec = js.dihedral_pair_decomposition(g1, g2)
        kinds = {k for k, _, _ in dec}
        assert kinds == {"one_dim_pm", "one_dim_mp"}


class TestConditionStar:
    def test_single_irrep_true(self):
        rep = js.build_representation(js.dihedral(5), [js.DihedralIrrep("two_dim", 2 * math.pi / 5)])
        assert js.check_condition_star(rep) == {2: True}

    def test_duplicated_irrep_false(self):
        rep = js.build_representation(
            js.dihedral(5),
            [js.DihedralIrrep("two_dim", 2 * math.pi / 5)] * 2,
        )
        assert js.check_condition_star(rep) == {2: False}

    def test_distinct_angles_true(self):
        # rotation-angle spectrum oracle: pi/3 and 2pi/3 are different irreps of m = 6
        rep = js.build_representation(
            js.dihedral(6),
            [js.DihedralIrrep("two_dim", math.pi / 3), js.DihedralIrrep("two_dim", 2 * math.pi / 3)],
        )
        assert js.check_condition_star(rep) == {2: True}


class TestConditionI:
    def test_block_containment(self):
        t, rep = planted_dihedral(4, extra=("one_dim_pm",))
        ok, witness = js.check_condition_I(t, rep, sample_count=120, seed=0)
        assert ok and witness is None

    def test_different_group_fails_with_witness(self):
        rep = js.build_representation(js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2)])
        other = dihedral_pair(2 * math.pi / 3)
        ok, witness = js.check_condition_I(other, rep, sample_count=60, seed=0)
        assert not ok and witness is not None

    def test_conjugated_rep_contains_itself(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)], seed=2)
        t = js.MatrixTuple(rep.generators)
        ok, _ = js.check_condition_I(t, rep, sample_count=80, seed=1)
        assert ok


class TestConditionII:
    def test_conjugated_rep_true_everywhere(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)], seed=4)
        t = js.MatrixTuple(rep.generators)
        results, _ = js.check_condition_II(t, rep, sample_count=25, seed=0)
        assert all(results.values())

    def test_planted_blocks_avoiding_balls_true(self):
        t, rep = planted_dihedral(3, seed=9, extra=())
        results, _ = js.check_condition_II(t, rep, sample_count=25, seed=0)
        assert all(results.values())

    def test_planted_sheet_flips_exactly_one_ball(self):
        cm = js.dihedral(4)
        rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"])
        b1 = np.diag([0.3, -0.22])
        b2 = np.diag([0.925, 0.2])  # eigenvalue inside the eps-ball around zeta_2^+
        t = planted_tuple(rep, [b1, b2], seed=17)
        results, witnesses = js.check_condition_II(t, rep, epsilon=0.15, sample_count=30, seed=0)
        assert results[(2, 1)] is False
        assert results[(1, 1)] and results[(1, -1)] and results[(2, -1)]
        assert (2, 1) in witnesses


def planted_sheet():
    """Planted dihedral m=4 whose block puts a sheet through the ball at +e_2."""
    rep = js.build_representation(js.dihedral(4),
                                  [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"])
    return planted_tuple(rep, [np.diag([0.3, -0.22]), np.diag([0.925, 0.2])], seed=17), rep


SAMPLER_CASES = {
    "dihedral m=3": lambda: planted_dihedral(3),
    "dihedral m=4": lambda: planted_dihedral(4, extra=("one_dim_pm",)),
    "dihedral m=5": lambda: planted_dihedral(
        5, extra=(js.DihedralIrrep("two_dim", 4 * math.pi / 5),)),
    "A3": lambda: planted_geometric(a3_matrix(), seed=5),
    "planted sheet": planted_sheet,
}


def same_bits(got, want):
    """Equal bit for bit: both None, or arrays with the same bytes."""
    if got is None or want is None:
        return got is want
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestSamplersMatchTheOneLineOracles:
    """The chunked samplers keep the points, verdicts, witnesses and random
    stream of solving one line and testing one point at a time."""

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_spectrum_near_points_and_generator_state(self, case):
        t, rep = SAMPLER_CASES[case]()
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        for tup in (js.extended_tuple(t), js.extended_tuple(rep.as_tuple())):
            for j in range(t.n):
                for sign in (1, -1):
                    center = np.zeros(tup.n, dtype=complex)
                    center[j] = sign
                    got = coxeter._sample_spectrum_near(tup, center, 0.15, 40, rng)
                    want = oracles.sample_spectrum_near(tup.matrices, center, 0.15, 40,
                                                        oracle_rng)
                    assert len(got) == len(want)
                    assert all(same_bits(g, w) for g, w in zip(got, want))
                    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_condition_II_verdicts_and_witnesses(self, case):
        t, rep = SAMPLER_CASES[case]()
        got, got_w = js.check_condition_II(t, rep, sample_count=40, seed=1)
        want, want_w = oracles.condition_II(t.matrices, rep.as_tuple().matrices, 0.15, 40, 1)
        assert got == want
        assert got_w.keys() == want_w.keys()
        assert all(same_bits(got_w[k], want_w[k]) for k in want_w)
        if case == "planted sheet":
            assert list(got_w) == [(2, 1)]

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    @pytest.mark.parametrize("sample_count", [1, 120])
    def test_inclusion_both_ways(self, case, sample_count):
        # sample_count=1 takes one point, from the coordinate-plane lines
        t, rep = SAMPLER_CASES[case]()
        for src, dst in ((rep.as_tuple(), t), (t, rep.as_tuple())):
            ok, witness = coxeter._sampled_inclusion(src, dst, sample_count, 4)
            want_ok, want_witness = oracles.sampled_inclusion(src.matrices, dst.matrices,
                                                              sample_count, 4)
            assert ok == want_ok and same_bits(witness, want_witness)

    @pytest.mark.parametrize("sample_count", [1, 60])
    def test_condition_I_against_a_different_group(self, sample_count):
        rep = js.build_representation(js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2)])
        other = dihedral_pair(2 * math.pi / 3)
        ok, witness = js.check_condition_I(other, rep, sample_count=sample_count, seed=0)
        want_ok, want_witness = oracles.sampled_inclusion(rep.as_tuple().matrices,
                                                          other.matrices, sample_count, 0)
        assert not ok and not want_ok
        assert same_bits(witness, want_witness)


class TestInvariantSubspace:
    def test_planted_dimension_and_residuals(self):
        t, rep = planted_dihedral(4, extra=("one_dim_pm",))
        sub = js.extract_invariant_subspace(t)
        assert sub.dim == rep.dim
        assert max(sub.invariance_residuals) <= 1e-8

    def test_pure_representation_gives_everything(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
        t = js.MatrixTuple(rep.generators)
        assert js.extract_invariant_subspace(t).dim == 2

    def test_no_unit_eigenvalues_raises(self):
        t = js.MatrixTuple([np.diag([0.3, 0.5]), np.eye(2)])
        with pytest.raises(js.EmptySubspaceError):
            js.extract_invariant_subspace(t)


class TestVerifyRestriction:
    def test_planted(self):
        t, rep = planted_dihedral(5, seed=21, extra=())
        sub = js.extract_invariant_subspace(t)
        rr = js.verify_restriction(sub, rep.cm, rep=rep, seed=0)
        assert max(rr.unitary_residuals) <= 1e-7
        assert max(rr.selfadjoint_residuals) <= 1e-7
        assert max(rr.relation_residuals.values()) <= 1e-7
        assert rr.recovered_orders == {2: 5}
        assert rr.exponents_ok and rr.spectra_match and not rr.exponent_ambiguous
        # the (k, m) candidates recover m = 5 from the ellipse angle
        assert rr.exponent_candidates[2][0] == [(1, 5)]

    def test_trivial_restriction(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
        t = js.MatrixTuple(rep.generators)
        sub = js.extract_invariant_subspace(t)
        rr = js.verify_restriction(sub, rep.cm, rep=rep, seed=0)
        assert max(rr.unitary_residuals) <= 1e-12
        assert rr.recovered_orders == {2: 3}

    @pytest.mark.parametrize("restricted, compared", [
        ("with_line", "without_line"),
        ("without_line", "with_line"),
    ])
    def test_spectra_differ_in_either_direction(self, restricted, compared):
        # two_dim(pi/2) + one_dim_pm adds the line x1 - x2 = 1 to the ellipse
        # of two_dim(pi/2) alone; both have (g1 g2)^4 = 1
        cm = js.dihedral(4)
        irrep = js.DihedralIrrep("two_dim", math.pi / 2)
        reps = {"with_line": js.build_representation(cm, [irrep, "one_dim_pm"]),
                "without_line": js.build_representation(cm, [irrep])}
        sub = js.extract_invariant_subspace(reps[restricted].as_tuple())
        rr = js.verify_restriction(sub, cm, reps[compared], seed=0)
        assert rr.exponents_ok
        assert not rr.spectra_match
        x1, x2 = rr.spectra_witness
        assert abs(x1 - x2 - 1.0) <= 1e-8


class TestEquivalenceEvidence:
    def test_identical_inputs(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
        ev = js.equivalence_evidence(rep.generators, rep.generators, rep.cm)
        assert ev.max_discrepancy == 0.0

    def test_trivial_vs_sign(self):
        # trace arithmetic: tr(trivial(g1)) = 1, tr(sign(g1)) = -1
        cm = js.dihedral(3)
        triv = js.build_representation(cm, ["trivial"])
        sign = js.build_representation(cm, ["sign"])
        ev = js.equivalence_evidence(triv.generators, sign.generators, cm)
        assert abs(ev.max_discrepancy - 2.0) <= 1e-14
        assert len(ev.worst_word) == 1

    def test_planted_equivalence(self):
        t, rep = planted_dihedral(4, extra=("one_dim_pm",))
        sub = js.extract_invariant_subspace(t)
        ev = js.equivalence_evidence(sub.restrictions, rep.generators, rep.cm)
        assert ev.max_discrepancy <= 1e-7

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_elements_match_the_word_oracle_dihedral(self, m):
        # every element of I2(m), m <= 5, has a word of length <= 8
        t, rep = planted_dihedral(m, extra=("one_dim_pm",) if m % 2 == 0 else ("one_dim_pp",))
        sub = js.extract_invariant_subspace(t)
        ev = js.equivalence_evidence(sub.restrictions, rep.generators, rep.cm)
        assert ev.method == "group_elements" and ev.words_checked == 2 * m - 1
        oracle = word_character_gap(sub.restrictions, rep.generators, 8)
        assert abs(ev.max_discrepancy - oracle) <= 1e-12

    def test_elements_match_the_word_oracle_a3(self):
        # the longest element of A3 has length 6
        t, rep = planted_geometric(a3_matrix(), seed=11)
        sub = js.extract_invariant_subspace(t)
        ev = js.equivalence_evidence(sub.restrictions, rep.generators, rep.cm)
        assert ev.words_checked == 23
        oracle = word_character_gap(sub.restrictions, rep.generators, 8)
        assert abs(ev.max_discrepancy - oracle) <= 1e-12

    @pytest.mark.parametrize("cm, order", [
        (js.dihedral(3), 6), (js.dihedral(4), 8), (js.dihedral(5), 10), (js.dihedral(8), 16),
        (type_a(3), 24), (type_a(4), 120), (type_a(5), 720),
        (b4_matrix(), 384), (d4_matrix(), 192), (h3_matrix(), 120),
    ])
    def test_group_orders(self, cm, order):
        gens = geometric_representation(cm)
        conj = js.build_representation(cm, ["geometric"], seed=5).generators
        ev = js.equivalence_evidence(gens, conj, cm)
        assert ev.method == "group_elements"
        assert ev.words_checked + 1 == order
        assert ev.max_discrepancy <= 1e-12
        assert ev.relation_discrepancy <= 1e-10
        assert ev.separation >= 1.0

    def test_inequivalent_characters_differ(self):
        cm = a3_matrix()
        geo = js.build_representation(cm, ["geometric"])
        other = js.build_representation(cm, ["trivial", "sign", "sign"])
        ev = js.equivalence_evidence(geo.generators, other.generators, cm)
        assert ev.words_checked == 23
        assert ev.max_discrepancy >= 1.0
        # the longest element of A3 has length 6
        oracle = word_character_gap(geo.generators, other.generators, 6)
        assert abs(ev.max_discrepancy - oracle) <= 1e-12
        assert ev.relation_discrepancy <= 1e-10

    def test_broken_relation_is_measured(self):
        # g2 becomes another unitary reflection, so (g1 g2)^3 = 1 fails; traces
        # alone cannot see this, the edges of the Cayley graph do
        cm = a3_matrix()
        gens = geometric_representation(cm)
        u = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
        broken = list(gens)
        broken[1] = np.eye(3) - 2.0 * np.outer(u, u)
        assert js.opnorm(np.linalg.matrix_power(broken[0] @ broken[1], 3) - np.eye(3)) > 0.1
        ev = js.equivalence_evidence(broken, gens, cm)
        assert ev.method == "group_elements" and ev.words_checked == 23
        assert ev.relation_discrepancy >= 0.1

    def test_infinite_dihedral_takes_the_word_path(self):
        cm = js.dihedral(math.inf)
        rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", 1.0)])
        ev = js.equivalence_evidence(rep.generators, rep.generators, cm)
        assert ev.method == "words" and ev.separation is None
        assert ev.words_checked == 16  # 2 reduced words of each length 1..8
        assert ev.max_discrepancy == 0.0 and ev.relation_discrepancy <= 1e-12
        t = planted_tuple(rep, [np.diag([0.3, -0.22]), random_block(2, 0.3, 4)], seed=6)
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.dim_L == 2 and rig.equivalence.words_checked == 16
        assert rig.to_json()["equivalence"]["method"] == "words"

    def test_large_finite_group_takes_the_word_path(self, monkeypatch):
        monkeypatch.setattr(coxeter, "_MAX_GROUP_ORDER", 100)
        cm = type_a(4)
        gens = geometric_representation(cm)
        ev = js.equivalence_evidence(gens, gens, cm)
        assert ev.method == "words" and ev.separation is None
        assert ev.words_checked == sum(4 * 3 ** (k - 1) for k in range(1, 9))

    def test_unkeyable_elements_are_refused(self, monkeypatch):
        # keys at full precision split one element into several: the walk
        # must refuse rather than report a wrong group order
        monkeypatch.setattr(coxeter, "_KEY_DECIMALS", 17)
        cm = type_a(3)
        gens = geometric_representation(cm)
        with pytest.raises(js.ChamberSeparationError):
            js.equivalence_evidence(gens, gens, cm)


class TestRigidityPipeline:
    def test_positive_planted_instance(self):
        t, rep = planted_dihedral(4, extra=("one_dim_pm",))
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.applicable and rig.norms_ok
        assert rig.dim_L == rep.dim
        assert rig.equivalence.max_discrepancy <= 1e-6
        obj = rig.to_json()
        assert obj["applicable"] is True and obj["dim_L"] == rep.dim

    def test_duplicated_irrep_marks_not_applicable(self):
        cm = js.dihedral(5)
        rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", 2 * math.pi / 5)] * 2)
        b1 = np.diag([0.3, -0.25])
        t = planted_tuple(rep, [b1, random_block(2, 0.3, 3)], seed=13)
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.condition_star == {2: False}
        assert rig.condition_I and all(rig.condition_II.values())
        assert not rig.applicable

    @pytest.mark.parametrize("cm, order", [(type_a(5), 720), (b4_matrix(), 384),
                                           (d4_matrix(), 192)])
    def test_planted_rank_ge4(self, cm, order):
        # commuting generator pairs repeat a 1-dim character, so (*) fails;
        # L and the characters still match, on every element of W
        t, rep = planted_geometric(cm, seed=31)
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.dim_L == rep.dim
        ev = rig.equivalence
        assert ev.max_discrepancy <= 1e-6
        assert ev.words_checked == order - 1
        assert ev.relation_discrepancy <= 1e-10 and ev.separation >= 1.0
        assert rig.to_json()["equivalence"]["method"] == "group_elements"
