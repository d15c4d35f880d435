"""Tests for Coxeter representations, the spectrum catalog, and rigidity."""

import functools
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import jointspec as js
from jointspec import coxeter, pencil
from jointspec.coxeter import (coxeter_type, geometric_representation, is_nonspecial,
                               random_unitary)
from jointspec.fixtures import dihedral_pair, planted_tuple
from jointspec.serialize import _report_text
import oracles
from oracles import group_character_gap, word_character_gap
from slices import count_solves, e1_line_roots

EQUIVALENCE_KEYS = {"max_discrepancy", "character_bound", "word_length",
                    "relation_discrepancy", "end_dim", "zero_margin", "gap"}


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


def e6_matrix():
    # Bourbaki numbering: the path 1-3-4-5-6 with 2 attached to 4
    edges = {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}
    return js.CoxeterMatrix([[1 if i == j else 3 if (min(i, j), max(i, j)) in edges else 2
                              for j in range(6)] for i in range(6)])


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
    diag = [0.28, -0.2 + 0.12j, 0.1 - 0.3j, -0.15 - 0.05j, 0.22 + 0.2j, -0.12 + 0.25j][: cm.n]
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

    @pytest.mark.parametrize("rows, message", [
        # 0 is no order; read as "inf" it would give the infinite dihedral group
        ([[1, 0], [0, 1]], "off-diagonal Coxeter orders must be >= 2"),
        ([[1, 1], [1, 1]], "off-diagonal Coxeter orders must be >= 2"),
        ([[0, 3], [3, 1]], "ones on the diagonal"),
        ([[1, 3], [4, 1]], "symmetric"),
    ])
    def test_from_json_refusals_name_the_field(self, rows, message):
        with pytest.raises(ValueError, match=f"^coxeter_matrix: .*{message}"):
            js.CoxeterMatrix.from_json(rows)

    @pytest.mark.parametrize("order", [math.nan, 10**400, True, "3"],
                             ids=["nan", "huge-integer", "bool", "string"])
    def test_from_json_refuses_orders_that_are_no_finite_number(self, order):
        # NaN is unequal to itself, and float() overflows on 10**400: refused
        # before either reaches the order checks
        with pytest.raises(ValueError, match="^coxeter_matrix must be a list of rows of "
                                             "finite numbers and 'inf'"):
            js.CoxeterMatrix.from_json([[1, order], [order, 1]])

    @pytest.mark.parametrize("order", [math.nan, 10**400, -math.inf, True, "3", None],
                             ids=["nan", "huge-integer", "minus-inf", "bool", "string", "none"])
    def test_init_refuses_orders_that_are_no_finite_number(self, order):
        # as from_json does: 10**400 raised OverflowError, NaN "not symmetric"
        with pytest.raises(ValueError, match="^coxeter_matrix must be a list of rows of "
                                             "finite numbers and 'inf'") as exc:
            js.CoxeterMatrix([[1, order], [order, 1]])
        assert type(exc.value) is ValueError

    def test_from_json_reads_an_infinite_number_as_inf(self):
        assert js.CoxeterMatrix.from_json([[1, math.inf], [math.inf, 1]]) == js.dihedral(math.inf)

    def test_type_classification(self):
        assert coxeter_type(js.dihedral(5)) == "dihedral"
        assert coxeter_type(a3_matrix()) == "A"
        assert coxeter_type(b3_matrix()) == "B"
        d4 = js.CoxeterMatrix([
            [1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
        assert coxeter_type(d4) == "D"
        assert is_nonspecial(js.dihedral(7))
        assert not is_nonspecial(h3_matrix())


# an A3 tuple against a representation of a dihedral group: each check
# refuses before it solves, with the same ValueError
@pytest.mark.parametrize("check", [js.check_condition_I, js.check_condition_II,
                                   js.rigidity_check])
def test_generator_count_mismatch_is_refused(check):
    tup = js.MatrixTuple(geometric_representation(a3_matrix()))
    rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
    with pytest.raises(ValueError) as exc:
        check(tup, rep)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "tuple and representation must have the same number of generators"


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
        c1, c2 = oracles.dihedral_component_catalog(js.DihedralIrrep("two_dim", math.pi / 2))
        assert c1.shape == "ellipse" and abs(c1.parameters[0]) <= 1e-15
        assert c2.shape == "gen_ellipse_z"
        assert abs(c1.evaluate(0.6, 0.8)) <= 1e-12          # on the circle
        assert abs(c2.evaluate(np.sqrt(2.0), 1.0)) <= 1e-12  # x1^2 - x2^2 = 1

    def test_one_dim_lines(self):
        line, gen = oracles.dihedral_component_catalog(js.DihedralIrrep("one_dim_pm"))
        assert line.parameters == (1.0, -1.0)
        assert gen.parameters == (1.0, -1.0)
        line_pp, gen_pp = oracles.dihedral_component_catalog(js.DihedralIrrep("one_dim_pp"))
        assert line_pp.parameters == (1.0, 1.0)
        assert abs(line_pp.evaluate(0.25, 0.75)) <= 1e-15

    @pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 4, 2 * math.pi / 5])
    def test_descriptor_samples_lie_on_spectrum(self, alpha):
        irr = js.DihedralIrrep("two_dim", alpha)
        cat_xy, cat_z = oracles.dihedral_component_catalog(irr)
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
        cat_xy, cat_z = oracles.dihedral_component_catalog(irr)
        g1, g2 = irr.generator_matrices
        rng = np.random.default_rng(1)
        for desc, pair in ((cat_xy, js.MatrixTuple([g1, g2])),
                           (cat_z, js.MatrixTuple([g1, g1 @ g2]))):
            for _ in range(100):
                t = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
                for x1 in e1_line_roots(pair, [t])[0]:
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
        ok, witness = js.check_condition_I(t, rep, seed=0)
        assert ok and witness is None

    def test_different_group_fails_with_witness(self):
        rep = js.build_representation(js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2)])
        other = dihedral_pair(2 * math.pi / 3)
        ok, witness = js.check_condition_I(other, rep, seed=0)
        assert not ok and witness is not None

    def test_conjugated_rep_contains_itself(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)], seed=2)
        t = js.MatrixTuple(rep.generators)
        ok, _ = js.check_condition_I(t, rep, seed=1)
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


def worst_root_match(src, dst, seed):
    """Largest min |s - s'| / (1 + |s|) over the finite roots s of src on
    the generic lines of seed, s' over dst's roots on the same line."""
    lines = coxeter._generic_lines(src.n, seed)
    bases = np.zeros(lines.shape)
    worst = 0.0
    for a, b in zip(js.line_roots_batch(src, bases, lines), js.line_roots_batch(dst, bases, lines)):
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        gaps = np.abs(a[:, None] - b).min(axis=1, initial=math.inf)
        worst = max(worst, float(np.max(gaps / (1.0 + np.abs(a)), initial=0.0)))
    return worst


def assert_witness(witness, src, dst):
    """witness is a point of sigma_p(src) outside sigma_p(dst)."""
    assert witness is not None
    assert js.spectral_mask(src, [witness], 1e-8).tolist() == [True]
    assert js.spectral_mask(dst, [witness], 1e-8).tolist() == [False]


def planted_as(summands, cm, seed):
    """A tuple planted with the summands of W(cm), blocks as planted_dihedral's."""
    return planted_tuple(js.build_representation(cm, summands),
                         [np.diag([0.3, -0.22 + 0.1j]), random_block(2, 0.3, seed)], seed=seed)


# Controls that miss exactly one component of rep's spectrum: rep's
# summands, then those the tuple is planted with.
MISSED_COMPONENT = {
    "one_dim_pm swapped for one_dim_mp": (
        js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"],
        [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_mp"]),
    "two_dim(2pi/5) rotated to two_dim(4pi/5)": (
        js.dihedral(5), [js.DihedralIrrep("two_dim", 2 * math.pi / 5), "one_dim_pp"],
        [js.DihedralIrrep("two_dim", 4 * math.pi / 5), "one_dim_pp"]),
}


class TestLineInclusion:
    """Condition (I) and spectra_match, decided root against root on the
    fixed generic lines, against the sampled-point oracle and on controls."""

    def test_lines(self):
        lines = coxeter._generic_lines(3, 0)
        assert lines.shape == (6, 3)
        assert_allclose(np.linalg.norm(lines, axis=1), 1.0, rtol=1e-15)
        assert np.all(lines[:4] != 0)
        assert [np.flatnonzero(u).tolist() for u in lines[4:]] == [[0, 1], [0, 2]]
        assert coxeter._generic_lines(3, 0).tobytes() == lines.tobytes()

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_verdicts_match_the_sampled_oracle(self, case):
        t, rep = SAMPLER_CASES[case]()
        for seed in range(10):
            for src, dst in ((rep.as_tuple(), t), (t, rep.as_tuple())):
                witness, back = coxeter._line_inclusion(src, dst, seed)
                want_ok, _ = oracles.sampled_inclusion(src.matrices, dst.matrices, 40, seed)
                assert (witness is None) == want_ok
                if witness is not None:
                    assert_witness(witness, src, dst)
                if back is not None:
                    assert_witness(back, dst, src)
            # rep is planted in t, and t adds the spectrum of its blocks
            assert js.check_condition_I(t, rep, seed=seed) == (True, None)

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_planted_roots_match_to_1e_12(self, case):
        t, rep = SAMPLER_CASES[case]()
        rt = js.MatrixTuple(js.extract_invariant_subspace(t).restrictions)
        for seed in range(50):
            assert worst_root_match(rep.as_tuple(), t, seed) <= 1e-12
            assert worst_root_match(rep.as_tuple(), rt, seed) <= 1e-12
            assert worst_root_match(rt, rep.as_tuple(), seed) <= 1e-12

    def test_condition_I_refuses_a_different_group(self):
        rep = js.build_representation(js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2)])
        other = dihedral_pair(2 * math.pi / 3)
        for seed in range(20):
            ok, witness = js.check_condition_I(other, rep, seed=seed)
            want_ok, _ = oracles.sampled_inclusion(rep.as_tuple().matrices, other.matrices,
                                                   60, seed)
            assert not ok and not want_ok
            assert_witness(witness, rep.as_tuple(), other)

    @pytest.mark.parametrize("control", MISSED_COMPONENT)
    def test_a_missed_component_is_refused(self, control):
        cm, summands, planted = MISSED_COMPONENT[control]
        rep = js.build_representation(cm, summands)
        for seed in range(50):
            t = planted_as(planted, cm, seed)
            ok, witness = js.check_condition_I(t, rep, seed=seed)
            assert not ok
            assert_witness(witness, rep.as_tuple(), t)
            sub = js.extract_invariant_subspace(t)
            assert sub.dim == rep.dim
            rr = js.verify_restriction(sub, cm, rep, seed=seed)
            assert not rr.spectra_match
            rt = js.MatrixTuple(sub.restrictions)
            on_rep, on_rt = (js.spectral_mask(tup, [rr.spectra_witness], 1e-8)[0]
                             for tup in (rep.as_tuple(), rt))
            assert on_rep != on_rt
            # the same planting of rep's own summands passes both checks
            same = planted_as(summands, cm, seed)
            assert js.check_condition_I(same, rep, seed=seed) == (True, None)
            assert js.verify_restriction(js.extract_invariant_subspace(same), cm, rep,
                                         seed=seed).spectra_match


def conjugated_rep():
    rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)],
                                  seed=4)
    return js.MatrixTuple(rep.generators), rep


def missed_component(control, seed):
    cm, summands, planted = MISSED_COMPONENT[control]
    return planted_as(planted, cm, seed), js.build_representation(cm, summands)


CONDITION_II_CASES = {
    **SAMPLER_CASES,
    **{control: functools.partial(missed_component, control, 3) for control in MISSED_COMPONENT},
    "conjugated rep": conjugated_rep,
}


class TestSamplersMatchTheOneLineOracles:
    """Condition (II), decided root against root on the same lines, gives
    the verdicts of sampling points one line at a time and testing each
    with an SVD."""

    @pytest.mark.parametrize("case", CONDITION_II_CASES)
    def test_condition_II_verdicts_and_witnesses(self, case):
        t, rep = CONDITION_II_CASES[case]()
        ext_t, ext_rep = js.extended_tuple(t), js.extended_tuple(rep.as_tuple())
        for seed in range(20):
            got, got_w = js.check_condition_II(t, rep, sample_count=40, seed=seed)
            want, _ = oracles.condition_II(t.matrices, rep.as_tuple().matrices, 0.15, 40, seed)
            assert got == want
            assert got_w.keys() == {k for k, ok in got.items() if not ok}
            for (j, sign), witness in got_w.items():
                center = np.zeros(ext_t.n)
                center[j - 1] = sign
                assert np.linalg.norm(witness - center) <= 0.15
                on_t, on_rep = (js.spectral_mask(tup, [witness], 1e-8)[0]
                                for tup in (ext_t, ext_rep))
                assert on_t != on_rep
            if case == "planted sheet":
                assert list(got_w) == [(2, 1)]

    @pytest.mark.parametrize("case", CONDITION_II_CASES)
    def test_verdicts_do_not_change_under_conjugation(self, case):
        t, rep = CONDITION_II_CASES[case]()
        for seed in range(10):
            got, _ = js.check_condition_II(js.MatrixTuple(conjugate_tuple(t.matrices, seed)), rep,
                                          seed=seed)
            assert got == js.check_condition_II(t, rep, seed=seed)[0]

    def test_two_line_solves_and_no_point_tests(self, monkeypatch):
        calls = []

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(coxeter, "line_roots_batch",
                            counted("line_roots_batch", coxeter.line_roots_batch))
        monkeypatch.setattr(pencil, "spectral_mask", counted("spectral_mask", pencil.spectral_mask))
        t, rep = planted_sheet()
        results, _ = js.check_condition_II(t, rep, sample_count=40, seed=0)
        assert calls == ["line_roots_batch"] * 2
        assert [k for k, ok in results.items() if not ok] == [(2, 1)]

    @pytest.mark.parametrize("kwargs, message", [
        ({"sample_count": 0}, "sample_count"), ({"sample_count": -5}, "sample_count"),
        ({"sample_count": True}, "sample_count"), ({"sample_count": 2.5}, "sample_count"),
        ({"epsilon": 0.0}, "epsilon"), ({"epsilon": -0.15}, "epsilon"),
        ({"epsilon": math.inf}, "epsilon"), ({"epsilon": math.nan}, "epsilon"),
        ({"epsilon": True}, "epsilon"),
    ])
    @pytest.mark.parametrize("check", [js.check_condition_II, js.rigidity_check])
    def test_bad_sampling_is_refused(self, check, kwargs, message):
        # sample_count=0 used to pass every ball of the planted sheet: no line, no witness
        t, rep = planted_sheet()
        with pytest.raises(ValueError, match=message):
            check(t, rep, **kwargs)


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


FINITE_GROUPS = [
    (js.dihedral(3), 6), (js.dihedral(4), 8), (js.dihedral(5), 10), (js.dihedral(8), 16),
    (type_a(3), 24), (type_a(4), 120), (type_a(5), 720),
    (b4_matrix(), 384), (d4_matrix(), 192), (h3_matrix(), 120),
]


def conjugate_tuple(gens, seed):
    u = random_unitary(gens[0].shape[0], np.random.default_rng(seed))
    return [u @ g @ u.conj().T for g in gens]


def fastest_decision(a, b, cm, repeats=3):
    """equivalence_evidence(a, b, cm) and its best wall time of a few calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ev = js.equivalence_evidence(a, b, cm)
        times.append(time.perf_counter() - start)
    return ev, min(times)


def perturbed_generator(gens, k, delta, seed=0):
    """gens with generator k conjugated by exp(delta K), K a fixed real skew matrix."""
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal(gens[0].shape)
    u = scipy.linalg.expm(delta * (skew - skew.T))
    out = list(gens)
    out[k] = u @ gens[k] @ u.T
    return out


class TestEquivalenceEvidence:
    def test_identical_inputs(self):
        rep = js.build_representation(js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
        ev = js.equivalence_evidence(rep.generators, rep.generators, rep.cm)
        assert ev.max_discrepancy <= 1e-14 and ev.zero_margin <= 1e-15
        assert ev.end_dim == 1 and ev.word_length == 3
        assert ev.words_checked == 0

    def test_trivial_vs_sign(self):
        # 1 x 1 tuples: U is a phase and |1 - (-1)| = 2 on each generator, the
        # character gap on a generator; the bound covers the 3 letters of w0
        cm = js.dihedral(3)
        triv = js.build_representation(cm, ["trivial"])
        sign = js.build_representation(cm, ["sign"])
        ev = js.equivalence_evidence(triv.generators, sign.generators, cm)
        assert abs(ev.max_discrepancy - 2.0) <= 1e-14
        assert abs(ev.character_bound - 6.0) <= 1e-13
        assert ev.end_dim == 1 and ev.zero_margin == 0.0 and ev.gap == math.inf

    @pytest.mark.parametrize("cm, order", FINITE_GROUPS)
    def test_group_orders(self, cm, order):
        gens = geometric_representation(cm)
        conj = js.build_representation(cm, ["geometric"], seed=5).generators
        gap, size, longest = group_character_gap(gens, conj, gens)
        assert size == order
        ev = js.equivalence_evidence(gens, conj, cm)
        assert gap <= 1e-12 and ev.max_discrepancy <= 1e-12 and ev.character_bound <= 1e-11
        assert ev.word_length == longest
        # the geometric representation is irreducible
        assert ev.end_dim == 1
        assert ev.zero_margin <= 1e-15 and ev.gap >= 0.3
        assert ev.relation_discrepancy <= 1e-10

    @pytest.mark.parametrize("other", ["negated", "trivial_and_signs"])
    @pytest.mark.parametrize("cm, order", FINITE_GROUPS)
    def test_inequivalent_pairs_agree_with_the_oracle(self, cm, order, other):
        geo = geometric_representation(cm)
        if other == "negated":
            b = [-g for g in geo]
        else:
            b = js.build_representation(cm, ["trivial"] + ["sign"] * (cm.n - 1)).generators
        gap, _, _ = group_character_gap(geo, b, geo)
        ev = js.equivalence_evidence(geo, b, cm)
        if other == "negated" and cm.n == 2:
            # sign times the reflection representation of I2(m) is a copy of it
            assert gap <= 1e-12 and ev.max_discrepancy <= 1e-12
        else:
            assert gap >= 0.05 and ev.max_discrepancy >= 0.05
            assert gap <= ev.character_bound

    # two distinct summands for the dihedral cases, the irreducible
    # geometric representation for A3
    @pytest.mark.parametrize("case, end", [("dihedral m=3", 2), ("dihedral m=4", 2),
                                           ("dihedral m=5", 2), ("A3", 1)])
    def test_planted_restrictions_agree_with_the_oracle(self, case, end):
        t, rep = SAMPLER_CASES[case]()
        sub = js.extract_invariant_subspace(t)
        ev = js.equivalence_evidence(sub.restrictions, rep.generators, rep.cm)
        gap, _, _ = group_character_gap(sub.restrictions, rep.generators,
                                        geometric_representation(rep.cm))
        assert ev.max_discrepancy <= 1e-12 and gap <= 1e-12
        assert ev.end_dim == end

    def test_inequivalent_characters_differ(self):
        cm = a3_matrix()
        geo = js.build_representation(cm, ["geometric"])
        other = js.build_representation(cm, ["trivial", "sign", "sign"])
        ev = js.equivalence_evidence(geo.generators, other.generators, cm)
        # End(trivial + 2 sign) is 1 + 2^2 dimensional
        assert ev.end_dim == 5
        assert ev.max_discrepancy >= 1.0
        # the longest element of A3 has length 6
        assert 1.0 <= word_character_gap(geo.generators, other.generators, 6) <= ev.character_bound
        assert ev.relation_discrepancy <= 1e-10

    def test_larger_commutant_with_as_many_intertwiners(self):
        # a = trivial + trivial, b = trivial + sign of I2(3): Hom(b, a) has
        # dimension 2 = dim End(b), yet no unitary U makes U b U* trivial on
        # the sign line, where each generator differs by 2
        cm = js.dihedral(3)
        a = js.build_representation(cm, ["trivial", "trivial"]).generators
        b = js.build_representation(cm, ["trivial", "sign"]).generators
        ev = js.equivalence_evidence(a, b, cm)
        assert ev.end_dim == 2
        assert abs(ev.max_discrepancy - 2.0) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_every_generator_counts(self, k):
        # on (Z/2)^3 the trivial character and the one that is -1 on generator
        # k differ on that generator only, by 2
        cm = js.CoxeterMatrix([[1 if i == j else 2 for j in range(3)] for i in range(3)])
        triv = js.build_representation(cm, ["trivial"]).generators
        other = [(-1.0 if i == k else 1.0) * np.eye(1, dtype=complex) for i in range(3)]
        ev = js.equivalence_evidence(triv, other, cm)
        assert abs(ev.max_discrepancy - 2.0) <= 1e-14

    def test_a_tuple_and_its_complex_conjugate(self):
        # three complex reflections of C^2 under no relation but s_k^2 = 1:
        # tr(s1 s2 s3) is not real, so the tuple is not a copy of its conjugate
        cm = js.CoxeterMatrix([[1 if i == j else math.inf for j in range(3)] for i in range(3)])
        rng = np.random.default_rng(8)
        gens = []
        for _ in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            gens.append(np.eye(2) - 2.0 * np.outer(v, v.conj()))
        assert abs(np.trace(gens[0] @ gens[1] @ gens[2]).imag) >= 0.1
        same = js.equivalence_evidence(gens, conjugate_tuple(gens, 3), cm)
        assert same.max_discrepancy <= 1e-12 and same.end_dim == 1
        conj = [g.conj() for g in gens]
        other = js.equivalence_evidence(gens, conj, cm)
        assert other.max_discrepancy >= 0.05 and other.word_length == 8
        assert 0.05 <= word_character_gap(gens, conj, 3) <= other.character_bound

    def test_broken_relation_is_measured(self):
        # g2 becomes another unitary reflection, so (g1 g2)^3 = 1 fails;
        # relation_discrepancy reads the defining-relation residuals
        cm = a3_matrix()
        gens = geometric_representation(cm)
        u = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
        broken = list(gens)
        broken[1] = np.eye(3) - 2.0 * np.outer(u, u)
        assert js.opnorm(np.linalg.matrix_power(broken[0] @ broken[1], 3) - np.eye(3)) > 0.1
        ev = js.equivalence_evidence(broken, gens, cm)
        assert ev.relation_discrepancy >= 0.1

    @pytest.mark.parametrize("delta", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
    def test_noise_in_the_candidate_is_measured_not_refused(self, delta):
        # b = geometric + sign of A3 has a 2-dimensional commutant; breaking
        # a's relations by delta leaves commutant values of a near delta,
        # which only b's may not have
        cm = a3_matrix()
        b = js.build_representation(cm, ["geometric", "sign"]).generators
        a = perturbed_generator(b, 0, delta)
        ev = js.equivalence_evidence(a, b, cm)
        assert ev.end_dim == 2 and ev.gap >= 0.3
        assert 0.1 * delta <= ev.max_discrepancy <= 10 * delta
        gap, _, _ = group_character_gap(a, b, geometric_representation(cm))
        assert gap <= ev.character_bound

    def test_e6_is_decided_in_milliseconds(self):
        # 51,840 elements: the decision costs one SVD of 216 x 36 and a 36 x 36
        # eigensolve
        cm = e6_matrix()
        geo = geometric_representation(cm)
        ev, seconds = fastest_decision(geo, conjugate_tuple(geo, 5), cm)
        assert ev.max_discrepancy <= 1e-12 and ev.end_dim == 1 and ev.word_length == 36
        assert ev.gap >= 0.2 and seconds < 0.05
        neg, seconds = fastest_decision(geo, [-g for g in geo], cm)
        assert neg.max_discrepancy >= 1.0 and seconds < 0.05

    def test_infinite_dihedral(self):
        cm = js.dihedral(math.inf)
        rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", 1.0)])
        ev, seconds = fastest_decision(rep.generators, conjugate_tuple(rep.generators, 2), cm)
        assert ev.max_discrepancy <= 1e-12 and ev.relation_discrepancy <= 1e-12
        assert ev.word_length == 8 and seconds < 0.05
        near = js.build_representation(cm, [js.DihedralIrrep("two_dim", 1.1)]).generators
        ev, seconds = fastest_decision(rep.generators, near, cm)
        assert ev.max_discrepancy >= 0.04 and seconds < 0.05
        # 2 |cos 1 - cos 1.1| on the word g1 g2
        assert 0.1 <= word_character_gap(rep.generators, near, 2) <= ev.character_bound

    def test_ambiguous_commutant_is_refused(self):
        # two_dim(1) + two_dim(1 + 1e-6) is nearly two copies of one summand:
        # its commutant has two values near 5e-7, neither zero nor clear of it
        cm = js.dihedral(math.inf)
        rep = js.build_representation(
            cm, [js.DihedralIrrep("two_dim", 1.0), js.DihedralIrrep("two_dim", 1.0 + 1e-6)])
        with pytest.raises(js.SeparationError, match=r"5\.000e-07"):
            js.equivalence_evidence(rep.generators, rep.generators, cm)

    def test_far_from_unitary_is_refused(self):
        # at norm 1e14 rounding hides the identity's null value (about 1e-2)
        cm = js.dihedral(math.inf)
        gens = [1e14 * random_block(3, 1.0, k) for k in range(2)]
        with pytest.raises(js.SeparationError, match="far from unitary"):
            js.equivalence_evidence(gens, gens, cm)

    def test_unequal_shapes_are_rejected(self):
        cm = js.dihedral(3)
        two = js.build_representation(cm, [js.DihedralIrrep("two_dim", 2 * math.pi / 3)])
        with pytest.raises(ValueError, match="equal shape"):
            js.equivalence_evidence(two.generators, two.generators[:1], cm)

    def test_dimension_above_the_supported_bound_is_rejected(self):
        cm = js.dihedral(math.inf)
        gens = [np.eye(33, dtype=complex)] * 2
        with pytest.raises(ValueError, match="up to 32, not 33"):
            js.equivalence_evidence(gens, gens, cm)


class TestNoLooserGate:
    """The intertwiner verdict rejects whatever the character gate rejected.

    One A3 generator is conjugated by exp(delta K).  character_bound bounds
    the largest character gap over W, and wherever that gap exceeds the 1e-6
    of the rigidity gates, the relations (at 1e-7) or max_discrepancy (at
    1e-6) must show it.
    """

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_perturbed_a3_generator(self, k):
        cm = a3_matrix()
        geo = geometric_representation(cm)
        rejected = 0
        for delta in 10.0 ** np.arange(-9, -2):
            perturbed = perturbed_generator(geo, k, delta, seed=k)
            gap, _, _ = group_character_gap(perturbed, geo, geo)
            ev = js.equivalence_evidence(perturbed, geo, cm)
            assert gap <= ev.character_bound, delta
            if gap > 1e-6:
                rejected += 1
                assert ev.relation_discrepancy > 1e-7 or ev.max_discrepancy > 1e-6, delta
        assert rejected >= 3


class TestRigidityPipeline:
    def test_positive_planted_instance(self):
        t, rep = planted_dihedral(4, extra=("one_dim_pm",))
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.applicable and rig.norms_ok
        assert rig.dim_L == rep.dim
        assert rig.equivalence.max_discrepancy <= 1e-6
        obj = rig.to_json()
        assert obj["applicable"] is True and obj["dim_L"] == rep.dim

    def test_every_line_in_the_standard_form(self, monkeypatch):
        # conditions (I) and (II) and spectra_match solve each tuple's lines
        # with one stacked eigvals and none by QZ: 5 generic lines, 4 balls
        # of 40.  One stacked SVD each: the generator norms, the invariance
        # residuals, the restriction's unitary and self-adjoint residuals,
        # its relation residuals (3 pairs), and in the equivalence test the
        # norms of both tuples and the relation residuals of each
        t, rep = planted_dihedral(4, extra=("one_dim_pm",))
        solves = count_solves(monkeypatch)
        js.rigidity_check(t, rep, seed=0)
        assert solves == {"ggev": [], "eigvals": [5, 5, 160, 160, 5, 5], "rank1": [],
                          "schur": 0, "svd": [2, 2, 4, 3, 4, 3, 3]}

    @pytest.mark.parametrize("control, order, candidates", [
        ("one_dim_pm swapped for one_dim_mp", 4, [[[1, 4]]]),
        ("two_dim(2pi/5) rotated to two_dim(4pi/5)", 5, [[[2, 5]]]),
    ])
    def test_report_carries_the_restriction_witness(self, control, order, candidates):
        t, rep = missed_component(control, 3)
        restriction = json.loads(_report_text(js.rigidity_check(t, rep).to_json()))["restriction"]
        assert restriction["spectra_match"] is False
        witness = [complex(re, im) for re, im in restriction["spectra_witness"]]
        rt = js.MatrixTuple(js.extract_invariant_subspace(t).restrictions)
        on_rep, on_rt = (js.spectral_mask(tup, [witness], 1e-8)[0] for tup in (rep.as_tuple(), rt))
        assert on_rep != on_rt
        assert restriction["expected_orders"] == {"2": order}
        assert restriction["exponent_candidates"] == {"2": candidates}

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
        # L is still a copy of the representation, on every element of W
        t, rep = planted_geometric(cm, seed=31)
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.dim_L == rep.dim
        ev = rig.equivalence
        assert ev.max_discrepancy <= 1e-12
        assert ev.end_dim == 1
        assert ev.relation_discrepancy <= 1e-10
        restricted = [rig.L_basis.conj().T @ m @ rig.L_basis for m in t.matrices]
        gap, size, longest = group_character_gap(restricted, rep.generators, rep.generators)
        assert gap <= 1e-12 and size == order and ev.word_length == longest
        assert set(rig.to_json()["equivalence"]) == EQUIVALENCE_KEYS

    def test_planted_e6(self):
        t, rep = planted_geometric(e6_matrix(), seed=31)
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.condition_I and all(rig.condition_II.values())
        assert rig.dim_L == 6 and not rig.applicable  # (*) fails for rank >= 4
        ev = rig.equivalence
        assert ev.max_discrepancy <= 1e-12 and ev.end_dim == 1 and ev.word_length == 36
        assert ev.relation_discrepancy <= 1e-10

    def test_planted_infinite_dihedral(self):
        cm = js.dihedral(math.inf)
        rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", 1.0)])
        t = planted_tuple(rep, [np.diag([0.3, -0.22]), random_block(2, 0.3, 4)], seed=6)
        rig = js.rigidity_check(t, rep, seed=0)
        assert rig.applicable and rig.dim_L == 2
        ev = rig.equivalence
        assert ev.max_discrepancy <= 1e-12 and ev.end_dim == 1 and ev.relation_discrepancy <= 1e-12
        obj = rig.to_json()["equivalence"]
        assert set(obj) == EQUIVALENCE_KEYS and obj["end_dim"] == 1 and obj["word_length"] == 8
