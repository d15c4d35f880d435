"""Tests for the pencil kernels: line roots, spectrum membership, curve sampling."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jointspec as js
from jointspec import pencil
from jointspec.fixtures import blowup_demo_pair, dihedral_pair, regular_random_pair

from oracles import line_roots_qz, pencil_at, quadratic_roots, real_slice_roots
from slices import count_solves, e1_line_roots


@pytest.fixture
def two_lines():
    # A1 = [[1,1],[0,1]], A2 = diag(1,-1): spectrum is the lines x1 = 1 -/+ x2
    return blowup_demo_pair()


class TestRootsSatisfyClosedForms:
    """Roots along e_1 are zeros of det(A(x) - I), here known in closed form."""

    X2S = [0.3, -2.0, 0.7, -0.4j, 0.2 + 0.3j]

    @pytest.mark.parametrize("tup, poly", [
        (js.MatrixTuple([np.eye(2), np.eye(2)]), lambda x1, x2: (x1 + x2 - 1) ** 2),
        (blowup_demo_pair(), lambda x1, x2: (x1 + x2 - 1) * (x1 - x2 - 1)),
        (dihedral_pair(0.7),
         lambda x1, x2: x1**2 + 2 * np.cos(0.7) * x1 * x2 + x2**2 - 1),
    ], ids=["scalar_pencil", "two_lines", "dihedral_ellipse"])
    def test_batch_roots_are_zeros(self, tup, poly):
        # the standard form of line_roots_batch and the ladders' QZ
        for solve in (js.line_roots_batch, pencil._qz_line_roots):
            for x2, r in zip(self.X2S, e1_line_roots(tup, self.X2S, solve)):
                assert r.size == 2  # every root of the dim-2 pencil is finite
                for x1 in r:
                    assert abs(poly(x1, x2)) <= 1e-12


def random_tuple(rng, dim, n=3):
    return js.MatrixTuple([rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                           for _ in range(n)])


def random_rows(rng, count, n=3):
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def finite_count(row):
    return int((~np.isnan(row)).sum())


def assert_matches_qz(table, want):
    """table has want's shape and nan padding, so every line has as many
    finite roots, and each root lies within 1e-10 (1 + |s|) of one of its
    line's roots in want, both ways."""
    assert table.dtype == complex and table.shape == want.shape
    assert (np.isnan(table) == np.isnan(want)).all()
    for got, ref in zip(table, want):
        got, ref = got[~np.isnan(got)], ref[~np.isnan(ref)]
        gaps = np.abs(got[:, None] - ref[None, :])
        assert (gaps.min(axis=1, initial=np.inf) <= 1e-10 * (1.0 + np.abs(got))).all()
        assert (gaps.min(axis=0, initial=np.inf) <= 1e-10 * (1.0 + np.abs(ref))).all()


def random_line_batch(dim):
    """A tuple with A_2 singular and twelve random lines; line 5 runs along
    e_2, so it has one infinite root."""
    rng = np.random.default_rng(dim)
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(3)]
    mats[1][:, 0] = 0.0
    bases, directions = random_rows(rng, 12), random_rows(rng, 12)
    directions[5] = (0.0, 1.0, 0.0)
    return js.MatrixTuple(mats), bases, directions


class TestLineRootsBatch:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_matches_qz_per_line(self, dim):
        t, bases, directions = random_line_batch(dim)
        table = js.line_roots_batch(t, bases, directions)
        assert table.shape == (12, dim)
        assert_matches_qz(table, line_roots_qz(t, bases, directions))
        assert dim - finite_count(table[5]) == 1
        # the width is the largest finite count, so a lone row 5 is one shorter
        assert js.line_roots_batch(t, bases[5:6], directions[5:6]).shape == (1, dim - 1)

    def test_chunking_does_not_change_roots(self):
        rng = np.random.default_rng(1)
        t = random_tuple(rng, 5)
        bases, directions = random_rows(rng, 10), random_rows(rng, 10)
        whole = js.line_roots_batch(t, bases, directions)
        parts = [r for lo, hi in ((0, 3), (3, 4), (4, 10))
                 for r in js.line_roots_batch(t, bases[lo:hi], directions[lo:hi])]
        singles = [js.line_roots_batch(t, [b], [d])[0] for b, d in zip(bases, directions)]
        for got in (parts, singles):
            assert [r.tobytes() for r in got] == [r.tobytes() for r in whole]

    def test_infinite_roots_are_the_padding(self, monkeypatch):
        # along e_1 the leading coefficient diag(1, 0) is singular: one
        # finite root and one infinite (mu == 0 exactly, no QZ); along e_2
        # it is I: two finite roots
        t = js.MatrixTuple([np.diag([1.0, 0.0]), np.eye(2)])
        bases, directions = [(0.0, 0.1), (0.3, 0.0)], [(1.0, 0.0), (0.0, 1.0)]
        solves = count_solves(monkeypatch)
        table = js.line_roots_batch(t, bases, directions)
        assert solves["ggev"] == []
        assert_matches_qz(table, line_roots_qz(t, bases, directions))
        assert table.shape == (2, 2)
        assert_allclose(table[0, 0], 0.9, atol=1e-12)
        assert np.isnan(table[0, 1])
        assert_allclose(np.sort_complex(table[1]), [0.7, 1.0], atol=1e-12)
        assert [t.dim - finite_count(row) for row in table] == [1, 0]

    def test_no_finite_root_gives_width_zero(self, monkeypatch):
        # A(direction) = 0, and a zero direction: every root of every line
        # is infinite, W = 0 and no line goes to QZ
        t = js.MatrixTuple([np.eye(3), np.zeros((3, 3))])
        solves = count_solves(monkeypatch)
        table = js.line_roots_batch(t, [(0.1, 0.0), (0.2, 0.5), (0.3, 0.1)],
                                    [(0.0, 1.0), (0.0, 2.0), (0.0, 0.0)])
        assert table.dtype == complex and table.shape == (3, 0)
        assert solves["ggev"] == []

    def test_failed_qz_raises(self, monkeypatch):
        real = scipy.linalg.get_lapack_funcs

        def failing(names, arrays):
            (ggev,) = real(names, arrays)

            def call(a, b, *args, **kwargs):
                out = ggev(a, b, *args, **kwargs)
                return out if kwargs.get("lwork") == -1 else (*out[:-1], 3)

            return (call,)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing)
        for solve, base in ((js.line_roots_batch, (0.0, 1.0)),  # singular: the QZ fallback
                            (pencil._qz_line_roots, (0.1, 0.2))):  # the ladders' solver
            with pytest.raises(np.linalg.LinAlgError, match=r"\(ggev\) failed: info=3"):
                solve(dihedral_pair(np.pi / 3), [base], [(1.0, 0.0)])

    def test_empty_stack(self):
        t = random_tuple(np.random.default_rng(3), 3)
        for empty in (np.zeros((0, 3)), []):
            table = js.line_roots_batch(t, empty, empty)
            assert table.dtype == complex and table.shape == (0, 0)

    def test_rows_must_match_the_tuple(self):
        t = random_tuple(np.random.default_rng(4), 3)
        with pytest.raises(js.DimensionMismatchError):
            js.line_roots_batch(t, [(0.0, 0.0)], [(1.0, 0.0)])
        with pytest.raises(js.DimensionMismatchError):
            js.line_roots_batch(t, np.zeros((2, 3)), np.ones((3, 3)))


class TestQzLineRoots:
    """The slice ladders' solver: every line by QZ, bit for bit as
    scipy.linalg.eigvals, the finiteness check and the workspace query made
    once per batch."""

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_equals_scipy_eigvals_bit_for_bit(self, dim):
        t, bases, directions = random_line_batch(dim)
        table = pencil._qz_line_roots(t, bases, directions)
        assert table.shape == (12, dim)
        assert table.tobytes() == line_roots_qz(t, bases, directions).tobytes()
        assert dim - finite_count(table[5]) == 1

    def test_non_finite_input_is_a_value_error(self):
        t = dihedral_pair(np.pi / 3)
        for solve in (pencil._qz_line_roots, js.line_roots_batch):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve(t, [(0.0, np.nan)], [(1.0, 0.0)])


class TestConditioningRule:
    """Lines whose I - A(base) is singular or ill conditioned are solved by
    QZ, the rest in the standard form.  The dihedral pair's I - A(0, +-1) is
    singular, and along e_1 its roots at x_2 = +-1 are 0 and -+1 (angle pi/3)."""

    T = dihedral_pair(np.pi / 3)

    def roots_and_qz_lines(self, monkeypatch, bases):
        solves = count_solves(monkeypatch)
        directions = [(1.0, 0.0)] * len(bases)
        table = js.line_roots_batch(self.T, bases, directions)
        assert_matches_qz(table, line_roots_qz(self.T, bases, directions))
        return table, sum(solves["ggev"])

    def test_singular_bases_are_solved_by_qz(self, monkeypatch):
        # (0, 1) is singular in the LU solve, so the whole batch goes to QZ;
        # (0, -1) alone is not, by rounding, and trips the growth bound
        for bases in ([(0.0, 1.0), (0.0, -1.0), (0.0, 0.5)], [(0.0, -1.0)]):
            table, qz = self.roots_and_qz_lines(monkeypatch, bases)
            assert qz == len(bases)
            for (_, x2), row in zip(bases, table):
                if abs(x2) == 1.0:
                    assert_allclose(row, sorted([0.0, -x2]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("offset", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6])
    def test_nearly_singular_bases_are_solved_by_qz(self, monkeypatch, offset):
        bases = [(0.0, 1.0 - offset), (0.0, 1.0 + offset), (0.0, -1.0 + offset),
                 (0.0, -1.0 - offset)]
        table, qz = self.roots_and_qz_lines(monkeypatch, bases)
        assert qz == 4
        c = np.cos(np.pi / 3)
        for (_, x2), row in zip(bases, table):
            want = quadratic_roots(1.0, 2.0 * c * x2, x2 * x2 - 1.0)
            assert_allclose(row, want, rtol=0, atol=1e-14)

    def test_well_conditioned_bases_take_the_standard_form(self, monkeypatch):
        _, qz = self.roots_and_qz_lines(monkeypatch, [(0.0, 1.0 - 1e-3), (0.0, -1.0 - 1e-3),
                                                      (0.0, 0.0), (0.0, 0.3)])
        assert qz == 0


class TestOpnorm:
    MATS = [
        np.eye(4), np.zeros((3, 3)), np.ones((5, 5)), np.diag([1e-300, 1.0, 1e300]),
        np.diag(np.ones(5), 1), np.array([[1.0, 1e8], [0.0, 1.0]]),
        dihedral_pair(0.7).matrices[1], np.array([[2.5]]), np.arange(12.0).reshape(3, 4),
    ]

    def test_equals_numpy_two_norm_bit_for_bit(self):
        rng = np.random.default_rng(6)
        mats = self.MATS + [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                            for n in (1, 2, 3, 5, 8, 16, 32)]
        for m in mats:
            want = np.linalg.norm(np.asarray(m, dtype=complex), 2)
            assert np.float64(js.opnorm(m)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
    def test_a_stack_equals_one_opnorm_each(self, dim):
        rng = np.random.default_rng(dim)
        mats = list(rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim)))
        mats.append(np.eye(dim))
        got = pencil._opnorms(mats)
        assert got.tobytes() == np.array([js.opnorm(m) for m in mats]).tobytes()


class TestSpectralMask:
    def test_agrees_with_one_svd_per_point(self):
        rng = np.random.default_rng(5)
        t = random_tuple(rng, 4, n=2)
        x2s = (-0.7, 0.2, 1.1)
        pts = [(x1, x2) for x2, r in zip(x2s, e1_line_roots(t, x2s)) for x1 in r]
        pts = np.array(pts + list(map(tuple, random_rows(rng, 6, n=2))))
        pts[3, 0] += 1e-7  # just off the spectrum
        got = js.spectral_mask(t, pts, 1e-9)
        for p, inside in zip(pts, got):
            s = np.linalg.svd(pencil_at(t.matrices, p) - np.eye(4), compute_uv=False)
            assert inside == (s[-1] <= 1e-9 * (1.0 + s[0]))
        assert got[:3].all() and not got[3] and not got[-6:].any()

    def test_two_lines(self, two_lines):
        # off the lines: det = (0.5+0.4-1)(0.5-0.4-1) = 0.09 != 0
        got = js.spectral_mask(two_lines, [(0.5, 0.5), (0.5, 0.4)], 1e-10)
        assert got.tolist() == [True, False]

    def test_identity_tuple(self):
        t = js.MatrixTuple([np.eye(2), np.eye(2)])
        assert js.spectral_mask(t, [(1, 0)], 1e-10)[0]

    def test_empty_and_nonpositive_tolerance(self, two_lines):
        assert js.spectral_mask(two_lines, [], 1e-9).shape == (0,)
        with pytest.raises(ValueError):
            js.spectral_mask(two_lines, [(1.0, 0.0)], 0.0)

    def test_point_shape_mismatch(self):
        t = js.MatrixTuple([np.eye(2), np.eye(2)])
        with pytest.raises(js.DimensionMismatchError):
            js.spectral_mask(t, [(1, 0, 0)], 1e-9)


class TestSliceRootsAlongE1:
    def test_two_lines(self, two_lines):
        r, = e1_line_roots(two_lines, [0.3])
        assert_allclose(sorted(r.real), [0.7, 1.3], atol=1e-12)
        assert r.size == 2  # no infinite root

    def test_dihedral_at_zero_gives_eigenvalue_reciprocals(self):
        r, = e1_line_roots(dihedral_pair(np.pi / 3), [0.0])
        assert_allclose(sorted(r.real), [-1.0, 1.0], atol=1e-12)

    def test_dihedral_quadratic_oracle(self):
        # roots of x^2 + 2 cos(pi/3) * 0.2 x + 0.04 - 1 = 0
        expected = quadratic_roots(1.0, 2 * np.cos(np.pi / 3) * 0.2, 0.2**2 - 1.0)
        r, = e1_line_roots(dihedral_pair(np.pi / 3), [0.2])
        assert_allclose(sorted(r, key=lambda z: z.real), expected, atol=1e-12)

    def test_multiplicity_preserved(self):
        r, = e1_line_roots(js.MatrixTuple([np.eye(2), np.eye(2)]), [0.25])
        assert_allclose(r, [0.75, 0.75], atol=1e-10)

    def test_singular_leading_matrix_reports_infinite(self):
        r, = e1_line_roots(js.MatrixTuple([np.diag([0.0, 1.0]), np.eye(2)]), [0.1])
        assert r.size == 1  # and one infinite root

    def test_matches_inverse_spectrum_at_zero(self):
        rng = np.random.default_rng(3)
        a1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r, = e1_line_roots(js.MatrixTuple([a1, np.eye(4)]), [0.0])
        expected = np.sort_complex(1.0 / np.linalg.eigvals(a1))
        assert_allclose(np.sort_complex(r), expected, atol=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
    def test_slice_roots_lie_on_spectrum(self, tre, tim):
        t = dihedral_pair(0.9)
        scale = complex(tre, tim)
        r, = e1_line_roots(t, [scale])
        assert js.spectral_mask(t, [(x1, scale) for x1 in r], 1e-9).all()


class TestSampleSpectrumCurve:
    def test_two_lines_points_on_lines(self, two_lines):
        pts = js.sample_spectrum_curve(two_lines, ((-2, 2), (-2, 2)), (21, 21))
        assert pts.dtype == complex and pts.shape[1] == 2 and len(pts) > 10
        for x1, x2 in pts:
            d = min(abs(x1 + x2 - 1), abs(x1 - x2 - 1))
            assert d <= 1e-8

    def test_circle(self):
        t = dihedral_pair(np.pi / 2)
        pts = js.sample_spectrum_curve(t, ((-2, 2), (-2, 2)), (31, 31))
        assert len(pts) > 10
        for x1, x2 in pts:
            assert abs(x1**2 + x2**2 - 1) <= 1e-7

    def test_every_point_is_spectral(self, two_lines):
        pts = js.sample_spectrum_curve(two_lines, ((-2, 2), (-2, 2)), (15, 15))
        assert js.spectral_mask(two_lines, pts, 1e-8).all()

    def test_zero_tuple_empty(self):
        t = js.MatrixTuple([np.zeros((2, 2)), np.zeros((2, 2))])
        assert js.sample_spectrum_curve(t, ((-2, 2), (-2, 2)), (9, 9)).shape == (0, 2)

    def test_sorted_deterministic(self, two_lines):
        pts = js.sample_spectrum_curve(two_lines, ((-2, 2), (-2, 2)), (15, 15))
        keys = [(x1.real, x1.imag, x2.real) for x1, x2 in pts]
        assert keys == sorted(keys)

    def test_returns_every_attributed_root(self):
        # oracle roots within 0.75 dx of an x1 grid node, inside the window,
        # deduplicated per column: exactly the points the sampler returns
        t, _ = regular_random_pair(11, 8)
        x1s = np.linspace(-2.0, 2.0, 61)
        dx = 4.0 / 60
        expected = []
        for x2 in np.linspace(-2.0, 2.0, 61):
            col = []
            for r in real_slice_roots(*t.matrices, x2):
                if (np.min(np.abs(r - x1s)) <= 0.75 * dx and -2.0 - 1e-9 <= r.real <= 2.0 + 1e-9
                        and all(abs(r - c) > 1e-8 * (1.0 + abs(r)) for c in col)):
                    col.append(r)
            expected.extend((r, x2) for r in col)
        got = js.sample_spectrum_curve(t, ((-2, 2), (-2, 2)), (61, 61))
        assert len(got) == len(expected)
        for x1, x2 in expected:
            assert min(abs(x1 - g[0]) + abs(x2 - g[1]) for g in got) <= 1e-9

    @pytest.mark.parametrize("window, grid, message", [
        (((-2, 2), (-2, 2)), (0, 41), "'grid' must be two positive integers"),
        (((-2, 2), (-2, 2)), (41.5, 41), "'grid' must be two positive integers"),
        (((-2, 2), (-2, 2)), (True, 41), "'grid' must be two positive integers"),
        (((-2, 2), (-2, 2)), (41,), "'grid' must be two positive integers"),
        (((2, -2), (-2, 2)), (41, 41), "'window' must be two [lo, hi] pairs"),
        (((-2, 2), (1, 1)), (41, 41), "'window' must be two [lo, hi] pairs"),
        (((-2, np.inf), (-2, 2)), (41, 41), "'window' must be two [lo, hi] pairs"),
        ((("a", 2), (-2, 2)), (41, 41), "'window' must be two [lo, hi] pairs"),
        (((-2, 2),), (41, 41), "'window' must be two [lo, hi] pairs"),
    ], ids=["zero_grid", "non_integer_grid", "bool_grid", "one_grid_size", "reversed_window",
            "empty_window", "infinite_window", "non_numeric_window", "one_window_pair"])
    def test_bad_window_or_grid_is_rejected(self, window, grid, message):
        with pytest.raises(ValueError) as exc:
            js.sample_spectrum_curve(dihedral_pair(np.pi / 3), window, grid)
        assert message in str(exc.value)

    def test_numpy_scalars_are_accepted(self):
        window = (np.array([-2.0, 2.0]), (np.float64(-2.0), 2))
        got = js.sample_spectrum_curve(dihedral_pair(np.pi / 3), window, (np.int64(21), 21))
        want = js.sample_spectrum_curve(dihedral_pair(np.pi / 3), ((-2, 2), (-2, 2)), (21, 21))
        assert got.tobytes() == want.tobytes()


class TestNoDeterminants:
    """Branch tracking, plot sampling and verify_pair compute no determinant."""

    @pytest.fixture(autouse=True)
    def forbid_det(self, monkeypatch):
        def det(*args, **kwargs):
            raise AssertionError("determinant computed")

        monkeypatch.setattr(np.linalg, "det", det)

    def test_local_branches_nonzero_kind(self):
        branches = js.local_branches(dihedral_pair(np.pi / 3), 1.0, [1.0])
        assert [b.kind for b in branches] == ["nonzero"]
        assert max(branches[0].residuals) <= 1e-9

    def test_local_branches_zero_kind(self):
        t = js.MatrixTuple([np.diag([0.0, 2.0]), np.eye(2)])
        branches = js.local_branches(t, 0.0, [1.0])
        assert [b.kind for b in branches] == ["zero"]
        assert max(branches[0].residuals) <= 1e-9

    def test_sample_spectrum_curve(self):
        assert js.sample_spectrum_curve(dihedral_pair(np.pi / 3), grid=(21, 21)).size

    def test_verify_pair(self):
        assert all(r.passed for r in js.verify_pair(dihedral_pair(np.pi / 3)))


class TestMatrixTuple:
    def test_json_round_trip(self):
        t = dihedral_pair(0.9)
        obj = t.to_json()
        back = js.MatrixTuple.from_json(obj)
        for a, b in zip(t.matrices, back.matrices):
            assert_allclose(a, b)
        assert obj["n"] == 2 and obj["N"] == 2

    def test_real_input_promoted(self):
        t = js.MatrixTuple([np.eye(2, dtype=float), np.eye(2, dtype=float)])
        assert all(m.dtype == complex for m in t.matrices)

    def test_shape_validation(self):
        with pytest.raises(js.DimensionMismatchError):
            js.MatrixTuple([np.eye(2), np.eye(3)])
        with pytest.raises(js.DimensionMismatchError):
            js.MatrixTuple([])


class TestNormalityReport:
    def test_diagonal_is_normal(self):
        rep = js.normality_report(np.diag([1.0, 2.0, 3.0]))
        assert rep.is_normal and rep.is_diagonalizable
        assert rep.commutator_norm <= rep.tolerance

    def test_jordan_block_is_neither(self):
        rep = js.normality_report(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not rep.is_normal
        assert not rep.is_diagonalizable

    def test_unitary_is_normal(self):
        th = 0.3
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert js.normality_report(u).is_normal
