"""Tests for component projections, limits at t = 0, and blow-up diagnostics."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import jointspec as js
from jointspec import branches, projections, relations
from jointspec.fixtures import (
    blowup_demo_pair,
    commuting_diagonal_pair,
    dihedral_pair,
    random_normal_pair,
    regular_random_pair,
)
from jointspec.coxeter import random_unitary
from jointspec.projections import _spectral_projection

from oracles import (
    eigenprojection_2x2,
    eigenprojection_direct,
    exact_projection,
    quadrature_projection,
    rung_solves,
)
import oracles
import slices
from slices import count_solves


class TestRieszProjection:
    """The Schur kernel on matrices with known spectral projections."""

    def test_diagonal(self):
        p, rank, _ = _spectral_projection(np.diag([1.0, -1.0]), 1.0, 0.5)
        assert rank == 1
        assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_non_orthogonal_projection(self):
        m = np.array([[1.0, 1.0], [0.0, 2.0]])
        p, _, excluded = _spectral_projection(m, 1.0, 0.4)
        assert_allclose(excluded, [2.0], atol=1e-12)
        assert_allclose(p, [[1.0, -1.0], [0.0, 0.0]], atol=1e-11)
        assert_allclose(p, eigenprojection_2x2(m, 1.0), atol=1e-11)

    def test_perturbed_reflection_pair(self):
        g1, g2 = dihedral_pair(np.pi / 2).matrices
        m = g1 + 0.1 * g2
        evs = np.linalg.eigvals(m)
        top = evs[np.argmax(evs.real)]
        p, _, _ = _spectral_projection(m, top, 0.3)
        assert abs(np.trace(p) - 1.0) <= 1e-10
        assert_allclose(p, eigenprojection_direct(m, top, 0.3), atol=1e-9)

    def test_quadrature_exactness_on_random_diagonalizable(self):
        rng = np.random.default_rng(0)
        for _ in range(4):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            evs = np.linalg.eigvals(m)
            center = evs[0]
            radius = 0.45 * min(abs(e - center) for e in evs[1:])
            p, _, _ = _spectral_projection(m, center, radius)
            assert_allclose(p, eigenprojection_direct(m, center, radius), atol=1e-9)

    def test_radius_independence(self):
        m = np.diag([1.0, -1.0, 3.0])
        p1, _, _ = _spectral_projection(m, 1.0, 0.3)
        p2, _, _ = _spectral_projection(m, 1.0, 0.9)
        assert js.opnorm(p1 - p2) <= 1e-9

    def test_reordering_failure_is_a_separation_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("leading eigenvalues do not satisfy the sort condition")

        monkeypatch.setattr(scipy.linalg, "schur", fail)
        with pytest.raises(js.SeparationError):
            _spectral_projection(np.diag([1.0, 2.0]), 1.0, 0.5)

    def test_perturbed_sylvester_solve_is_refused(self, monkeypatch):
        # ztrsyl reports info = 1 when it had to perturb coinciding eigenvalues
        monkeypatch.setattr(projections, "ztrsyl", lambda *args, **kwargs: (np.ones((1, 1)), 1.0, 1))
        with pytest.raises(js.SeparationError):
            _spectral_projection(np.array([[1.0, 1.0], [0.0, 2.0]]), 1.0, 0.5)


class TestSchurOracle:
    """The Schur kernel against a trapezoid quadrature of the resolvent."""

    NODES = 128

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_random_nonnormal(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert not js.normality_report(m).is_normal
        evs = np.linalg.eigvals(m)
        center = evs[0]
        radius = 0.5 * np.min(np.abs(evs[1:] - center))
        p, _, _ = _spectral_projection(m, center, radius)
        ref = self.oracle(m, center, radius)
        assert js.opnorm(p - ref) <= 1e-10 * js.opnorm(ref)

    def test_blowup_demo_frozen_pencil(self):
        t = blowup_demo_pair()
        b = js.local_branches(t, 1.0, [1.0], t_max=0.1, samples=10)[0]
        cp = js.component_projection(t, b, 0.1)
        x1 = dict(b.samples)[0.1]
        m = x1 * t.matrices[0] + 0.1 * t.matrices[1]
        ref = self.oracle(m, 1.0, cp.radius)
        assert js.opnorm(cp.matrix - ref) <= 1e-10 * js.opnorm(ref)

    def oracle(self, m, center, radius):
        # converged: doubling the nodes does not move the quadrature
        ref = quadrature_projection(m, center, radius, self.NODES)
        finer = quadrature_projection(m, center, radius, 2 * self.NODES)
        assert js.opnorm(ref - finer) <= 1e-12 * js.opnorm(finer)
        return ref


class TestExactProjection:
    """Every ladder rung against a 40-digit eigendecomposition of the same pencil."""

    # measured: within 2.7e-12, 6.5e-12, 2.1e-16, 4.3e-12 and 1.0e-11 of it
    # (all rungs), in the order below.  One 40-digit eigendecomposition takes
    # about 0.8 s at N = 16 and 8 s at N = 32, so there only the finest rung
    # of each branch, the one nearest the collision, is checked
    @pytest.mark.parametrize("seed, dim, lam, bound", [
        (17, 4, 1.0, 1e-10), (5, 8, 1.0, 1e-10), (100, 4, 0.0, 1e-14), (3, 16, 1.0, 1e-10),
        (2, 32, 1.0, 1e-10),
    ])
    def test_ladder_rungs(self, seed, dim, lam, bound):
        t, _ = regular_random_pair(seed, dim, zero_eigenvalue=lam == 0.0)
        a1, a2 = t.matrices
        branches = js.local_branches(t, lam, [1.0])
        for b, ladder in zip(branches, js.projection_ladders(t, branches)):
            for cp in ladder if dim < 16 else ladder[-1:]:
                v = dict(b.samples)[cp.t]
                if b.kind == "zero":
                    exact = exact_projection(a1 + cp.t * a2 - v * np.eye(dim), 0.0, cp.radius)
                else:
                    exact = exact_projection(v * a1 + cp.t * a2, 1.0, cp.radius)
                assert js.opnorm(cp.matrix - exact) <= bound * js.opnorm(exact)


def _all_ladders(t):
    """(branch, ladder) at every eigenvalue of A1, along e_1 on the default ladder."""
    out = []
    for lam in js.spectral_resolution(t.matrices[0]).eigenvalues:
        branches = js.local_branches(t, lam, [1.0])
        out.extend(zip(branches, js.projection_ladders(t, branches)))
    return out


class TestRankOneKernel:
    """Projections z y* / (y* z) from the stacked inverse iteration."""

    @pytest.mark.parametrize("seed, dim, zero", [
        (5, 8, False), (7, 16, False), (3, 32, False), (100, 4, True),
    ])
    def test_matches_schur_kernel(self, seed, dim, zero):
        t, _ = regular_random_pair(seed, dim, zero_eigenvalue=zero)
        kinds = set()
        for b, ladder in _all_ladders(t):
            for (tk, v), cp in zip(b.samples, ladder):
                assert cp.rank == 1
                center = 0.0 if b.kind == "zero" else 1.0
                m = projections._frozen_pencil(t, b, tk, v)
                ref, rank, _ = _spectral_projection(m, center, 1e-6 * (1.0 + center))
                assert rank == 1
                assert js.opnorm(cp.matrix - ref) <= 1e-9 * js.opnorm(ref)
            kinds.add(b.kind)
        assert kinds == ({"nonzero", "zero"} if zero else {"nonzero"})

    @pytest.mark.parametrize("seed, dim, zero", [(17, 4, False), (5, 8, False), (100, 4, True)])
    def test_unitary_conjugation(self, seed, dim, zero):
        t, _ = regular_random_pair(seed, dim, zero_eigenvalue=zero)
        u = random_unitary(dim, np.random.default_rng(seed))
        conj = js.MatrixTuple([u.conj().T @ m @ u for m in t.matrices])
        before, after = _all_ladders(t), _all_ladders(conj)
        assert len(before) == len(after)
        for (_, lad), (_, lad_c) in zip(before, after):
            for cp, cp_c in zip(lad, lad_c):
                ref = u.conj().T @ cp.matrix @ u
                assert js.opnorm(cp_c.matrix - ref) <= 1e-9 * js.opnorm(ref)

    def test_radius_is_half_the_root_gap(self):
        # diag(1, 1), diag(0, 0.5): roots 1 and 1 - t/2, the frozen pencil of
        # the moving branch has eigenvalues 1 and 1 - t/2 exactly
        t = js.MatrixTuple([np.eye(2), np.diag([0.0, 0.5])])
        branches = js.local_branches(t, 1.0, [1.0])
        for b, ladder in zip(branches, js.projection_ladders(t, branches)):
            for (tk, v), cp in zip(b.samples, ladder):
                other = 1.0 if abs(v - 1.0) > 0.25 * tk else 1.0 - 0.5 * tk
                assert abs(cp.radius - 0.5 * abs(1.0 - v / other)) <= 1e-12

    def test_exactly_singular_frozen_pencil(self):
        # diagonal A1 and A2: F = diag(0, 1e-3 t) is singular in floating
        # point, and F - delta I is not
        ts = 1e-2 * 2.0 ** -np.arange(8)
        f = np.array([np.diag([0.0, 1e-3 * tk]) for tk in ts], dtype=complex)
        p, norms = projections._rank_one_projections(f)
        assert_allclose(p, np.broadcast_to(np.diag([1.0, 0.0]), p.shape), rtol=0, atol=1e-15)
        assert_allclose(norms, 1.0, rtol=1e-15)
        assert_allclose(projections._rank_one_projections(f[:, ::-1, ::-1])[0],
                        np.broadcast_to(np.diag([0.0, 1.0]), p.shape), rtol=0, atol=1e-15)

    def test_exactly_singular_ladder(self):
        # x_1 = 1 - t/2 is exact on the ladder t_k = 2^-k, so every frozen
        # pencil v A1 + t A2 - I = diag(0, -1/2) is exactly singular
        t = js.MatrixTuple([np.diag([1.0, 0.5]), np.diag([0.5, 0.25])])
        (b,) = js.local_branches(t, 1.0, [1.0], t_max=0.5)
        assert all(v == 1.0 - 0.5 * tk for tk, v in b.samples)
        for cp in js.projection_ladders(t, [b])[0]:
            assert cp.rank == 1
            assert_allclose(cp.matrix, np.diag([1.0, 0.0]), rtol=0, atol=1e-15)

    def test_unseparated_rung_takes_the_schur_kernel(self, monkeypatch):
        # the sibling root is 3e-6 away on the rung t = 6e-6, within
        # 2 own_tol = 4e-6, and 6e-6 away on t = 1.2e-5: only the close rung
        # reaches the Schur kernel, which refuses it as component_projection does
        calls = []
        schur = projections._spectral_projection

        def counted(*args):
            calls.append(args)
            return schur(*args)

        monkeypatch.setattr(projections, "_spectral_projection", counted)
        t = js.MatrixTuple([np.eye(2), np.diag([0.0, 0.5])])
        b = js.local_branches(t, 1.0, [1.0], t_max=1.2e-5, samples=2)[0]
        assert b.multiplicity == 1
        with pytest.raises(js.SeparationError, match="3.000e-06"):
            js.projection_ladders(t, [b])
        assert len(calls) == 1
        # the sibling within own_tol = 2e-6: the Schur kernel takes both roots
        cp = js.component_projection(t, b, 2e-6)
        assert len(calls) == 2 and cp.rank == 2


# random pairs at every benchmark size, with and without 0, and the shipped pairs
_SHARED_SOLVE_PAIRS = [
    *[(f"random-{dim}-{zero}", lambda dim=dim, zero=zero: random_normal_pair(dim, dim, zero))
      for dim in (4, 8, 16, 32) for zero in (False, True)],
    ("dihedral", lambda: dihedral_pair(np.pi / 3)),
    ("blowup", blowup_demo_pair),
    ("commuting", commuting_diagonal_pair),
]


def _oracle_projections(t, b):
    """(P, radius) at every rung of the simple branch b from its slice solved
    again with left and right eigenvectors by oracles.rung_solves (ggev
    against I for the zero kind): P = z y* / (y* z) at the root nearest the
    branch value, and half the distance from the branch eigenvalue to the
    frozen pencil's nearest other eigenvalue, v beta / alpha for the
    nonzero kind."""
    alpha, beta, vl, vr = rung_solves(t.matrices, b.kind, b.direction,
                                      [tk for tk, _ in b.samples])
    out = []
    for k, (_, v) in enumerate(b.samples):
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = alpha[k] / beta[k] - v if b.kind == "zero" else v * beta[k] / alpha[k] - 1.0
        own = int(np.argmin(np.abs(shift)))
        z, y = vr[k][:, own], vl[k][:, own].conj()
        out.append((np.outer(z, y) / (y @ z), 0.5 * np.min(np.delete(np.abs(shift), own))))
    return out


class TestRungOracle:
    """The slice ladder and the rank-1 kernel against the oracle's own solve
    of every rung."""

    @pytest.mark.parametrize("name, make", _SHARED_SOLVE_PAIRS,
                             ids=[name for name, _ in _SHARED_SOLVE_PAIRS])
    def test_ladder_roots_equal_the_solve_with_vectors(self, name, make):
        # ggev's roots do not depend on whether it computes vectors: the
        # ladder's nonzero kind is the oracle's, sorted, bit for bit
        t = make()
        a1, a2 = t.matrices
        for tt in (t, js.MatrixTuple([a1, a1 @ a2])):
            ladder = slices.ladder(tt)
            if "nonzero" in ladder.roots:
                alpha, beta, _, _ = rung_solves(tt.matrices, "nonzero", [1.0], ladder.ts)
                for got, a, b in zip(ladder.roots["nonzero"], alpha, beta):
                    want = a[b != 0] / b[b != 0]
                    want = np.sort_complex(want[np.isfinite(want)])
                    # the finite roots, then the table's nan padding
                    assert got[:want.size].tobytes() == want.tobytes()
                    assert np.isnan(got[want.size:]).all()

    # every eigenvalue but at N = 32, where lambda = 1 as in the verify-large benchmark;
    # verify_pair refuses the non-normal blow-up pair before it solves a slice.
    # Measured (relative, operator norm): the nonzero kind's P within 1.4e-10
    # of the oracle's at the near-double eigenvalue 1 of the random pairs
    # (both kernels err by about eps / gap there) and its radius within
    # 7.2e-12 (v / v_i against v beta / alpha); the zero kind's P within
    # 1.0e-15 and its radius within 1.4e-15
    @pytest.mark.parametrize("name, make, lam", [
        pytest.param(name, make, 1.0 if name.startswith("random-32") else None, id=name)
        for name, make in _SHARED_SOLVE_PAIRS if name != "blowup"
    ])
    def test_verify_pair_projections(self, name, make, lam, monkeypatch):
        t = make()
        made = []
        rung_stack = relations._rung_stack

        def kept(tt, bs):
            made.append((tt, bs, rung_stack(tt, bs)))
            return made[-1][2]

        monkeypatch.setattr(relations, "_rung_stack", kept)
        js.verify_pair(t, lam=lam)
        assert made
        for tt, bs, (stack, ranks, radii, _) in made:
            assert all(b._rung_roots is not None and b.multiplicity == 1 for b in bs)
            assert len(stack) == len(ranks) == len(radii) == sum(len(b.samples) for b in bs)
            rows = iter(zip(stack, ranks, radii))
            for b in bs:
                bound = 1e-9 if b.kind == "nonzero" else 1e-14
                # the oracle's rows first: zip stops there and leaves rows at the next branch
                for (p, radius), (got, rank, got_radius) in zip(_oracle_projections(tt, b), rows):
                    assert rank == 1
                    assert js.opnorm(got - p) <= bound * js.opnorm(p)
                    assert abs(got_radius - radius) <= bound * radius


class TestComponentProjection:
    def test_dihedral_rank_one(self):
        t = dihedral_pair(np.pi / 3)
        b = js.local_branches(t, 1.0, [1.0])[0]
        cp = js.component_projection(t, b, 0.01)
        assert cp.rank == 1
        assert cp.idempotency_residual <= 1e-10
        # 2x2 closed-form eigenprojection oracle at the same frozen pencil
        x1 = dict(b.samples)[0.01]
        m = x1 * t.matrices[0] + 0.01 * t.matrices[1]
        assert_allclose(cp.matrix, eigenprojection_2x2(m, 1.0), atol=1e-9)

    def test_commuting_diagonal_exact(self):
        t = commuting_diagonal_pair()
        b = [bb for bb in js.local_branches(t, 1.0, [1.0]) if bb.d1.real < 0][0]
        cp = js.component_projection(t, b, 0.005)
        assert_allclose(cp.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_nonnormal_demo_matches_closed_form(self):
        # P(t) = [[1, (1-t)/(2t)], [0, 0]] on the branch x1 = 1 - t
        t = blowup_demo_pair()
        branches = js.local_branches(t, 1.0, [1.0], t_max=0.1, samples=10)
        b = [bb for bb in branches if abs(bb.d1 + 1) < 1e-6][0]
        cp = js.component_projection(t, b, 0.1)
        assert_allclose(cp.matrix, [[1.0, 4.5], [0.0, 0.0]], atol=1e-10)

    def test_annihilation_identity(self):
        # (A(y_j(t)) - I) P_j(t) = 0 = P_j(t) (A(y_j(t)) - I) for simple branches
        t = dihedral_pair(1.1)
        b = js.local_branches(t, 1.0, [1.0])[0]
        for tk, v in b.samples[:4]:
            cp = js.component_projection(t, b, tk)
            m = v * t.matrices[0] + tk * t.matrices[1] - np.eye(2)
            assert js.opnorm(m @ cp.matrix) <= 1e-8
            assert js.opnorm(cp.matrix @ m) <= 1e-8

    def test_rank_equals_multiplicity_two(self):
        t = js.MatrixTuple([np.diag([1.0, 1.0]), np.eye(2)])
        b = js.local_branches(t, 1.0, [1.0])[0]
        assert b.multiplicity == 2
        cp = js.component_projection(t, b, 0.01)
        assert cp.rank == 2


    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_solves_nothing_at_a_kept_rung_and_once_off_the_ladder(self, lam, monkeypatch):
        t, _ = regular_random_pair(100, 4, zero_eigenvalue=True)
        branches = js.local_branches(t, lam, [1.0])
        ladders = js.projection_ladders(t, branches)
        solves = count_solves(monkeypatch)
        b = branches[0]
        tk = b.samples[3][0]
        assert js.component_projection(t, b, tk).to_json() == ladders[0][3].to_json()
        assert solves == {"ggev": [], "eigvals": [], "rank1": [1], "schur": 0, "svd": [1]}
        # tracked without kept rung roots, or off the ladder: one one-rung
        # solve for roots, which also gives the branch value off the ladder
        alone = dataclasses.replace(b, _rung_roots=None)
        assert js.component_projection(t, alone, tk).to_json() == ladders[0][3].to_json()
        js.component_projection(t, b, 0.75 * tk)
        solved = {"nonzero": "ggev", "zero": "eigvals"}[b.kind]
        assert solves == {"ggev": [], "eigvals": [], **{solved: [1, 1]}, "rank1": [1] * 3,
                          "schur": 0, "svd": [1] * 3}

    def test_unseparated_component_refused(self):
        # the sibling branch of diag(0, 0.5) is 3e-6 away at t = 6e-6: outside
        # own_tol = 2e-6 but within 2 own_tol, so no cluster is separated
        t = js.MatrixTuple([np.eye(2), np.diag([0.0, 0.5])])
        b = js.local_branches(t, 1.0, [1.0])[0]
        with pytest.raises(js.SeparationError, match="3.000e-06"):
            js.component_projection(t, b, 6e-6)
        assert js.component_projection(t, b, 1e-5).rank == 1


class TestLimitProjection:
    def test_dihedral_limit_is_eigenprojection(self):
        for alpha in (0.4, np.pi / 3, 2.2):
            t = dihedral_pair(alpha)
            b = js.local_branches(t, 1.0, [1.0])[0]
            lp = js.limit_projection(t, b)
            assert_allclose(lp.matrix, np.diag([1.0, 0.0]), atol=1e-8)

    def test_commuting_diagonal_limits(self):
        t = commuting_diagonal_pair()
        limits = sorted(
            (js.limit_projection(t, b) for b in js.local_branches(t, 1.0, [1.0])),
            key=lambda lp: lp.matrix[0, 0].real,
        )
        assert_allclose(limits[1].matrix, np.diag([1.0, 0.0]), atol=1e-9)
        assert_allclose(limits[0].matrix, np.diag([0.0, 1.0]), atol=1e-9)

    def test_idempotency_and_commutation(self):
        t = dihedral_pair(0.9)
        a1 = t.matrices[0]
        for b in js.local_branches(t, -1.0, [1.0]):
            lp = js.limit_projection(t, b)
            p = lp.matrix
            assert js.opnorm(p @ p - p) <= 1e-7
            assert js.opnorm(a1 @ p - b.lam * p) <= 1e-7
            assert js.opnorm(p @ a1 - b.lam * p) <= 1e-7

    @pytest.mark.parametrize("seed, dim, zero", [
        (17, 4, False), (5, 8, False), (100, 4, True), (2, 32, False),
    ])
    def test_analyze_pair_limits_equal_limit_projection(self, seed, dim, zero):
        t, _ = regular_random_pair(seed, dim, zero_eigenvalue=zero)
        for lam in ([1.0, 0.0] if zero else [1.0]):
            analysis = js.analyze_pair(t, lam)
            assert len(analysis.limits) == len(analysis.branches)
            for b, lp in zip(analysis.branches, analysis.limits):
                alone = js.limit_projection(t, b)
                assert lp.matrix.tobytes() == alone.matrix.tobytes()
                assert lp.derivative.tobytes() == alone.derivative.tobytes()
                assert lp.to_json() == alone.to_json()

    def test_blowup_detected(self):
        t = blowup_demo_pair()
        b = js.local_branches(t, 1.0, [1.0], t_max=0.1, samples=10)[0]
        with pytest.raises(js.ProjectionBlowupError) as exc:
            js.limit_projection(t, b)
        assert abs(exc.value.exponent + 1.0) <= 0.05

    def test_oracle_equivalence_at_small_t(self):
        # Richardson limit vs direct eigenprojection of the pencil at t = 1e-6
        t = dihedral_pair(np.pi / 5)
        b = js.local_branches(t, 1.0, [1.0])[0]
        lp = js.limit_projection(t, b)
        tt = 1e-6
        x1 = 1.0 + b.d1 * tt + 0.5 * b.d2 * tt * tt
        m = x1 * t.matrices[0] + tt * t.matrices[1]
        evs = np.linalg.eigvals(m)
        target = evs[np.argmin(np.abs(evs - 1.0))]
        direct = eigenprojection_direct(m, target, 1e-8)
        assert js.opnorm(lp.matrix - direct) <= 1e-6


# (tuple, eigenvalue, local_branches keywords): rank-1 projections of both
# kinds, a Schur projection of a repeated branch, and the blow-up pair
_STACK_CASES = [
    pytest.param(lambda: regular_random_pair(5, 8)[0], 1.0, {}, id="N8"),
    pytest.param(lambda: regular_random_pair(100, 4, zero_eigenvalue=True)[0], 0.0, {},
                 id="zero-kind"),
    pytest.param(lambda: js.MatrixTuple([np.diag([1.0, 1.0, 2.0]), np.eye(3)]), 1.0, {},
                 id="repeated"),
    pytest.param(blowup_demo_pair, 1.0, {"t_max": 0.1, "samples": 10}, id="blowup"),
]


class TestClosedForm:
    """Every simple nonzero branch of regular_random_pair seeds 1-4 against
    d1 = -u* A_2 u / lam and P(0) = u u* (oracles.simple_branch_closed_form).

    Over these 388 branches the largest deviations measured 2.79e-11 (d1,
    against 1 + |d1|) and 1.30e-15 (P, largest entry) with the recursive
    tableau, and 2.79e-11 and 1.54e-15 with the coefficient-row kernel; the
    bounds are 1.8x and 1.9x the first.
    """

    D1_BOUND = 5e-11
    P_BOUND = 2.5e-15

    @pytest.mark.parametrize("dim", [8, 16, 32])
    @pytest.mark.parametrize("zero", [False, True])
    def test_simple_branches(self, dim, zero):
        for seed in range(1, 5):
            t, _ = regular_random_pair(seed, dim, zero_eigenvalue=zero)
            a1, a2 = t.matrices
            res = js.spectral_resolution(a1)
            lams = [lam for lam, m in zip(res.eigenvalues, res.multiplicities)
                    if m == 1 and abs(lam) > 1e-12]
            # every branch on one ladder and one stacked extrapolation, as
            # verify_pair's gate; a simple eigenvalue has one branch
            reports = branches._regularity_reports(t, slices.ladder(t))
            found = [rep.branches[0] for rep in reports
                     if len(rep.branches) == 1 and abs(rep.lam) > 1e-12]
            _, limits = projections._limits(found, projections._rung_stack(t, found))
            assert len(found) == len(lams) == dim - 2 - zero
            for b, lp in zip(found, limits):
                d1, p = oracles.simple_branch_closed_form(a1, a2, b.lam)
                assert abs(b.d1 - d1) <= self.D1_BOUND * (1.0 + abs(d1))
                assert np.abs(lp.matrix - p).max() <= self.P_BOUND


class TestRungStack:
    """The branch-major stack of rung projections that the limits read, and
    the ComponentProjections built from it where they are reported."""

    @pytest.mark.parametrize("make, lam, kw", _STACK_CASES)
    def test_projection_ladders_equal_the_stack(self, make, lam, kw):
        t = make()
        branches = js.local_branches(t, lam, [1.0], **kw)
        stack, ranks, radii, norms = projections._rung_stack(t, branches)
        ladders = js.projection_ladders(t, branches)
        got = [cp for ladder in ladders for cp in ladder]
        assert len(got) == len(stack) == sum(len(b.samples) for b in branches)
        assert np.array([cp.matrix for cp in got]).tobytes() == stack.tobytes()
        assert [cp.rank for cp in got] == ranks
        assert [cp.radius for cp in got] == radii
        assert norms.shape == (len(stack),)
        assert [[cp.t for cp in ladder] for ladder in ladders] == [
            [tk for tk, _ in b.samples] for b in branches]

    @staticmethod
    def schur_norms(branches):
        """The SVD stacks of the rung norms: one of the Schur kernel's rows
        (the repeated branch's rungs), none when every rung is rank 1."""
        rows = sum(len(b.samples) for b in branches if b.multiplicity > 1)
        return [rows] if rows else []

    @pytest.mark.parametrize("make, lam, kw", _STACK_CASES)
    def test_projection_ladders_take_one_idempotency_stack(self, make, lam, kw, monkeypatch):
        t = make()
        branches = js.local_branches(t, lam, [1.0], **kw)
        solves = count_solves(monkeypatch)
        js.projection_ladders(t, branches)
        assert solves["svd"] == self.schur_norms(branches) + [
            sum(len(b.samples) for b in branches)]

    @pytest.mark.parametrize("make, lam, kw", _STACK_CASES[:3])
    def test_limit_projection_takes_no_svd_over_rung_projections(self, make, lam, kw,
                                                                 monkeypatch):
        # the rank-1 kernel gives its rungs' norms: one stack of the limit's
        # idempotency, after one of the Schur rows' norms if there are any
        t = make()
        b = js.local_branches(t, lam, [1.0], **kw)[0]
        solves = count_solves(monkeypatch)
        js.limit_projection(t, b)
        assert solves["svd"] == self.schur_norms([b]) + [1]

    def test_mixed_kinds_with_a_repeated_branch(self):
        # the simple zero-kind branch at 0 and the double branch at 1 share
        # one rung stack, where only the branch at 0 has rank-1 rows; the
        # call gives what the two eigenvalues give one at a time
        t = js.MatrixTuple([np.diag([0.0, 1.0, 1.0]), np.eye(3)])
        at_zero, at_one = js.local_branches(t, 0.0, [1.0]), js.local_branches(t, 1.0, [1.0])
        ladders = js.projection_ladders(t, at_zero + at_one)
        assert [[cp.rank for cp in ladder] for ladder in ladders] == [[1] * 8, [2] * 8]
        alone = js.projection_ladders(t, at_zero) + js.projection_ladders(t, at_one)

        def rows(ladders):
            return [[(cp.branch_index, cp.lam, cp.kind, cp.t, cp.rank, cp.radius,
                      cp.matrix.tobytes()) for cp in ladder] for ladder in ladders]

        assert rows(ladders) == rows(alone)

    @pytest.mark.parametrize("make, lam, kw", _STACK_CASES[:3])
    def test_limits_leave_the_stack_unchanged(self, make, lam, kw):
        # the quotients of P'(0) overwrite a copy that _limits owns, so a
        # ComponentProjection that views the stack keeps its matrix
        t = make()
        branches = js.local_branches(t, lam, [1.0], **kw)
        rungs = projections._rung_stack(t, branches)
        before = rungs.stack.copy()
        projections._limits(branches, rungs)
        assert rungs.stack.tobytes() == before.tobytes()


# (tuple, eigenvalues, local_branches keywords) for the rung norms: both kinds
# at N = 4..32, the blow-up pair, whose norms grow like 1/t, and a repeated
# branch, whose rungs take the Schur kernel
_NORM_CASES = [
    *[pytest.param(lambda dim=dim, zero=zero: regular_random_pair(dim, dim,
                                                                  zero_eigenvalue=zero)[0],
                   None, {}, False, id=f"random-{dim}-{zero}")
      for dim in (4, 8, 16, 32) for zero in (False, True)],
    pytest.param(blowup_demo_pair, [1.0], {"t_max": 0.1, "samples": 10}, False, id="blowup"),
    pytest.param(lambda: js.MatrixTuple([np.diag([1.0, 1.0, 2.0]), np.eye(3)]), None, {}, True,
                 id="repeated"),
]


class TestRungNorms:
    """The rung norms of the rank-1 kernel, 1 / |y* z|, against an SVD of
    every rung projection."""

    @pytest.mark.parametrize("make, lams, kw, repeated", _NORM_CASES)
    def test_kernel_norms_equal_the_svd(self, make, lams, kw, repeated, monkeypatch):
        t = make()
        lams = lams or [c for c, _ in slices.ladder(t).reference]
        schur_rows = 0
        for lam in lams:
            branches = js.local_branches(t, lam, [1.0], **kw)
            solves = count_solves(monkeypatch)
            rungs = projections._rung_stack(t, branches)
            monkeypatch.undo()
            want = oracles.operator_norms(rungs.stack)
            assert np.all(np.abs(rungs.norms - want) <= 1e-14 * want)
            # only the Schur kernel's rows, those of a repeated branch here,
            # take an SVD for their norms
            schur = sum(len(b.samples) for b in branches if b.multiplicity > 1)
            assert solves["schur"] == schur
            assert solves["svd"] == ([schur] if schur else [])
            schur_rows += schur
        assert (schur_rows > 0) == repeated


class TestNormProfile:
    def test_demo_exponent_and_closed_form(self):
        t = blowup_demo_pair()
        branches = js.local_branches(t, 1.0, [1.0], t_max=0.1, samples=10)
        b = [bb for bb in branches if abs(bb.d1 + 1) < 1e-6][0]
        prof = oracles.projection_norm_profile(t, b)
        assert abs(prof.exponent + 1.0) <= 0.05
        # closed-form norm oracle: || [[1, g],[0,0]] || = sqrt(1 + g^2), g = (1-t)/2t
        for tk, norm in prof.points:
            g = (1.0 - tk) / (2.0 * tk)
            assert abs(norm - np.sqrt(1.0 + g * g)) <= 1e-8 * (1.0 + abs(g))

    def test_dihedral_profile_bounded(self):
        t = dihedral_pair(np.pi / 3)
        b = js.local_branches(t, 1.0, [1.0])[0]
        prof = oracles.projection_norm_profile(t, b)
        assert abs(prof.exponent) <= 0.05

    def test_commuting_profile_constant(self):
        t = commuting_diagonal_pair()
        b = js.local_branches(t, 1.0, [1.0])[0]
        prof = oracles.projection_norm_profile(t, b)
        norms = [v for _, v in prof.points]
        assert max(norms) - min(norms) <= 1e-10
