"""Shipped concrete instances: regression fixtures and seeded generators."""

import numpy as np

from .branches import _reference_spectrum, _regularity_reports, _solve_ladder, _unit_direction
from .coxeter import CoxeterRep, random_unitary
from .pencil import MatrixTuple, opnorm


def blowup_demo_pair():
    """Non-diagonalizable leading matrix whose component projections blow up.

    The spectrum is the two transversal lines x1 = 1 -/+ x2, the regularity
    conditions hold at (1, 0), yet the component projections grow like 1/t:
    the regression fixture for why normality of A1 matters.
    """
    a1 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    a2 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return MatrixTuple([a1, a2])


def dihedral_pair(angle):
    """Canonical two-dimensional dihedral generator pair for a given angle."""
    c, s = np.cos(angle), np.sin(angle)
    a1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    a2 = np.array([[c, s], [s, -c]], dtype=complex)
    return MatrixTuple([a1, a2])


def commuting_diagonal_pair():
    """A1 = diag(1, 1), A2 = diag(1, -1): two exactly affine branches at 1."""
    return MatrixTuple([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])


def planted_tuple(rep: CoxeterRep, blocks, seed=0):
    """A_i = U (rho(g_i) ⊕ B_i) U* for a fixed random unitary U."""
    if len(blocks) != rep.n:
        raise ValueError("one planted block per generator is required")
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    dim = rep.dim + blocks[0].shape[0]
    u = random_unitary(dim, np.random.default_rng(seed))
    mats = []
    for g, b in zip(rep.generators, blocks):
        m = np.zeros((dim, dim), dtype=complex)
        m[: rep.dim, : rep.dim] = g
        m[rep.dim :, rep.dim :] = b
        mats.append(u @ m @ u.conj().T)
    return MatrixTuple(mats)


# Random draws 0.45 apart jam at about 40 points in the annulus 0.6 <= |z| <= 1.8.
# Over seeds 0-19, N=32 needs at most 836 draws; at N=40, 8 seeds finish within
# 153,889 draws and 12 had not finished after 2,000,000.
_MAX_EIGENVALUE_DRAWS = 200_000


def _random_eigenvalues(rng, dim, zero_eigenvalue):
    """Repeated eigenvalue at 1 plus well-separated generic ones (and 0 on request)."""
    evs = [1.0 + 0.0j, 1.0 + 0.0j]
    if zero_eigenvalue:
        evs.append(0.0 + 0.0j)
    for _ in range(_MAX_EIGENVALUE_DRAWS):
        if len(evs) >= dim:
            break
        z = rng.uniform(0.6, 1.8) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) > 0.45 for w in evs) and abs(z) > 0.35:
            evs.append(z)
    if len(evs) < dim:
        raise ValueError(
            f"dim={dim}: found only {len(evs)} eigenvalues 0.45 apart in "
            f"{_MAX_EIGENVALUE_DRAWS} draws"
        )
    return np.array(evs[:dim])


def random_normal_pair(seed, dim, zero_eigenvalue=False):
    """A1 random normal (with a multiplicity-2 eigenvalue at 1), A2 random."""
    rng = np.random.default_rng(seed)
    evs = _random_eigenvalues(rng, dim, zero_eigenvalue)
    v = random_unitary(dim, rng)
    a1 = v @ np.diag(evs) @ v.conj().T
    a2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a2 = a2 / opnorm(a2)
    return MatrixTuple([a1, a2])


def regular_random_pair(seed, dim, zero_eigenvalue=False, min_gap=0.1):
    """Rejection-sample random_normal_pair until regularity holds everywhere.

    Both (A1, A2) and (A1, A1 A2) must satisfy conditions a) and b) at every
    eigenvalue of A1, with separated branch derivatives so the ladder
    extrapolations stay well conditioned.  Returns (tuple, accepted_seed);
    gives up after 40 draws.  The two pairs share A1's eigenvalue clusters,
    and each gets the reports check_regularity gives, from one slice ladder
    and one tracking pass per kind; they hold conditions a/b and the gaps,
    with no Branch objects built.

    min_gap bounds those gaps from below.  verify_pair's finest ladder rung,
    t = 1e-2 * 2^-7, parts two branches by about gap * t.  A simple
    branch's component projection is rank-1 from the rung eigensolve while
    that root gap, in the frozen pencil's eigenvalue scale, exceeds
    2 own_tol = 4e-6; at or below it the Schur kernel decides, and refuses
    with SeparationError unless the frozen pencil's own eigenvalues lie
    farther apart.  So gaps up to about 0.051 fail; the default 0.1 keeps
    every instance inside verify_pair's defaults.
    """
    for k in range(40):
        sub = 10_000 * seed + k
        t = random_normal_pair(sub, dim, zero_eigenvalue)
        a1, a2 = t.matrices
        t2 = MatrixTuple([a1, a1 @ a2])
        reference = _reference_spectrum(a1, opnorm(a1))
        ok = True
        for tt in (t, t2):
            ladder = _solve_ladder(tt, _unit_direction(tt, [1.0]), 1e-2, 8, *reference)
            for rep in _regularity_reports(tt, ladder, keep=()):
                if rep.error is not None:
                    raise rep.error
                if not (rep.condition_a and rep.condition_b):
                    ok = False
                    break
                # one simple branch has gap inf; one repeated branch fails a)
                if rep.branch_derivative_gaps < min_gap:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return t, sub
    raise RuntimeError(f"no regular instance found for seed={seed}, dim={dim}")
