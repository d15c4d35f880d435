"""Coxeter representations and rigidity checks.

A Coxeter matrix fixes relations (g_i g_j)^{m_ij} = 1 between involutive
generators.  Dihedral (two-generator) pieces have 1- and 2-dimensional
irreducible representations only; the 2-dimensional ones are parametrized by
an angle and their pair spectra are lines and "complex ellipses" with
explicit equations.  The rigidity pipeline tests whether a candidate matrix
tuple that contains the spectrum of a representation (globally, and locally
near the coordinate points) carries an invariant subspace on which it is a
genuine copy of that representation.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AssignmentError, EmptySubspaceError, SeparationError
from .pencil import MatrixTuple, _is_real, _root_table, line_roots_batch, opnorm
from .serialize import matrix_to_json

INF = math.inf

ONE_DIM_SIGNS = {
    "one_dim_pp": (1.0, 1.0),
    "one_dim_mm": (-1.0, -1.0),
    "one_dim_pm": (1.0, -1.0),
    "one_dim_mp": (-1.0, 1.0),
}


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric order matrix: m_ii = 1, off-diagonal entries in {2,3,...} or inf."""

    orders: tuple

    def __init__(self, orders):
        rows = _orders(orders)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
            if rows[i][i] != 1:
                raise ValueError("Coxeter matrix must have ones on the diagonal")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and rows[i][j] < 2:
                    raise ValueError("off-diagonal Coxeter orders must be >= 2")
                if math.isfinite(rows[i][j]) and not rows[i][j].is_integer():
                    raise ValueError(f"finite Coxeter orders must be integers; got {rows[i][j]}")
        object.__setattr__(self, "orders", rows)

    @property
    def n(self):
        return len(self.orders)

    def order(self, i, j):
        return self.orders[i][j]

    def to_json(self):
        return [["inf" if math.isinf(v) else int(v) for v in row] for row in self.orders]

    @classmethod
    def from_json(cls, rows):
        """Rows of finite numbers and "inf", every off-diagonal order an
        integer >= 2 or "inf"; ValueError naming coxeter_matrix for anything
        else (NaN, an integer past the float range)."""
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            _refuse_orders(rows)
        try:
            return cls([[INF if v == "inf" else v for v in row] for row in rows])
        except ValueError as exc:
            if str(exc).startswith("coxeter_matrix"):  # _refuse_orders names it
                raise
            raise ValueError(f"coxeter_matrix: {exc}") from None


def _refuse_orders(orders):
    raise ValueError(f"coxeter_matrix must be a list of rows of finite numbers and 'inf'; "
                     f"got {orders!r}")


def _orders(orders):
    """orders as a tuple of rows of floats; ValueError unless every order is
    a finite real or inf (not NaN, not an integer past the float range)."""
    try:
        rows = tuple(tuple(row) for row in orders)
    except TypeError:
        _refuse_orders(orders)
    if not all(_is_real(v) or (isinstance(v, numbers.Real) and v == INF)
               for row in rows for v in row):
        _refuse_orders(orders)
    return tuple(tuple(float(v) for v in row) for row in rows)


def dihedral(m):
    """Coxeter matrix of the two-generator group with product order m."""
    return CoxeterMatrix([[1, m], [m, 1]])


@dataclass(frozen=True)
class DihedralIrrep:
    """Irreducible representation of a dihedral pair in canonical form."""

    kind: str
    angle: float = None

    def __post_init__(self):
        if self.kind == "two_dim":
            if self.angle is None or not (0.0 < self.angle < math.pi):
                raise AssignmentError("two_dim irreps need an angle in (0, pi)")
        elif self.kind not in ONE_DIM_SIGNS:
            raise AssignmentError(f"unknown dihedral irrep kind {self.kind!r}")

    @property
    def dim(self):
        return 2 if self.kind == "two_dim" else 1

    @property
    def generator_matrices(self):
        if self.kind == "two_dim":
            c, s = math.cos(self.angle), math.sin(self.angle)
            g1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
            g2 = np.array([[c, s], [s, -c]], dtype=complex)
            return g1, g2
        e1, e2 = ONE_DIM_SIGNS[self.kind]
        return (np.array([[e1]], dtype=complex), np.array([[e2]], dtype=complex))


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class CoxeterRep:
    """Concrete generator matrices of (a candidate for) a Coxeter representation."""

    cm: CoxeterMatrix
    generators: tuple

    @property
    def dim(self):
        return self.generators[0].shape[0]

    @property
    def n(self):
        return len(self.generators)

    def as_tuple(self):
        return MatrixTuple(self.generators)

    def relation_residuals(self):
        res = {}
        for i in range(self.n):
            for j in range(i, self.n):
                m = self.cm.order(i, j)
                if math.isinf(m):
                    continue
                w = self.generators[i] @ self.generators[j]
                res[(i + 1, j + 1)] = opnorm(np.linalg.matrix_power(w, int(m)) - np.eye(self.dim))
        return res

    def validate(self, tol=1e-10):
        """Raise AssignmentError unless the generators are cm.n square matrices
        of one size, each a unitary involution, that satisfy every relation of
        cm (all within tol)."""
        shapes = [np.shape(g) for g in self.generators]
        if (len(shapes) != self.cm.n or len(set(shapes)) != 1
                or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1] or shapes[0][0] == 0):
            raise AssignmentError(f"a representation needs {self.cm.n} square generator "
                                  f"matrices of one size; got shapes {shapes}")
        for g in self.generators:
            if opnorm(g @ g - np.eye(self.dim)) > tol or opnorm(g - g.conj().T) > tol:
                raise AssignmentError("generators must be unitary involutions")
        for (i, j), r in self.relation_residuals().items():
            if r > tol:
                raise AssignmentError(
                    f"generators break the relation (g{i} g{j})^{int(self.cm.order(i - 1, j - 1))}"
                    f" = 1 (residual {r:.2e})"
                )


def _cosine_form(cm: CoxeterMatrix):
    """B_ij = -cos(pi / m_ij), with -1 where m_ij is infinite."""
    return np.array([[-1.0 if math.isinf(m) else -math.cos(math.pi / m) for m in row]
                     for row in cm.orders])


def is_finite_type(cm: CoxeterMatrix):
    """W is finite exactly when the cosine form is positive definite."""
    return bool(np.linalg.eigvalsh(_cosine_form(cm))[0] > 1e-12)


def geometric_representation(cm: CoxeterMatrix):
    """Unitarized reflection representation from the cosine form B.

    The reflections s_i = I - 2 e_i b_i^T conjugated by B^{1/2}: in these
    coordinates B is the Euclidean inner product, so they are real
    orthogonal involutions.  Only defined for finite type (positive-definite
    cosine matrix).
    """
    if not is_finite_type(cm):
        raise AssignmentError("geometric summand needs a finite-type Coxeter matrix")
    b = _cosine_form(cm)
    sqrt_b = scipy.linalg.sqrtm(b).real
    inv_sqrt_b = np.linalg.inv(sqrt_b)
    eye = np.eye(cm.n)
    return [(sqrt_b @ (eye - 2.0 * np.outer(eye[i], b[i])) @ inv_sqrt_b).astype(complex)
            for i in range(cm.n)]


def _block_diag(mats):
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


def build_representation(cm: CoxeterMatrix, assignment, seed=None):
    """Assemble a representation from summands and validate it (CoxeterRep.validate).

    For two generators the summands are DihedralIrrep values (or
    (kind, angle) pairs); for more generators the named full-group summands
    'geometric', 'trivial' and 'sign' are supported.  A seed conjugates the
    block-diagonal result by a random unitary.  Summands that break a group
    relation (e.g. a two_dim angle that is not 2*pi*k/m) are rejected, and
    an assignment that is not a list or tuple raises ValueError.
    """
    if not isinstance(assignment, (list, tuple)):
        raise ValueError(f"assignment must be a list of summands; got {assignment!r}")
    summands = []
    for spec in assignment:
        if isinstance(spec, DihedralIrrep):
            if cm.n != 2:
                raise AssignmentError("dihedral summands require a two-generator Coxeter matrix")
            summands.append(spec.generator_matrices)
        elif isinstance(spec, str) and spec in ONE_DIM_SIGNS and cm.n == 2:
            summands.append(DihedralIrrep(spec).generator_matrices)
        elif isinstance(spec, (tuple, list)) and len(spec) == 2 and spec[0] == "two_dim":
            if not _is_real(spec[1]):
                raise AssignmentError(f"a two_dim summand needs a real angle; got {spec[1]!r}")
            if cm.n != 2:
                raise AssignmentError("dihedral summands require a two-generator Coxeter matrix")
            summands.append(DihedralIrrep("two_dim", float(spec[1])).generator_matrices)
        elif spec == "geometric":
            summands.append(geometric_representation(cm))
        elif spec == "trivial":
            summands.append(tuple(np.eye(1, dtype=complex) for _ in range(cm.n)))
        elif spec == "sign":
            summands.append(tuple(-np.eye(1, dtype=complex) for _ in range(cm.n)))
        else:
            raise AssignmentError(f"unsupported summand {spec!r}")

    gens = []
    for k in range(cm.n):
        gens.append(_block_diag([s[k] for s in summands]))
    if seed is not None:
        u = random_unitary(gens[0].shape[0], np.random.default_rng(seed))
        gens = [u @ g @ u.conj().T for g in gens]
    rep = CoxeterRep(cm=cm, generators=tuple(gens))
    rep.validate()
    return rep


def dihedral_pair_decomposition(u1, u2):
    """Decompose the representation generated by two unitary involutions.

    Returns a list of (kind, angle, multiplicity) with angle None for the
    one-dimensional kinds.  Grouping uses the rotation u1 u2: eigenvalue
    pairs e^{±i theta} give two_dim(theta) copies; the ±1 eigenspaces split
    one-dimensional characters by the sign of u1 on them.  Eigenvalues and
    angles within 1e-8 are grouped.
    """
    angle_tol = 1e-8
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    w = u1 @ u2
    t, z = scipy.linalg.schur(w, output="complex")
    evs = np.diag(t)

    out = []
    plus = np.abs(evs - 1.0) <= angle_tol
    minus = np.abs(evs + 1.0) <= angle_tol
    for mask, kinds in ((plus, ("one_dim_pp", "one_dim_mm")), (minus, ("one_dim_pm", "one_dim_mp"))):
        if mask.any():
            basis = z[:, mask]
            restr = basis.conj().T @ u1 @ basis
            signs = np.linalg.eigvalsh((restr + restr.conj().T) / 2.0)
            n_plus = int(np.sum(signs > 0))
            n_minus = int(signs.size - n_plus)
            if n_plus:
                out.append((kinds[0], None, n_plus))
            if n_minus:
                out.append((kinds[1], None, n_minus))

    rest = evs[~(plus | minus)]
    thetas = np.abs(np.angle(rest))
    seen = []
    for th in sorted(thetas):
        for k, (t0, c) in enumerate(seen):
            if abs(th - t0) <= angle_tol:
                seen[k] = (t0, c + 1)
                break
        else:
            seen.append((th, 1))
    for th, c in seen:
        if c % 2 != 0:
            raise ValueError("rotation eigenvalues failed to pair up; inputs may not be involutions")
        out.append(("two_dim", float(th), c // 2))
    out.sort(key=lambda kam: (kam[0], -1.0 if kam[1] is None else kam[1]))
    return out


def check_condition_star(rep: CoxeterRep):
    """No irreducible repeats in any (g1, g_i) pair restriction."""
    result = {}
    for i in range(2, rep.n + 1):
        dec = dihedral_pair_decomposition(rep.generators[0], rep.generators[i - 1])
        result[i] = all(mult <= 1 for _, _, mult in dec)
    return result


def _random_direction(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_directions(rng, count, n):
    """count unit vectors of C^n as rows, drawn at once: all real parts,
    then all imaginary parts."""
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Relative tolerance of matching a root against another tuple's roots on the
# same line (_unmatched).
_MEMBERSHIP_TOL = 1e-8


def _generic_lines(n, seed):
    """Directions u of the lines s -> s u that decide a spectral inclusion:
    four generic lines in C^n, then one generic line in each (A_1, A_i)
    coordinate plane, i = 2..n, drawn from the generator seeded with seed."""
    rng = np.random.default_rng(seed)
    lines = np.zeros((n + 3, n), dtype=complex)
    for k in range(4):
        lines[k] = _random_direction(rng, n)
    for i in range(1, n):
        lines[3 + i, [0, i]] = _random_direction(rng, 2)
    return lines


def _unmatched(bases, lines, roots, others, center, radius):
    """y + s u for the first root s of roots, line by line, whose point on
    its line y + s u (y in bases, u in lines) lies within radius of center
    and that no root of others on the same line matches within
    _MEMBERSHIP_TOL (1 + |s|), or None; roots and others are _root_tables."""
    gaps = np.fmin.reduce(np.abs(roots[:, :, None] - others[:, None, :]), axis=2, initial=INF)
    points = bases[:, None] + roots[:, :, None] * lines[:, None]
    bad = ((gaps > _MEMBERSHIP_TOL * (1.0 + np.abs(roots)))
           & (np.linalg.norm(points - center, axis=2) <= radius))
    hits = np.argwhere(bad)
    return points[tuple(hits[0])] if hits.size else None


def _line_inclusion(src: MatrixTuple, dst: MatrixTuple, seed):
    """(w, w'): the _unmatched roots of src against dst and of dst against
    src on the _generic_lines of seed, witnesses that sigma_p(src) is not
    in sigma_p(dst) and the reverse.

    Each irreducible component of sigma_p(src) meets a generic line, and a
    component not inside sigma_p(dst) meets it in a proper subvariety, which
    a generic line misses (Schwartz 1980; Zippel 1979).  So, for lines
    drawn at random, the inclusion holds with probability 1 exactly when
    every root of src on the lines is a root of dst on the same line.
    Each tuple is solved on all lines with one line_roots_batch call.
    """
    _check_generators(src, dst)
    lines = _generic_lines(src.n, seed)
    bases = np.zeros(lines.shape)
    a, b = (_root_table(line_roots_batch(tup, bases, lines)) for tup in (src, dst))
    return _unmatched(bases, lines, a, b, 0.0, INF), _unmatched(bases, lines, b, a, 0.0, INF)


def _check_generators(t: MatrixTuple, rep_tuple: MatrixTuple):
    """ValueError unless t and rep_tuple have the same number of matrices."""
    if t.n != rep_tuple.n:
        raise ValueError("tuple and representation must have the same number of generators")


def check_condition_I(t: MatrixTuple, rep: CoxeterRep, seed=0):
    """Inclusion sigma_p(rep) in sigma_p(t) decided on generic lines
    (_line_inclusion); returns (ok, witness)."""
    witness, _ = _line_inclusion(rep.as_tuple(), t, seed)
    return witness is None, witness


def extended_tuple(t: MatrixTuple):
    """(A_1, ..., A_n, A_1 A_2, ..., A_1 A_n)."""
    a1 = t.matrices[0]
    return MatrixTuple(list(t.matrices) + [a1 @ m for m in t.matrices[1:]])


def _check_ball_sampling(epsilon, sample_count):
    """ValueError unless epsilon is a finite real > 0 and sample_count a
    positive int."""
    if not (_is_real(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a finite real > 0; got {epsilon!r}")
    if not (isinstance(sample_count, numbers.Integral) and not isinstance(sample_count, bool)
            and sample_count > 0):
        raise ValueError(f"sample_count must be a positive int; got {sample_count!r}")


def check_condition_II(t: MatrixTuple, rep: CoxeterRep, epsilon=0.15, sample_count=40, seed=0):
    """Two-sided set equality of the extended spectra near the coordinate points.

    Around each ±e_j, j = 1..n, sample_count lines y + s u are drawn from
    the generator seeded with seed: y within 0.4 epsilon of the point, u a
    random unit direction.  Each extended tuple is solved on the lines of
    all balls with one line_roots_batch call.  The ball of radius epsilon
    around ±e_j passes when every finite root of either tuple whose point
    y + s u lies in it has a root of the other tuple on the same line
    within _MEMBERSHIP_TOL (1 + |s|); rep's roots are matched first.
    Returns ({(j, sign): bool}, {(j, sign): witness}), the witness the
    point of the first unmatched root.  epsilon must be a finite real > 0
    and sample_count a positive int (ValueError).
    """
    _check_ball_sampling(epsilon, sample_count)
    _check_generators(t, rep.as_tuple())
    ext_a = extended_tuple(t)
    ext_r = extended_tuple(rep.as_tuple())
    balls = [(j, sign) for j in range(1, t.n + 1) for sign in (1, -1)]
    centers = np.zeros((len(balls), ext_a.n))
    for b, (j, sign) in enumerate(balls):
        centers[b, j - 1] = sign
    count = len(balls) * sample_count
    rng = np.random.default_rng(seed)
    offsets = 0.4 * epsilon * _random_directions(rng, count, ext_a.n) * rng.uniform(size=(count, 1))
    bases = np.repeat(centers, sample_count, axis=0) + offsets
    lines = _random_directions(rng, count, ext_a.n)
    roots_a, roots_r = (_root_table(line_roots_batch(tup, bases, lines)) for tup in (ext_a, ext_r))
    results, witnesses = {}, {}
    for b, key in enumerate(balls):
        part = slice(b * sample_count, (b + 1) * sample_count)
        ball = (bases[part], lines[part])
        witness = _unmatched(*ball, roots_r[part], roots_a[part], centers[b], epsilon)
        if witness is None:
            witness = _unmatched(*ball, roots_a[part], roots_r[part], centers[b], epsilon)
        if witness is not None:
            witnesses[key] = witness
        results[key] = witness is None
    return results, witnesses


@dataclass(frozen=True)
class InvariantSubspace:
    """Orthonormal basis of the span of the ±1 eigenvectors of A1."""

    basis: np.ndarray
    dim: int
    invariance_residuals: tuple
    restrictions: tuple


def extract_invariant_subspace(t: MatrixTuple):
    """L = span of the ±1-eigenvectors of A1 (within 1e-8 max(1, ||A1||)),
    with invariance diagnostics."""
    a1 = t.matrices[0]
    tol = 1e-8 * max(1.0, opnorm(a1))
    tri, z = scipy.linalg.schur(np.asarray(a1, dtype=complex), output="complex")
    evs = np.diag(tri)
    mask = (np.abs(evs - 1.0) <= tol) | (np.abs(evs + 1.0) <= tol)
    if not mask.any():
        raise EmptySubspaceError("A1 has no eigenvalues at +1 or -1")
    v = z[:, mask]
    proj = v @ v.conj().T
    eye = np.eye(t.dim)
    residuals = tuple(opnorm((eye - proj) @ m @ proj) for m in t.matrices)
    restrictions = tuple(v.conj().T @ m @ v for m in t.matrices)
    return InvariantSubspace(
        basis=v, dim=int(v.shape[1]), invariance_residuals=residuals, restrictions=restrictions
    )


# Largest pair order m_ij that the restriction checks recover.
_MAX_PAIR_ORDER = 24


def recovered_pair_order(u1, u2):
    """Smallest m <= _MAX_PAIR_ORDER with ||(u1 u2)^m - 1|| <= 1e-8, or None."""
    w = np.asarray(u1, dtype=complex) @ np.asarray(u2, dtype=complex)
    p = np.eye(w.shape[0], dtype=complex)
    for m in range(1, _MAX_PAIR_ORDER + 1):
        p = p @ w
        if opnorm(p - np.eye(w.shape[0])) <= 1e-8:
            return m
    return None


def exponent_candidates(angle):
    """All coprime (k, m) with |angle - 2 pi k / m| <= 1e-9, m <= _MAX_PAIR_ORDER."""
    out = []
    for m in range(2, _MAX_PAIR_ORDER + 1):
        for k in range(1, m // 2 + 1):
            if math.gcd(k, m) != 1:
                continue
            if abs(angle - 2.0 * math.pi * k / m) <= 1e-9:
                out.append((k, m))
    return out


@dataclass(frozen=True)
class RestrictionReport:
    """Residuals and spectral comparisons for the restricted tuple."""

    unitary_residuals: tuple
    selfadjoint_residuals: tuple
    relation_residuals: dict
    recovered_orders: dict
    expected_orders: dict
    exponents_ok: bool
    exponent_candidates: dict
    exponent_ambiguous: bool
    spectra_match: bool
    spectra_witness: object


def verify_restriction(sub: InvariantSubspace, cm: CoxeterMatrix, rep: CoxeterRep, seed=0):
    """Check the restricted generators are a unitary self-adjoint Coxeter tuple.

    The joint spectra of the restriction and of rep are compared both ways
    by _line_inclusion, and the pair orders recovered from the restriction
    are compared with the orders of rep's pairs.
    """
    gens = sub.restrictions
    eye = np.eye(sub.dim)
    unit = tuple(opnorm(g.conj().T @ g - eye) for g in gens)
    sa = tuple(opnorm(g - g.conj().T) for g in gens)
    restricted = CoxeterRep(cm=cm, generators=tuple(gens))
    rel = restricted.relation_residuals()

    recovered = {}
    expected = {}
    candidates = {}
    ambiguous = False
    for i in range(2, len(gens) + 1):
        recovered[i] = recovered_pair_order(gens[0], gens[i - 1])
        expected[i] = recovered_pair_order(rep.generators[0], rep.generators[i - 1])
        dec = dihedral_pair_decomposition(gens[0], gens[i - 1])
        angs = [a for kind, a, _ in dec if kind == "two_dim"]
        cands = [exponent_candidates(a) for a in angs]
        candidates[i] = cands
        ambiguous = ambiguous or any(len(c) != 1 for c in cands)
    exponents_ok = all(recovered[i] == expected[i] for i in recovered)

    w1, w2 = _line_inclusion(rep.as_tuple(), MatrixTuple(gens), seed)

    return RestrictionReport(
        unitary_residuals=unit,
        selfadjoint_residuals=sa,
        relation_residuals=rel,
        recovered_orders=recovered,
        expected_orders=expected,
        exponents_ok=exponents_ok,
        exponent_candidates=candidates,
        exponent_ambiguous=ambiguous,
        spectra_match=w1 is None and w2 is None,
        spectra_witness=w1 if w1 is not None else w2,
    )


# Zero threshold of the commutant system of the reference tuple b below.
# Scaled by 1/sqrt(n), the system of a unitary tuple has norm at most 2, so
# rounding leaves its null values near 1e-16: on every group the tests use
# they are <= 1e-15, and the smallest nonzero value is >= 0.23 (E6).
_COMMUTANT_ZERO = 1e-8
# Values above this are clearly nonzero.  A commutant value of b in
# (_COMMUTANT_ZERO, _COMMUTANT_CLEAR] means two summands of b lie that close
# (two_dim(1) + two_dim(1 + 1e-6) gives 5e-7).  Such a b is within 1e-4 of a
# tuple with a larger commutant, so no tolerance up to 10 times the default
# --tol of 1e-5 can tell the two apart, and b is refused.
_COMMUTANT_CLEAR = 1e-4
# The commutant system of b has n d^2 x d^2 complex entries and its SVD takes
# time of order n d^6.  At d = 32 and n = 2 a decision takes about 2.5 s and
# 115 MiB of peak memory on one core of an Intel Xeon; both grow about
# linearly in n.
_MAX_DIM = 32
# No word length covers an infinite W; there the character bound covers the
# words of length up to 8.
_INFINITE_WORD_LENGTH = 8


@dataclass(frozen=True)
class EquivalenceEvidence:
    """Intertwiner comparison of a generator tuple a with a reference tuple b.

    end_dim is the commutant dimension of b: the count of singular values
    at or below _COMMUTANT_ZERO of X -> (b_k X - X b_k)_k / sqrt(n);
    zero_margin is the largest of them and gap the smallest above it (inf
    when there is none).  U is the unitary polar factor of a generic element
    of the end_dim least singular directions of X -> (a_k X - X b_k)_k, the
    intertwiner space when a and b are equivalent (Schur's lemma).
    max_discrepancy is the largest trace norm of a_k - U b_k U*: 0 exactly
    when a is equivalent to b, and never below the distance of a from the
    unitary copies of b.  Along a word of length l the traces of a and b
    differ by at most l m^(l-1) max_discrepancy, m the largest generator norm
    (at least 1); character_bound is that bound at l = word_length, the
    length of the longest element of a finite W (_INFINITE_WORD_LENGTH when
    W is infinite).  relation_discrepancy is the largest defining-relation
    residual of the two tuples (g_i^2 = 1 included).  words_checked is
    always 0: the perfbench tracer's hook reads it.
    """

    max_discrepancy: float
    character_bound: float
    word_length: int
    relation_discrepancy: float
    end_dim: int
    zero_margin: float
    gap: float
    words_checked: int = 0


def _commutant_values(g):
    """Ascending singular values of X -> (g_k X - X g_k)_k / sqrt(n).

    With X stored row by row, vec(g X) = (g kron I) vec(X) and
    vec(X g) = (I kron g^T) vec(X): one block per generator.
    """
    eye = np.eye(g[0].shape[0])
    system = np.concatenate([np.kron(gk, eye) - np.kron(eye, gk.T) for gk in g])
    return np.linalg.svd(system / math.sqrt(len(g)), compute_uv=False)[::-1]


def _near_intertwiners(a, b, count):
    """The count least singular directions of X -> (a_k X - X b_k)_k, as d x d matrices.

    They are the lowest eigenvectors of the Gram matrix sum_k M_k^H M_k,
    M_k = a_k kron I - I kron b_k^T, which is d^2 x d^2 however large n is.
    """
    eye = np.eye(a[0].shape[0])
    gram = sum(np.kron(ak.conj().T @ ak, eye) - np.kron(ak.conj().T, bk.T)
               - np.kron(ak, bk.conj()) + np.kron(eye, bk.conj() @ bk.T)
               for ak, bk in zip(a, b))
    _, vectors = scipy.linalg.eigh(gram, subset_by_index=[0, count - 1])
    return vectors.T.reshape(count, *a[0].shape)


def _longest_word_length(cm: CoxeterMatrix):
    """Length of the longest element of a finite W.

    w -> w s_i is one longer exactly when w sends the simple root alpha_i to
    a positive root.  In the basis of simple roots every root has entries of
    one sign, so the sign of the column sum of w decides.  From the identity
    the climb ends at the longest element.
    """
    b = _cosine_form(cm)
    eye = np.eye(cm.n)
    reflections = [eye - 2.0 * np.outer(eye[i], b[i]) for i in range(cm.n)]
    w, length = eye, 0
    while True:
        ascents = [i for i in range(cm.n) if w[:, i].sum() > 0]
        if not ascents:
            return length
        w, length = w @ reflections[ascents[0]], length + 1


def equivalence_evidence(generators_a, generators_b, cm: CoxeterMatrix):
    """Decide whether the tuple a is equivalent to the reference tuple b of W(cm).

    b must be a unitary representation (CoxeterRep.validate); a may carry
    noise.  One SVD reads the commutant of b, one Gram eigensolve gives the
    near-intertwiners from b to a, and U, their generic polar factor, is
    compared with a (see EquivalenceEvidence).  Their size depends on the
    dimension, not on W, so finite and infinite W are decided alike (the
    commutant method of the MeatAxe, Holt & Rees, 1994).  Raises
    SeparationError when a commutant value of b is neither clearly zero nor
    clearly nonzero.
    """
    a = [np.asarray(g, dtype=complex) for g in generators_a]
    b = [np.asarray(g, dtype=complex) for g in generators_b]
    if a[0].shape != b[0].shape or len(a) != len(b) or len(a) != cm.n:
        raise ValueError("equivalence needs tuples of equal shape, one matrix per generator")
    if b[0].shape[0] > _MAX_DIM:
        raise ValueError(f"equivalence is decided for dimensions up to {_MAX_DIM}, "
                         f"not {b[0].shape[0]}")
    values = _commutant_values(b)
    end_dim = int(np.sum(values <= _COMMUTANT_ZERO))
    if end_dim == 0:
        raise SeparationError(
            f"no commutant singular value of the reference is at or below "
            f"{_COMMUTANT_ZERO:.0e}, yet the identity always commutes: it is far from unitary"
        )
    gap = float(values[end_dim]) if end_dim < len(values) else math.inf
    if gap <= _COMMUTANT_CLEAR:
        raise SeparationError(
            f"a commutant singular value {gap:.3e} of the reference lies in "
            f"({_COMMUTANT_ZERO:.0e}, {_COMMUTANT_CLEAR:.0e}]: its commutant dimension "
            f"cannot be read"
        )
    # a fixed random combination: for equivalent tuples it is an invertible
    # intertwiner with probability 1, and its polar factor a unitary one
    coeffs = np.random.default_rng(0).standard_normal((end_dim, 2)) @ np.array([1.0, 1.0j])
    w, _, vh = np.linalg.svd(np.tensordot(coeffs, _near_intertwiners(a, b, end_dim), axes=1))
    u = w @ vh
    discrepancy = max(np.linalg.norm(ak @ u - u @ bk, "nuc") for ak, bk in zip(a, b))
    length = _longest_word_length(cm) if is_finite_type(cm) else _INFINITE_WORD_LENGTH
    growth = max([1.0] + [opnorm(g) for g in a + b]) ** (length - 1)
    relation = max(max(CoxeterRep(cm=cm, generators=tuple(g)).relation_residuals().values())
                   for g in (a, b))
    return EquivalenceEvidence(
        max_discrepancy=float(discrepancy),
        character_bound=float(length * growth * discrepancy),
        word_length=length,
        relation_discrepancy=float(relation),
        end_dim=end_dim,
        zero_margin=float(values[end_dim - 1]),
        gap=gap,
    )


def coxeter_type(cm: CoxeterMatrix):
    """Rough classification: 'dihedral', 'A', 'B', 'D' or 'other'."""
    n = cm.n
    if n == 2:
        return "dihedral" if not math.isinf(cm.order(0, 1)) else "other"
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = cm.order(i, j)
            if m > 2:
                edges[(i, j)] = m
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    labels = sorted(edges.values())
    if any(math.isinf(v) for v in labels) or len(edges) not in (n - 1,):
        return "other"
    if max(deg) <= 2 and deg.count(1) == 2:  # path
        if all(v == 3 for v in labels):
            return "A"
        if labels == [3] * (n - 2) + [4]:
            ends = [k for k in range(n) if deg[k] == 1]
            for (i, j), m in edges.items():
                if m == 4 and (i in ends or j in ends):
                    return "B"
        return "other"
    if max(deg) == 3 and deg.count(3) == 1 and all(v == 3 for v in labels):
        hub = deg.index(3)
        leaf_neighbors = sum(
            1 for (i, j) in edges if (i == hub and deg[j] == 1) or (j == hub and deg[i] == 1)
        )
        if leaf_neighbors >= 2:
            return "D"
    return "other"


def is_nonspecial(cm: CoxeterMatrix):
    return coxeter_type(cm) in ("dihedral", "A", "B", "D")


@dataclass(frozen=True)
class RigidityReport:
    """Everything the rigidity pipeline measured for one candidate tuple."""

    condition_star: dict
    condition_I: bool
    condition_I_witness: object
    condition_II: dict
    condition_II_witnesses: dict
    applicable: bool
    generator_norms: tuple
    norms_ok: bool
    dim_L: int
    L_basis: np.ndarray
    invariance_residuals: tuple
    restriction: RestrictionReport
    equivalence: EquivalenceEvidence
    nonspecial: bool
    seed: int
    epsilon: float
    failure: str = None

    def to_json(self):
        def vec(w):
            return None if w is None else [[complex(v).real, complex(v).imag] for v in w]

        out = {
            "condition_star": {str(k): v for k, v in sorted(self.condition_star.items())},
            "condition_I": self.condition_I,
            "condition_I_witness": vec(self.condition_I_witness),
            "condition_II": {f"{j}{'+' if s > 0 else '-'}": v
                             for (j, s), v in sorted(self.condition_II.items())},
            "condition_II_witnesses": {
                f"{j}{'+' if s > 0 else '-'}": vec(w)
                for (j, s), w in sorted(self.condition_II_witnesses.items())
            },
            "applicable": self.applicable,
            "generator_norms": list(self.generator_norms),
            "norms_ok": self.norms_ok,
            "dim_L": self.dim_L,
            "invariance_residuals": list(self.invariance_residuals),
            "nonspecial": self.nonspecial,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "failure": self.failure,
        }
        if self.L_basis is not None:
            out["L_basis"] = matrix_to_json(self.L_basis)
        if self.restriction is not None:
            out["restriction"] = {
                "unitary_residuals": list(self.restriction.unitary_residuals),
                "selfadjoint_residuals": list(self.restriction.selfadjoint_residuals),
                "relation_residuals": {f"{i},{j}": v for (i, j), v
                                       in sorted(self.restriction.relation_residuals.items())},
                "recovered_orders": {str(k): v for k, v
                                     in sorted(self.restriction.recovered_orders.items())},
                "exponents_ok": self.restriction.exponents_ok,
                "exponent_ambiguous": self.restriction.exponent_ambiguous,
                "spectra_match": self.restriction.spectra_match,
                "spectra_witness": vec(self.restriction.spectra_witness),
                "expected_orders": {str(k): v for k, v
                                    in sorted(self.restriction.expected_orders.items())},
                "exponent_candidates": {str(k): [[list(km) for km in c] for c in cands]
                                        for k, cands
                                        in sorted(self.restriction.exponent_candidates.items())},
            }
        if self.equivalence is not None:
            out["equivalence"] = {
                "max_discrepancy": self.equivalence.max_discrepancy,
                "character_bound": self.equivalence.character_bound,
                "word_length": self.equivalence.word_length,
                "relation_discrepancy": self.equivalence.relation_discrepancy,
                "end_dim": self.equivalence.end_dim,
                "zero_margin": self.equivalence.zero_margin,
                "gap": self.equivalence.gap,
            }
        return out


def rigidity_check(t: MatrixTuple, rep: CoxeterRep, epsilon=0.15, sample_count=40, seed=0):
    """Run the full rigidity pipeline for a candidate tuple against rep.

    epsilon and sample_count are condition (II)'s ball radius and lines per
    ball (check_condition_II; ValueError unless a finite real > 0 and a
    positive int).  The last step decides with equivalence_evidence whether
    the restriction to L is equivalent to rep.

    When the multiplicity-free condition fails the report is marked not
    applicable: the invariant subspace is still extracted for inspection,
    but no representation claim is attached to it.
    """
    _check_ball_sampling(epsilon, sample_count)
    norms = tuple(opnorm(m) for m in t.matrices)
    norms_ok = all(abs(v - 1.0) <= 1e-8 for v in norms[1:])
    star = check_condition_star(rep)
    cond1, w1 = check_condition_I(t, rep, seed=seed)
    cond2, w2 = check_condition_II(t, rep, epsilon=epsilon, sample_count=sample_count,
                                   seed=seed + 1)
    applicable = all(star.values()) and cond1 and all(cond2.values()) and norms_ok

    failure = None
    dim_l = 0
    basis = None
    inv_res = ()
    restriction = None
    equivalence = None
    try:
        sub = extract_invariant_subspace(t)
        dim_l = sub.dim
        basis = sub.basis
        inv_res = sub.invariance_residuals
        restriction = verify_restriction(sub, rep.cm, rep, seed=seed + 2)
        if sub.dim == rep.dim:
            equivalence = equivalence_evidence(sub.restrictions, rep.generators, rep.cm)
    except EmptySubspaceError as exc:
        failure = str(exc)

    return RigidityReport(
        condition_star=star,
        condition_I=cond1,
        condition_I_witness=w1,
        condition_II=cond2,
        condition_II_witnesses=w2,
        applicable=applicable,
        generator_norms=norms,
        norms_ok=norms_ok,
        dim_L=dim_l,
        L_basis=basis,
        invariance_residuals=inv_res,
        restriction=restriction,
        equivalence=equivalence,
        nonspecial=is_nonspecial(rep.cm),
        seed=seed,
        epsilon=epsilon,
        failure=failure,
    )
