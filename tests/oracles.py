"""Independent oracles for expected values.

Everything here computes expected results through a different route than the
library (closed forms, direct eigensolves, quadratic formula, first-order
perturbation), so the tests stay two-sided.  The exception is the last
section: the per-relation checks, one identity at a time, written over the
library's private residual helpers (verify_pair reports every identity).
"""

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg

from jointspec import projections, relations
from jointspec.branches import Branch, SpectralResolution, TOperator
from jointspec.errors import BranchCollisionError, TrackingError
from jointspec.pencil import MatrixTuple
from jointspec.relations import (
    _check_tol,
    _cross_moment_zero,
    _first_moment,
    _orthogonality_and_resolution,
    _prime_relations,
    _product_pair,
    _reports,
    _second_moment,
)


def quadratic_roots(a, b, c):
    """Roots of a x^2 + b x + c by the quadratic formula."""
    disc = np.sqrt(complex(b * b - 4 * a * c))
    return sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], key=lambda z: z.real)


def eigenprojection_2x2(m, eigenvalue):
    """Closed-form spectral projection of a 2x2 matrix with simple spectrum.

    P = (M - mu I) / (lam - mu) for the eigenvalue lam, mu the other one.
    """
    m = np.asarray(m, dtype=complex)
    evs = np.linalg.eigvals(m)
    lam = evs[np.argmin(np.abs(evs - eigenvalue))]
    mu = evs[np.argmax(np.abs(evs - eigenvalue))]
    assert abs(lam - mu) > 1e-12, "needs two distinct eigenvalues"
    return (m - mu * np.eye(2)) / (lam - mu)


def eigenprojection_direct(m, center, radius):
    """Spectral projection onto eigenvalues inside a disk, from left/right pairs."""
    m = np.asarray(m, dtype=complex)
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    n = m.shape[0]
    p = np.zeros((n, n), dtype=complex)
    for i in range(n):
        if abs(w[i] - center) < radius:
            li = vl[:, i].conj()
            p += np.outer(vr[:, i], li) / (li @ vr[:, i])
    return p


def quadrature_projection(m, center, radius, nodes):
    """Spectral projection onto the eigenvalues inside a circle, by quadrature.

    Trapezoid rule with a fixed number of nodes on |w - center| = radius for
    (1 / 2 pi i) of the contour integral of (w I - m)^-1, one inverse per node.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for k in range(nodes):
        e = np.exp(2j * np.pi * k / nodes)
        acc += e * np.linalg.inv((center + radius * e) * np.eye(n) - m)
    return (radius / nodes) * acc


def exact_projection(m, center, radius, dps=40):
    """Spectral projection onto the eigenvalues inside a disk, in high precision.

    An mpmath eigendecomposition of m (taken as exact) at dps digits, with left
    and right eigenvectors: P = R (L R)^-1 L over the selected eigenvalues.
    """
    with mpmath.workdps(dps):
        a = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in np.asarray(m)])
        w, left, right = mpmath.eig(a, left=True, right=True)
        sel = [i for i in range(len(w)) if abs(w[i] - center) < radius]
        r = mpmath.matrix(a.rows, len(sel))
        lt = mpmath.matrix(len(sel), a.rows)
        for j, i in enumerate(sel):
            for k in range(a.rows):
                r[k, j] = right[k, i]
                lt[j, k] = left[i, k]
        p = r * mpmath.inverse(lt * r) * lt
        return np.array([[complex(p[i, j]) for j in range(a.cols)] for i in range(a.rows)])


def pencil_root_near(a1, b, t, target):
    """Generalized eigenvalue of det(x a1 + t b - I) = 0 nearest to target."""
    n = a1.shape[0]
    vals = scipy.linalg.eigvals(np.eye(n) - t * b, a1)
    vals = vals[np.isfinite(vals)]
    return vals[np.argmin(np.abs(vals - target))]


def real_slice_roots(a1, a2, x2):
    """All x1 with det(x1 a1 + x2 a2 - I) = 0, for invertible a1.

    The standard eigenproblem of a1^-1 (I - x2 a2), not the generalized one.
    """
    a1 = np.asarray(a1, dtype=complex)
    eye = np.eye(a1.shape[0])
    return np.linalg.eigvals(np.linalg.solve(a1, eye - x2 * np.asarray(a2)))


def word_character_gap(a, b, cap):
    """Largest |tr a(w) - tr b(w)| over all generator words w of length 1..cap.

    Every word, repeated letters included: no group structure is used.
    """
    a = [np.asarray(g, dtype=complex) for g in a]
    b = [np.asarray(g, dtype=complex) for g in b]
    worst = 0.0
    level = [(np.eye(a[0].shape[0]), np.eye(b[0].shape[0]))]
    for _ in range(cap):
        level = [(pa @ ga, pb @ gb) for pa, pb in level for ga, gb in zip(a, b)]
        worst = max([worst] + [abs(np.trace(pa) - np.trace(pb)) for pa, pb in level])
    return worst


def group_character_gap(a, b, geometric):
    """(largest |tr a(w) - tr b(w)| over the elements w of a finite W, |W|,
    length of the longest element).

    Breadth-first search over s_k w from the identity.  Each element is keyed
    by its matrix in the geometric representation, which is faithful on
    finite W, rounded to 8 decimals.  a(w) and b(w) are the generator
    products along the word that first reached w, a shortest word.
    """
    a, b, geometric = ([np.asarray(g, dtype=complex) for g in gens] for gens in (a, b, geometric))

    def key(m):
        return tuple(np.round(m.real, 8).ravel().tolist())

    level = [tuple(np.eye(g[0].shape[0], dtype=complex) for g in (geometric, a, b))]
    seen = {key(level[0][0])}
    worst = 0.0
    depth = -1
    while level:
        depth += 1
        nxt = []
        for g, pa, pb in level:
            worst = max(worst, abs(np.trace(pa) - np.trace(pb)))
            for gk, ak, bk in zip(geometric, a, b):
                w = gk @ g
                if key(w) not in seen:
                    seen.add(key(w))
                    nxt.append((w, ak @ pa, bk @ pb))
        level = nxt
    return worst, len(seen), depth


# -- Richardson extrapolation, one series and one tableau entry at a time ------
#
# jointspec.extrapolate runs the same tableau on a stack of series at once;
# these loops take one series of scalars or matrices (a list of samples) and
# return (limit, error) or raise ExtrapolationError as it does.


def _mag(x):
    x = np.asarray(x)
    if x.ndim == 0:
        return abs(complex(x))
    return float(np.linalg.norm(x))


def richardson_limit(ts, values):
    """Limit at t = 0 of one series of samples on a halving ladder."""
    from jointspec.errors import ExtrapolationError

    ts = np.asarray(ts, dtype=float)
    vals = [np.asarray(v, dtype=complex) for v in values]
    prev_row = [vals[0]]
    best = vals[0]
    best_err = np.inf
    for k in range(1, len(vals)):
        row = [vals[k]]
        row_best = np.inf
        for j in range(1, k + 1):
            fac = 2.0**j
            entry = (fac * row[j - 1] - prev_row[j - 1]) / (fac - 1.0)
            err = max(_mag(entry - row[j - 1]), _mag(entry - prev_row[j - 1]))
            row.append(entry)
            row_best = min(row_best, err)
            if err < best_err:
                best_err = err
                best = entry
        prev_row = row
        if k >= 3 and row_best >= 2.0 * best_err:
            break
    scale = 1.0 + _mag(best)
    if not np.isfinite(best_err) or best_err > 1e-2 * scale:
        raise ExtrapolationError(
            f"extrapolation did not converge (error estimate {best_err:.3e})"
        )
    if np.asarray(values[0]).ndim == 0:
        return complex(best), float(best_err)
    return best, float(best_err)


def first_derivative(ts, values, v0):
    """d/dt at 0 of one series from its samples and v0 = v(0)."""
    quotients = [(np.asarray(v, dtype=complex) - v0) / t
                 for t, v in zip(np.asarray(ts, dtype=float), values)]
    return richardson_limit(ts, quotients)


def second_derivative(ts, values, v0):
    """d^2/dt^2 at 0 of one series from the pairs (t, t/2) and v0 = v(0)."""
    ts = np.asarray(ts, dtype=float)
    vals = [np.asarray(v, dtype=complex) for v in values]
    quotients = [
        4.0 * (vals[k] - 2.0 * vals[k + 1] + v0) / ts[k] ** 2 for k in range(ts.size - 1)
    ]
    return richardson_limit(ts[:-1], quotients)


def first_order_eigenvalue_derivative(a2, i):
    """d/dt of the i-th diagonal eigenvalue of diag + t*A2 (simple eigenvalue)."""
    return complex(np.asarray(a2)[i, i])


def simple_branch_closed_form(a1, a2, lam):
    """(d1, P(0)) of the branch through 1/lam, a simple nonzero eigenvalue of
    a normal A_1, along e_1: with u its unit eigenvector from a direct
    eigensolve, d1 = -u* A_2 u / lam and P(0) = u u* (first-order
    perturbation theory, Kato II §§1-2)."""
    w, v = np.linalg.eig(np.asarray(a1, dtype=complex))
    u = v[:, np.argmin(np.abs(w - lam))]
    u = u / np.linalg.norm(u)
    return complex(-(u.conj() @ np.asarray(a2) @ u) / lam), np.outer(u, u.conj())


def quadratic_fit_d2(ts, values, v0):
    """Second derivative at 0 from a least-squares quadratic through (t, v)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=complex) - v0
    design = np.vstack([ts, ts**2 / 2.0]).T
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return coef[1]


# -- slice eigensolves and root clusters, one at a time -----------------------
#
# jointspec solves a slice ladder's rungs as one stack, for roots only, and
# takes each projection's vectors from inverse iteration on its frozen pencil;
# these solve every rung on its own with eigenvectors, one LAPACK call per
# rung, and cluster without the library's shortcut for a lone value.


def rung_solves(mats, kind, xhat, ts):
    """The slice of kind at every rung t_k with left and right eigenvectors,
    as (alpha, beta, vl, vr) stacks: one raw LAPACK ggev per rung, each with
    its own workspace query.

    Nonzero kind: (I - t_k B) z = x_1 A_1 z with B = xhat.A_rest.  Zero kind:
    A_1 + t_k B against I.
    """
    a1 = np.asarray(mats[0], dtype=complex)
    b = sum(c * np.asarray(m, dtype=complex)
            for c, m in zip(np.asarray(xhat, dtype=complex), mats[1:]))
    eye = np.eye(a1.shape[0], dtype=complex)
    out = []
    for tk in np.asarray(ts, dtype=float):
        lhs, rhs = (a1 + tk * b, eye) if kind == "zero" else (eye - tk * b, a1)
        ggev, = scipy.linalg.get_lapack_funcs(("ggev",), (lhs, rhs))
        lwork = int(ggev(lhs, rhs, lwork=-1)[-2][0].real)
        alpha, beta, vl, vr, _, info = ggev(lhs, rhs, 1, 1, lwork)
        assert info == 0
        out.append((alpha, beta, vl, vr))
    return tuple(np.array(x) for x in zip(*out))


def cluster_values(values, tol):
    """Single-linkage clustering of complex values at absolute tolerance tol,
    by union-find over every pair; each cluster's value is its mean."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [(values[idx].mean(), list(idx)) for idx in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def track_branches(roots, reference, kinds, a1, lam):
    """The branches of one eigenvalue of A_1 on a slice ladder, one eigenvalue
    at a time: (lambda_0, kind, center, tracks), or the tracking error.

    roots maps each kind to its root table (a row per rung, padded with
    nan), reference holds A_1's (value, members) clusters and kinds their
    kinds.  The selection radius is half the distance from the center to
    the nearest other cluster (in 1/lambda for the nonzero kind), each
    rung's roots in the disk are clustered by union-find, and clusters are
    matched rung to rung: the nearest to the halfway prediction must be 4x
    nearer than the runner-up.
    """
    values = [c for c, _ in reference]
    i = min(range(len(values)), key=lambda k: abs(values[k] - lam))
    lam0, mult, kind = values[i], len(reference[i][1]), kinds[i]
    others = [c for c in values if abs(c - lam0) > 0]
    if kind == "zero":
        center = 0.0 + 0.0j
        radius = 0.5 * (min(abs(c) for c in others) if others
                        else 1.0 + np.linalg.norm(a1, 2))
    else:
        center = 1.0 / lam0
        charted = [1.0 / c for c in others if abs(c) > 1e-12]
        radius = 0.5 * min((abs(w - center) for w in charted), default=1.0 + abs(center))
    tol = 1e-6 * (1.0 + abs(center))
    levels = []
    for row in roots[kind]:
        near = [r for r in row if abs(r - center) <= radius]
        levels.append([(c, len(idx)) for c, idx in cluster_values(near, tol)])

    if len({len(lv) for lv in levels}) != 1:
        raise TrackingError(
            f"tracked cluster count changed along the ladder: {[len(lv) for lv in levels]}")
    total = sum(size for _, size in levels[-1])
    if total != mult:
        raise TrackingError(f"found total multiplicity {total} near {center}, expected {mult}")
    tracks = [[cl] for cl in levels[0]]
    for lv in levels[1:]:
        used = set()
        for track in tracks:
            prev, size = track[-1]
            pred = center + 0.5 * (prev - center)
            d = sorted((abs(c - pred), k) for k, (c, _) in enumerate(lv))
            if len(d) > 1 and d[0][0] > 0.25 * d[1][0]:
                raise BranchCollisionError(
                    f"ambiguous branch continuation near t-level with values "
                    f"{[c for c, _ in lv]}")
            best = d[0][1]
            if best in used:
                raise BranchCollisionError("two tracked branches matched the same root cluster")
            if lv[best][1] != size:
                raise TrackingError("branch multiplicity changed along the ladder")
            used.add(best)
            track.append(lv[best])
    tracks.sort(key=lambda tr: (tr[0][0].real, tr[0][0].imag))
    return lam0, kind, center, [([c for c, _ in tr], tr[0][1]) for tr in tracks]


# -- dihedral spectrum components, by equation --------------------------------
#
# The closed-form components of a dihedral irrep's pair spectra, which the
# tests check the computed spectra against.


@dataclass(frozen=True)
class SpectrumComponentDescriptor:
    """One irreducible spectrum component of a dihedral pair, by equation.

    shape 'line'/'gen_line' carries a sign pair (s1, s2) for s1 x1 + s2 x2 = 1;
    'ellipse' is x1^2 + 2 c x1 x2 + x2^2 = 1 and 'gen_ellipse_z' is
    x1^2 - x2^2 + 2 c x2 = 1 with c = cos(angle).
    """

    shape: str
    parameters: tuple

    def evaluate(self, x1, x2):
        x1, x2 = complex(x1), complex(x2)
        if self.shape in ("line", "gen_line"):
            s1, s2 = self.parameters
            return s1 * x1 + s2 * x2 - 1.0
        (c,) = self.parameters
        if self.shape == "ellipse":
            return x1 * x1 + 2.0 * c * x1 * x2 + x2 * x2 - 1.0
        if self.shape == "gen_ellipse_z":
            return x1 * x1 - x2 * x2 + 2.0 * c * x2 - 1.0
        raise ValueError(f"unknown shape {self.shape!r}")

    def sample(self, count, rng):
        """Real points on the component (the real trace is always nonempty)."""
        pts = []
        if self.shape in ("line", "gen_line"):
            s1, s2 = self.parameters
            for u in rng.uniform(-1.5, 1.5, size=count):
                pts.append(((1.0 - s2 * u) / s1, u))
        elif self.shape == "ellipse":
            (c,) = self.parameters
            q = np.array([[1.0, c], [c, 1.0]])
            root = scipy.linalg.sqrtm(np.linalg.inv(q)).real
            for th in rng.uniform(0.0, 2.0 * math.pi, size=count):
                v = root @ np.array([math.cos(th), math.sin(th)])
                pts.append((v[0], v[1]))
        else:
            (c,) = self.parameters
            for u in rng.uniform(-1.5, 1.5, size=count):
                x1 = math.sqrt(max(1.0 + u * u - 2.0 * c * u, 0.0))
                pts.append((x1 if rng.uniform() < 0.5 else -x1, u))
        return np.array(pts, dtype=complex)


def dihedral_component_catalog(irrep):
    """Spectrum component descriptors for (g1, g2) and for (g1, g1 g2) of a
    jointspec.DihedralIrrep."""
    if irrep.kind == "two_dim":
        c = math.cos(irrep.angle)
        return (
            SpectrumComponentDescriptor("ellipse", (c,)),
            SpectrumComponentDescriptor("gen_ellipse_z", (c,)),
        )
    e1, e2 = (float(g[0, 0].real) for g in irrep.generator_matrices)
    return (
        SpectrumComponentDescriptor("line", (e1, e2)),
        SpectrumComponentDescriptor("gen_line", (e1, e1 * e2)),
    )


# -- rigidity samplers, one line and one point at a time ----------------------
#
# The samplers of jointspec.coxeter as loops over lists of matrices: one
# scipy.linalg.eigvals per line and one SVD per point, drawing from the
# generator in the same order.


def pencil_at(mats, x):
    """x_1 A_1 + ... + x_n A_n, summed in coordinate order."""
    acc = np.zeros(mats[0].shape, dtype=complex)
    for ck, mk in zip(np.asarray(x, dtype=complex), mats):
        acc += ck * mk
    return acc


def _line_roots(mats, base, direction):
    """Finite roots of det((I - A(base)) - s A(direction)), sorted."""
    eye = np.eye(mats[0].shape[0])
    vals = scipy.linalg.eigvals(eye - pencil_at(mats, base), pencil_at(mats, direction))
    finite = vals[np.isfinite(vals)]
    return finite[np.lexsort((finite.imag, finite.real))]


def line_roots_qz(t: MatrixTuple, bases, directions):
    """The root table of line_roots_batch from one scipy.linalg.eigvals (QZ)
    per line: row i holds line i's finite roots of
    det((I - A(base)) - s A(direction)), sorted by real part, then imaginary
    part, padded with nan to the largest finite count of any line."""
    rows = [_line_roots(t.matrices, b, d) for b, d in zip(bases, directions)]
    table = np.full((len(rows), max((r.size for r in rows), default=0)), np.nan, dtype=complex)
    for row, r in zip(table, rows):
        row[:r.size] = r
    return table


def _is_member(mats, x, tol=1e-8):
    s = np.linalg.svd(pencil_at(mats, x) - np.eye(mats[0].shape[0]), compute_uv=False)
    return bool(s[-1] <= tol * (1.0 + s[0]))


def _random_direction(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def sample_spectrum_near(mats, center, radius, count, rng):
    """Spectrum points in |x - center| <= radius from at most 8 count lines."""
    center = np.asarray(center, dtype=complex)
    pts = []
    for _ in range(8 * count):
        if len(pts) >= count:
            break
        y = center + 0.4 * radius * _random_direction(rng, len(mats)) * rng.uniform()
        u = _random_direction(rng, len(mats))
        for s in _line_roots(mats, y, u):
            p = y + s * u
            if np.linalg.norm(p - center) <= radius:
                pts.append(p)
    return pts[:count]


def sampled_inclusion(src, dst, sample_count, seed):
    """(ok, witness) of sigma_p(src) in sigma_p(dst) on sampled points."""
    n = len(src)
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(4 * sample_count):
        if checked >= sample_count // 2:
            break
        u = _random_direction(rng, n)
        for s in _line_roots(src, np.zeros(n), u):
            if abs(s) > 4.0:
                continue
            p = s * u
            if not _is_member(dst, p):
                return False, p
            checked += 1
    for _ in range(4 * sample_count):
        if checked >= sample_count:
            break
        i = int(rng.integers(2, n + 1))
        u2 = _random_direction(rng, 2)
        for s in _line_roots([src[0], src[i - 1]], np.zeros(2), u2):
            if abs(s) > 4.0:
                continue
            p = np.zeros(n, dtype=complex)
            p[0] = s * u2[0]
            p[i - 1] = s * u2[1]
            if not _is_member(dst, p):
                return False, p
            checked += 1
    return True, None


def extended_matrices(mats):
    """(A_1, ..., A_n, A_1 A_2, ..., A_1 A_n)."""
    return list(mats) + [mats[0] @ m for m in mats[1:]]


def condition_II(mats, rep_mats, epsilon, sample_count, seed):
    """(results, witnesses) of the two-sided comparison near every ±e_j."""
    ext_a = extended_matrices(mats)
    ext_r = extended_matrices(rep_mats)
    rng = np.random.default_rng(seed)
    results, witnesses = {}, {}
    for j in range(1, len(mats) + 1):
        for sign in (1, -1):
            center = np.zeros(len(ext_a), dtype=complex)
            center[j - 1] = sign
            ok = True
            for src, dst in ((ext_r, ext_a), (ext_a, ext_r)):
                for p in sample_spectrum_near(src, center, epsilon, sample_count, rng):
                    if not _is_member(dst, p):
                        ok = False
                        witnesses[(j, sign)] = p
                        break
                if not ok:
                    break
            results[(j, sign)] = ok
    return results, witnesses


# -- reports, through the stdlib encoder ---------------------------------------
#
# The CLI writes reports with serialize._report_text, which renders float
# lists as blocks; these are the conversion and the encoder it replaced, one
# value at a time.


def clean(obj):
    """Make a report JSON-safe: numpy scalars become Python scalars, a
    complex [re, im], a tuple a list and a non-finite float None."""
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [clean(obj.real), clean(obj.imag)]
    return obj


def report_text(obj):
    """The text of a report as json.dumps writes it, before the trailing newline."""
    return json.dumps(clean(obj), indent=2, sort_keys=True)


def matrix_pairs(m):
    """A matrix as rows of [re, im] pairs, one complex entry at a time."""
    return [[[complex(v).real, complex(v).imag] for v in row]
            for row in np.asarray(m, dtype=complex)]


def operator_norms(stack):
    """The 2-norm of every matrix of a stack: its largest singular value,
    from one scipy.linalg.svdvals call per matrix."""
    return np.array([scipy.linalg.svdvals(m)[0] for m in stack])


# -- the per-relation checks, one identity at a time --------------------------
#
# Not oracles: each reports one identity from the private residual helper
# verify_pair reads, for the tests that check one identity on a chosen
# analysis; the norm profile of one branch reads its rung stack.


def verify_orthogonality_and_resolution(projs, res: SpectralResolution, lam, tol=1e-5):
    """Pairwise products vanish and the limit projections sum to the eigenprojection."""
    return _reports(_orthogonality_and_resolution(projs, res, lam), tol)


def verify_cross_moment_zero(proj_i, proj_j, a2, tol=1e-5):
    """P_j A2 P_i = 0 for distinct branches at the same eigenvalue."""
    return _reports([_cross_moment_zero(proj_i, proj_j, a2)], tol)[0]


def verify_first_moment(proj, a2, d1, tol=1e-5):
    """P A2 P + lam * d1 * P = 0 (nonzero kind) or P A2 P - d1 * P = 0 (zero kind).

    The lam factor is forced by scale invariance: A1 -> A1/lam maps the
    analysis at lam to the one at 1 and multiplies the branch derivative by
    lam, leaving the identity unchanged.
    """
    return _reports([_first_moment(proj, a2, d1)], tol)[0]


def verify_second_moment(proj, a2, t_op: TOperator, d2, tol=1e-5):
    """P A2 T A2 P = -(d2/2) P (nonzero kind) or +(d2/2) P (zero kind)."""
    return _reports([_second_moment(proj, a2, t_op, d2)], tol)[0]


def verify_prime_relations(limits, a1, a2, branches, tol=1e-5):
    """The four derivative identities linking P, P' and the branch derivatives.

    limits[k] is the LimitProjection of branches[k]; P and P'(0) are read
    from its matrix and derivative.  All branches must share the eigenvalue.
    The cross relations (3, 4) are reported with residual 0 when there is no
    sibling branch.
    """
    return _reports(_prime_relations(limits, a1, a2, branches), tol)


def _product_pair_analyses(t: MatrixTuple, lam, identity):
    if t.n != 2:
        raise ValueError(f"the {identity} identity is stated for pairs")
    a1, a2 = t.matrices
    # the zero kind of branches._reference_spectrum, where verify_pair
    # analyses no product pair
    if abs(complex(lam)) <= 1e-9 * max(1.0, float(np.linalg.norm(a1, 2))):
        raise ValueError(f"the {identity} identity requires lam != 0, not of the zero kind")
    ax = relations.analyze_pair(t, lam)
    az = relations.analyze_pair(MatrixTuple([a1, a1 @ a2]), lam)
    return ax, az


def verify_same_projection_lemma(t: MatrixTuple, lam, tol=1e-5):
    """Limit projections of (A1, A2) and (A1, A1 A2) coincide at lam != 0.

    A tol that is not a finite real > 0 raises ValueError before anything
    is analysed.
    """
    _check_tol(tol)
    ax, az = _product_pair_analyses(t, lam, "same-projection")
    return _reports(_product_pair(ax, az), tol)[0]


def verify_square_relation(t: MatrixTuple, lam, tol=1e-5):
    """P A2^2 P = ((z'' + 2 lam^3 x'^2 - lam^2 x'') / 2 lam) P at lam != 0.

    x', x'' are the branch derivatives for (A1, A2) and z'' the second
    derivative of the matched branch for (A1, A1 A2); branches are matched
    through z'(0) = lam * x'(0).  A tol that is not a finite real > 0
    raises ValueError before anything is analysed.
    """
    _check_tol(tol)
    ax, az = _product_pair_analyses(t, lam, "square")
    return _reports(_product_pair(ax, az), tol)[1]


def projection_norm_profile(t: MatrixTuple, b: Branch):
    """Projection norms down the ladder, from its rung stack, with a fitted
    power-law exponent."""
    return projections._norm_profiles([b], projections._rung_stack(t, [b]).norms)[0]
