"""Independent oracles for expected values.

Everything here computes expected results through a different route than the
library (closed forms, direct eigensolves, quadratic formula, first-order
perturbation), so the tests stay two-sided.
"""

import mpmath
import numpy as np
import scipy.linalg


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


def first_order_eigenvalue_derivative(a2, i):
    """d/dt of the i-th diagonal eigenvalue of diag + t*A2 (simple eigenvalue)."""
    return complex(np.asarray(a2)[i, i])


def quadratic_fit_d2(ts, values, v0):
    """Second derivative at 0 from a least-squares quadratic through (t, v)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=complex) - v0
    design = np.vstack([ts, ts**2 / 2.0]).T
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return coef[1]
