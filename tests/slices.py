"""Slice roots through the library's slice solver, the library's slice
ladder, and counts of the slice eigensolves and of branch tracking, for tests.

Not an oracle: it calls the private pencil._qz_line_roots (or another line
solver with its signature, such as jointspec.line_roots_batch) and
branches._solve_ladder.
"""

import numpy as np

import jointspec as js
from jointspec import branches, pencil, projections, relations


def e1_line_roots(t, rests, solve=pencil._qz_line_roots):
    """The finite roots of each line s -> (s, rest), one array per line:
    the rows of solve's root table along e_1 with their nan padding
    dropped; by default the slice ladders' QZ solver.

    Each rest holds the coordinates x_2, ..., x_n of its line's base (for a
    pair, x_2 alone); the base's x_1 is 0.
    """
    rests = np.asarray(rests, dtype=complex).reshape(len(rests), -1)
    bases = np.concatenate([np.zeros((len(rests), 1)), rests], axis=1)
    e1 = np.zeros_like(bases)
    e1[:, 0] = 1.0
    return [row[~np.isnan(row)] for row in solve(t, bases, e1)]


def ladder(t, xhat=(1.0,), t_max=1e-2, samples=8):
    """The slice ladder check_regularity tracks: every kind of A_1 solved
    along xhat, for its roots."""
    a1 = t.matrices[0]
    return branches._solve_ladder(t, branches._unit_direction(t, xhat), t_max, samples,
                                  *branches._reference_spectrum(a1, js.opnorm(a1)))


def count_solves(monkeypatch):
    """Count every slice eigensolve and projection kernel call made from here on.

    Returns a dict that fills as the library runs: "ggev" holds the number
    of pencils of each pencil._ggev_stack call, "eigvals" that of each
    np.linalg.eigvals call on a stack, "rank1" the number of matrices of
    each projections._rank_one_projections stack, "schur" the number of
    Schur forms projections made, and "svd" the number of matrices of each
    pencil._svd_extremes stack, from whichever module calls it.
    """
    counts = {"ggev": [], "eigvals": [], "rank1": [], "schur": 0, "svd": []}
    ggev, eigvals, svd = pencil._ggev_stack, np.linalg.eigvals, pencil._svd_extremes
    rank_one, schur = projections._rank_one_projections, projections._spectral_projection

    def counted_ggev(a, b):
        counts["ggev"].append(len(a))
        return ggev(a, b)

    def counted_eigvals(a):
        if np.ndim(a) == 3:
            counts["eigvals"].append(len(a))
        return eigvals(a)

    def counted_rank_one(f):
        counts["rank1"].append(len(f))
        return rank_one(f)

    def counted_schur(*args):
        counts["schur"] += 1
        return schur(*args)

    def counted_svd(stack):
        counts["svd"].append(len(stack))
        return svd(stack)

    monkeypatch.setattr(pencil, "_ggev_stack", counted_ggev)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(projections, "_rank_one_projections", counted_rank_one)
    monkeypatch.setattr(projections, "_spectral_projection", counted_schur)
    for module in (pencil, branches, projections, relations):
        monkeypatch.setattr(module, "_svd_extremes", counted_svd)
    return counts


def count_tracking(monkeypatch):
    """Count the tracking work done from here on: "pass" the clusters of A_1
    each branches._tracks pass takes, "track" the clusters it tracks by
    clustering and matching (branches._track), and "cluster" the
    branches._cluster_values calls, the eigenvalue clusters of A_1 included.
    """
    counts = {"pass": [], "track": 0, "cluster": 0}
    passes, track, cluster = branches._tracks, branches._track, branches._cluster_values

    def counted_pass(t, ladder, positions):
        counts["pass"].append(len(positions))
        return passes(t, ladder, positions)

    def counted_track(*args):
        counts["track"] += 1
        return track(*args)

    def counted_cluster(*args):
        counts["cluster"] += 1
        return cluster(*args)

    monkeypatch.setattr(branches, "_tracks", counted_pass)
    monkeypatch.setattr(branches, "_track", counted_track)
    monkeypatch.setattr(branches, "_cluster_values", counted_cluster)
    return counts
