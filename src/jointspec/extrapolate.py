"""Richardson extrapolation on geometric (halving) ladders.

The quantities extrapolated here (branch values, component projections) are
analytic in the ladder parameter t at t = 0, so their samples admit a full
power-series error model v(t) = v(0) + c1 t + c2 t^2 + ...  The tableau
eliminates one power per column; the returned entry is chosen adaptively by
a Ridders-style error estimate, which keeps roundoff from the finest ladder
levels out of the result.

Every tableau entry is a fixed real combination of the rung samples, so the
tableau is one linear map: its coefficient rows are computed once per rung
count, every error estimate of a stack of series comes from one matmul, and
each series' limit is its chosen row applied to its samples.  Matrix series
are first reduced to their rung span by one R-only QR, which keeps every
norm of a rung combination.  Every function takes a stack of series sampled
on one ladder, shape (series, rungs, ...); each series keeps its own choice
of entry and its own stopping row.
"""

import functools
import math

import numpy as np

from .errors import ExtrapolationError


def _check_halving(ts):
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ExtrapolationError("need at least two ladder samples")
    if np.any(ts <= 0):
        raise ExtrapolationError("ladder parameters must be positive")
    ratios = ts[1:] / ts[:-1]
    if np.any(np.abs(ratios - 0.5) > 1e-9):
        raise ExtrapolationError("samples must sit on a halving ladder t_k = t_max * 2^-k")
    return ts


def _not_converged(error):
    return ExtrapolationError(f"extrapolation did not converge (error estimate {error:.3e})")


@functools.lru_cache(maxsize=None)
def _tableau(rungs):
    """The tableau on rungs samples as real coefficient rows over the rungs.

    Entry p = k (k - 1) / 2 + j - 1 is T[k][j], 1 <= j <= k < rungs, in the
    order the tableau builds them, from T[k][0] = v_k and
    T[k][j] = (2^j T[k][j-1] - T[k-1][j-1]) / (2^j - 1).  Returns
    (entries, differences, support): entries[p] is T[k][j]'s row,
    differences[p] the row of its difference from its upper parent
    T[k-1][j-1], and support[p] marks the rungs k - j .. k that both rows
    read.  Its difference from its left parent is 2^-j times that one, so
    the larger of the two, the tableau's error estimate, is always the
    upper difference.
    """
    eye = np.eye(rungs)
    above = [eye[0]]
    entries, differences, support = [], [], []
    for k in range(1, rungs):
        row = [eye[k]]
        for j in range(1, k + 1):
            fac = 2.0**j
            entry = (fac * row[j - 1] - above[j - 1]) / (fac - 1.0)
            row.append(entry)
            entries.append(entry)
            differences.append(fac * (row[j - 1] - above[j - 1]) / (fac - 1.0))
            support.append((np.arange(rungs) >= k - j) & (np.arange(rungs) <= k))
        above = row
    out = (np.array(entries), np.array(differences), np.array(support, dtype=float))
    for a in out:
        a.flags.writeable = False
    return out


def _rows(x):
    """The complex (series, n, m) array x as a real (series, n, 2 m) array:
    each row's real and imaginary parts, interleaved."""
    return np.ascontiguousarray(x).view(float)


def richardson_limit(ts, values):
    """Extrapolate each series of values, samples v(t_k) on a halving
    ladder, to t = 0.

    values has shape (series, rungs, ...): one series per row, one sample
    per ladder level.  Each tableau grows row by row (fine levels last);
    per-entry errors compare against both parents.  Once a whole new row of
    a series is twice as bad as its best entry, roundoff from the fine
    levels has taken over and that series stops growing.  An entry that
    reads a non-finite sample has an infinite error.

    Returns (limits, errors), of shapes (series, ...) and (series,).  When
    the best entry of a series cannot be trusted to 1e-2 relative accuracy,
    raises ExtrapolationError with the message of the first such series;
    the error carries limits, errors and the boolean mask failed of the
    whole stack, so a caller that stacked several analyses can tell which
    of them converged.
    """
    ts = _check_halving(ts)
    vals = np.asarray(values, dtype=complex)
    if vals.ndim < 2 or vals.shape[1] != ts.size:
        raise ExtrapolationError("ts and values must have equal length")
    count, rungs = vals.shape[:2]
    entries, differences, support = _tableau(rungs)
    x = vals.reshape(count, rungs, math.prod(vals.shape[2:]))
    finite = np.isfinite(x).all(axis=2)
    clean = x if finite.all() else np.where(finite[:, :, None], x, 0.0)
    samples = _rows(clean)

    # a matrix series is reduced to its rung span, the R factor of
    # X^T = Q R: Q has orthonormal columns, so every combination of the
    # rungs keeps its norm
    span = samples
    if x.shape[2] > rungs:
        span = _rows(np.linalg.qr(clean.transpose(0, 2, 1), mode="r").transpose(0, 2, 1))
    diffs = differences @ span
    errors = np.sqrt(np.einsum("spm,spm->sp", diffs, diffs))
    errors[np.isnan(errors)] = np.inf
    if not finite.all():
        errors[(~finite @ support.T) > 0] = np.inf

    # the first least error of a row is the entry the tableau's strict
    # updates settle on; best -1 is T[0][0], the first sample
    best = np.full(count, -1)
    best_err = np.full(count, np.inf)
    growing = np.ones(count, dtype=bool)
    series = np.arange(count)
    for k in range(1, rungs):
        first = k * (k - 1) // 2
        pick = first + errors[:, first:first + k].argmin(axis=1)
        row_best = errors[series, pick]
        better = growing & (row_best < best_err)
        best[better] = pick[better]
        best_err[better] = row_best[better]
        if k >= 3:
            growing &= ~(row_best >= 2.0 * best_err)
            if not growing.any():
                break

    limits = (entries[best][:, None, :] @ samples).view(complex)[:, 0]
    limits[best < 0] = x[best < 0, 0]
    failed = ~np.isfinite(best_err) | (best_err > 1e-2 * (1.0 + np.linalg.norm(limits, axis=1)))
    limits = limits.reshape(vals.shape[:1] + vals.shape[2:])
    if failed.any():
        exc = _not_converged(best_err[np.argmax(failed)])
        exc.limits, exc.errors, exc.failed = limits, best_err, failed
        raise exc
    return limits, best_err


def _each_series(stacked, ts, values, *args):
    """(limits, errors, failures) of one stacked call of richardson_limit,
    first_derivative or second_derivative: failures[i] is the
    ExtrapolationError of series i, or None when it converged.

    Errors about the ladder or the shape of the stack are raised.
    """
    try:
        limits, errors = stacked(ts, values, *args)
    except ExtrapolationError as exc:
        if exc.failed is None:
            raise
        return exc.limits, exc.errors, [_not_converged(e) if f else None
                                        for e, f in zip(exc.errors, exc.failed)]
    return limits, errors, [None] * len(errors)


def _rungs_axis(ts, ndim):
    """ts shaped to broadcast along the rung axis of a stack of ndim dimensions."""
    return ts.reshape((1, -1) + (1,) * (ndim - 2))


def _quotients(ts, values, v0):
    """The difference quotients (v(t_k) - v0) / t_k of each series, computed
    in place of values, a complex stack of shape (series, rungs, ...)."""
    values -= np.asarray(v0, dtype=complex)[:, None]
    values /= _rungs_axis(np.asarray(ts, dtype=float), values.ndim)
    return values


def first_derivative(ts, values, v0):
    """d/dt at 0 of each series from its samples and its exact value v0 = v(0).

    values has shape (series, rungs, ...) and v0 shape (series, ...).
    """
    ts = _check_halving(ts)
    return richardson_limit(ts, _quotients(ts, np.array(values, dtype=complex), v0))


def second_derivative(ts, values, v0):
    """d^2/dt^2 at 0 of each series from ladder pairs (t, t/2) and its exact
    v0 = v(0), shapes as for first_derivative.

    4 (v(t) - 2 v(t/2) + v0) / t^2 = v''(0) + O(t), then extrapolated.
    """
    ts = _check_halving(ts)
    if ts.size < 3:
        raise ExtrapolationError("second derivative needs at least three samples")
    vals = np.asarray(values, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)[:, None]
    quotients = 4.0 * (vals[:, :-1] - 2.0 * vals[:, 1:] + v0) / _rungs_axis(ts[:-1], vals.ndim) ** 2
    return richardson_limit(ts[:-1], quotients)


def fit_power_law(ts, magnitudes):
    """Least-squares slope of log(magnitude) against log(t).

    magnitudes has shape (rungs,), for one float slope, or (rungs, series),
    for an array of one slope per column; all come from one polyfit.
    """
    ts = np.asarray(ts, dtype=float)
    mags = np.maximum(np.asarray(magnitudes, dtype=float), 1e-300)
    slope = np.polyfit(np.log(ts), np.log(mags), 1)[0]
    return float(slope) if slope.ndim == 0 else slope
