"""Richardson extrapolation on geometric (halving) ladders.

The quantities extrapolated here (branch values, component projections) are
analytic in the ladder parameter t at t = 0, so their samples admit a full
power-series error model v(t) = v(0) + c1 t + c2 t^2 + ...  The tableau
eliminates one power per column; the returned entry is chosen adaptively by
a Ridders-style error estimate, which keeps roundoff from the finest ladder
levels out of the result.

Every function takes a stack of series sampled on one ladder, shape
(series, rungs, ...), and runs the tableau arithmetic on all of them at
once; each series keeps its own choice of entry and its own stopping row.
"""

import numpy as np

from .errors import ExtrapolationError


def _mags(x):
    """|x| of each series' entry (x has shape (series, ...)): the modulus of a
    scalar, the Frobenius norm of anything else.

    They equal abs(complex) and np.linalg.norm bit for bit: hypot for
    scalars, and for arrays the square root of the dot products of the real
    and imaginary parts, taken by a stacked matmul as norm takes them by dot.
    """
    if x.ndim == 1:
        return np.hypot(x.real, x.imag)
    flat = x.reshape(x.shape[0], -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0]
                   + (im[:, None, :] @ im[:, :, None])[:, 0, 0])


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


def richardson_limit(ts, values):
    """Extrapolate each series of values, samples v(t_k) on a halving
    ladder, to t = 0.

    values has shape (series, rungs, ...): one series per row, one sample
    per ladder level.  Each tableau grows row by row (fine levels last);
    per-entry errors compare against both parents.  Once a whole new row of
    a series is twice as bad as its best entry, roundoff from the fine
    levels has taken over and that series stops growing.

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

    # row holds the last tableau row; while row k is built, row[:j] is
    # already row k and row[j - 1:] still row k - 1
    row = [vals[:, 0]]
    best = vals[:, 0].copy()
    best_err = np.full(vals.shape[0], np.inf)
    growing = np.ones(vals.shape[0], dtype=bool)
    for k in range(1, ts.size):
        entry = vals[:, k]
        row_best = np.full(vals.shape[0], np.inf)
        for j in range(1, k + 1):
            fac = 2.0**j
            left, up = entry, row[j - 1]
            entry = (fac * left - up) / (fac - 1.0)
            lo, hi = _mags(entry - left), _mags(entry - up)
            err = np.where(hi > lo, hi, lo)
            row[j - 1] = left
            row_best = np.where(err < row_best, err, row_best)
            better = growing & (err < best_err)
            best[better] = entry[better]
            best_err[better] = err[better]
        row.append(entry)
        if k >= 3:
            growing &= ~(row_best >= 2.0 * best_err)
            if not growing.any():
                break

    failed = ~np.isfinite(best_err) | (best_err > 1e-2 * (1.0 + _mags(best)))
    if failed.any():
        exc = _not_converged(best_err[np.argmax(failed)])
        exc.limits, exc.errors, exc.failed = best, best_err, failed
        raise exc
    return best, best_err


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
