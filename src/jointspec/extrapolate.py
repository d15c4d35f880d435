"""Richardson extrapolation on geometric (halving) ladders.

The quantities extrapolated here (branch values, component projections) are
analytic in the ladder parameter t at t = 0, so their samples admit a full
power-series error model v(t) = v(0) + c1 t + c2 t^2 + ...  The tableau
eliminates one power per column; the returned entry is chosen adaptively by
a Ridders-style error estimate, which keeps roundoff from the finest ladder
levels out of the result.
"""

import numpy as np

from .errors import ExtrapolationError


def _mag(x):
    x = np.asarray(x)
    if x.ndim == 0:
        return abs(complex(x))
    return float(np.linalg.norm(x))


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


def richardson_limit(ts, values):
    """Extrapolate samples v(t_k) on a halving ladder to t = 0.

    The tableau grows row by row (one row per ladder level, fine levels
    last); per-entry errors compare against both parents.  Once a whole new
    row is twice as bad as the best entry seen, roundoff from the fine
    levels has taken over and the tableau stops growing.

    Returns (limit, error_estimate).  Raises ExtrapolationError when the
    best entry cannot be trusted to 1e-2 relative accuracy.
    """
    ts = _check_halving(ts)
    vals = [np.asarray(v, dtype=complex) for v in values]
    if len(vals) != ts.size:
        raise ExtrapolationError("ts and values must have equal length")

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
    """d/dt at 0 from samples and the exact value v0 = v(0)."""
    ts = _check_halving(ts)
    quotients = [(np.asarray(v, dtype=complex) - v0) / t for t, v in zip(ts, values)]
    return richardson_limit(ts, quotients)


def second_derivative(ts, values, v0):
    """d^2/dt^2 at 0 from ladder pairs (t, t/2) and the exact v0 = v(0).

    4 (v(t) - 2 v(t/2) + v0) / t^2 = v''(0) + O(t), then extrapolated.
    """
    ts = _check_halving(ts)
    if ts.size < 3:
        raise ExtrapolationError("second derivative needs at least three samples")
    vals = [np.asarray(v, dtype=complex) for v in values]
    quotients = [
        4.0 * (vals[k] - 2.0 * vals[k + 1] + v0) / ts[k] ** 2 for k in range(ts.size - 1)
    ]
    return richardson_limit(ts[:-1], quotients)


def fit_power_law(ts, magnitudes):
    """Least-squares slope of log(magnitude) against log(t)."""
    ts = np.asarray(ts, dtype=float)
    mags = np.maximum(np.asarray(magnitudes, dtype=float), 1e-300)
    slope, _ = np.polyfit(np.log(ts), np.log(mags), 1)
    return float(slope)
