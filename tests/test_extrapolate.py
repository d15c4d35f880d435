"""Tests for the ladder extrapolation helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from jointspec import extrapolate
from jointspec.errors import ExtrapolationError


def ladder(t_max=1e-2, k=8):
    return t_max * 2.0 ** (-np.arange(k))


def test_limit_of_analytic_function():
    ts = ladder()
    vals = [1.0 / (1.0 + t) for t in ts]
    lim, err = extrapolate.richardson_limit(ts, [vals])
    assert lim.shape == err.shape == (1,)
    assert abs(lim[0] - 1.0) <= max(err[0], 1e-12)


def test_limit_of_matrix_family():
    ts = ladder()
    base = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    vals = [base + t * np.ones((2, 2)) + t * t * np.eye(2) for t in ts]
    lim, err = extrapolate.richardson_limit(ts, [vals])
    assert lim.shape == (1, 2, 2)
    assert_allclose(lim[0], base, atol=1e-12)


def test_first_and_second_derivative_of_cos():
    ts = ladder()
    vals = [[np.cos(t) for t in ts]]
    d1, e1 = extrapolate.first_derivative(ts, vals, [1.0])
    d2, e2 = extrapolate.second_derivative(ts, vals, [1.0])
    assert abs(d1[0]) <= 1e-10
    assert abs(d2[0] + 1.0) <= 1e-8


def test_derivatives_of_complex_branch():
    # v(t) = exp((2+1j) t): d1 = 2+1j, d2 = (2+1j)^2
    ts = ladder()
    z = 2.0 + 1.0j
    vals = [[np.exp(z * t) for t in ts]]
    d1, _ = extrapolate.first_derivative(ts, vals, [1.0])
    d2, _ = extrapolate.second_derivative(ts, vals, [1.0])
    assert abs(d1[0] - z) <= 1e-10
    assert abs(d2[0] - z * z) <= 1e-7


def test_rejects_non_halving_ladder():
    with pytest.raises(ExtrapolationError):
        extrapolate.richardson_limit([1.0, 0.4, 0.2], [[1.0, 1.0, 1.0]])


def test_rejects_noise():
    ts = ladder()
    vals = [1e6 * (-1.0) ** k for k in range(ts.size)]
    with pytest.raises(ExtrapolationError):
        extrapolate.richardson_limit(ts, [vals])


def test_power_law_fit():
    ts = ladder(0.1, 10)
    mags = 3.0 * ts**-1.0
    assert abs(extrapolate.fit_power_law(ts, mags) + 1.0) <= 1e-12
    assert abs(extrapolate.fit_power_law(ts, np.full(10, 2.0))) <= 1e-12


def test_power_law_fit_of_every_column(monkeypatch):
    # one polyfit for all columns; each slope that of its column alone, to rounding
    ts = ladder(0.1, 10)
    mags = np.stack([3.0 * ts**-1.0, np.full(10, 2.0), ts**0.5 * (1.0 + 0.1 * ts)], axis=1)
    alone = [extrapolate.fit_power_law(ts, column) for column in mags.T]
    calls = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *args: calls.append(args) or polyfit(*args))
    slopes = extrapolate.fit_power_law(ts, mags)
    assert len(calls) == 1 and slopes.shape == (3,)
    assert_allclose(slopes, alone, rtol=1e-14, atol=1e-15)


# -- the stacked kernel against the one-series oracle, bit for bit -----------


def _series(rng, kind, shape, ts):
    """One series of samples on ladder ts: smooth, smooth with rounding noise
    (it stops at a row of its own), alternating noise (does not converge),
    or smooth with a NaN at one rung."""
    c = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]
    vals = [c[0] + c[1] * t + c[2] * t**2 + c[3] * np.sin(5 * t) for t in ts]
    if kind == "noisy":
        scale = 10.0 ** rng.uniform(-13, -9)
        vals = [v + scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for v in vals]
    elif kind == "diverging":
        vals = [1e6 * (-1.0) ** k * (1.0 + v) for k, v in enumerate(vals)]
    elif kind == "nan":
        vals[int(rng.integers(0, len(ts)))] = np.full(shape, np.nan + 0j)
    return [np.asarray(v, dtype=complex) for v in vals]


def _one(oracle, *args):
    """(limit, error) of the oracle, or its ExtrapolationError message."""
    try:
        return oracle(*args)
    except ExtrapolationError as exc:
        return str(exc)


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def _check_stack(kernel, oracle, ts, series, extra=()):
    """kernel on the stack of series equals oracle on each series: limits,
    errors, and the ExtrapolationError of the first failing series."""
    want = [_one(oracle, ts, s, *(e[i] for e in extra)) for i, s in enumerate(series)]
    stacked = [np.array(s) for s in series]
    try:
        limits, errors = kernel(ts, np.array(stacked), *(np.array(e) for e in extra))
        failed = np.zeros(len(series), dtype=bool)
    except ExtrapolationError as exc:
        first = next(w for w in want if isinstance(w, str))
        assert str(exc) == first
        limits, errors, failed = exc.limits, exc.errors, exc.failed
    for i, w in enumerate(want):
        assert failed[i] == isinstance(w, str)
        if isinstance(w, str):
            assert w == f"extrapolation did not converge (error estimate {errors[i]:.3e})"
        else:
            assert _bits(limits[i]) == _bits(w[0])
            assert np.float64(errors[i]).tobytes() == np.float64(w[1]).tobytes()
    return want


KINDS = ["smooth", "noisy", "diverging", "nan"]


@pytest.mark.parametrize("shape", [(), (3, 3), (8, 8)])
@pytest.mark.parametrize("mix", [["smooth"], ["noisy"], ["diverging"], ["nan"],
                                 ["smooth", "noisy"] * 4, KINDS * 3,
                                 ["smooth", "diverging", "noisy", "diverging"]])
def test_stack_matches_the_one_series_oracle(shape, mix):
    rng = np.random.default_rng(len(mix) * 10 + len(shape))
    ts = ladder()
    series = [_series(rng, kind, shape, ts) for kind in mix]
    want = _check_stack(extrapolate.richardson_limit, oracles.richardson_limit, ts, series)
    if "diverging" in mix:
        assert any(isinstance(w, str) for w in want)


def test_series_stop_at_different_rows():
    # pure rounding noise stops a series as soon as its row gets worse; the
    # exact polynomial runs the whole ladder
    rng = np.random.default_rng(3)
    ts = ladder(1e-2, 10)
    series = [[1.0 + 2.0 * t for t in ts]]
    for scale in (1e-14, 1e-11, 1e-8):
        series.append([1.0 + 0.5 * t + scale * rng.standard_normal() for t in ts])
    _check_stack(extrapolate.richardson_limit, oracles.richardson_limit, ts, series)


@pytest.mark.parametrize("shape", [(), (4, 4)])
def test_derivative_stacks_match_the_oracles(shape):
    rng = np.random.default_rng(7)
    ts = ladder()
    series = [_series(rng, kind, shape, ts) for kind in ["smooth", "noisy"] * 3]
    v0 = [s[0] - 0.01 * s[1] for s in series]
    _check_stack(extrapolate.first_derivative, oracles.first_derivative, ts, series, (v0,))
    _check_stack(extrapolate.second_derivative, oracles.second_derivative, ts, series, (v0,))


def test_each_series_reports_the_failures():
    ts = ladder()
    good = [1.0 / (1.0 + t) for t in ts]
    bad = [1e6 * (-1.0) ** k for k in range(ts.size)]
    limits, errors, failures = extrapolate._each_series(
        extrapolate.richardson_limit, ts, [good, bad, good])
    assert [f is None for f in failures] == [True, False, True]
    with pytest.raises(ExtrapolationError) as exc:
        oracles.richardson_limit(ts, bad)
    assert str(failures[1]) == str(exc.value)
    assert limits[0] == limits[2] == oracles.richardson_limit(ts, good)[0]
    # a bad ladder is no per-series failure
    with pytest.raises(ExtrapolationError, match="halving"):
        extrapolate._each_series(extrapolate.richardson_limit, [1.0, 0.4, 0.2], [[1, 1, 1]])
