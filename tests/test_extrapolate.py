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


# -- the stacked kernel against the one-series tableau oracle ---------------
#
# The kernel applies coefficient rows where the oracle recurses, so limits and
# error estimates agree to rounding: the largest deviations over every series
# of these tests measured 1.9e-15 (limits, relative) and 1.5e-15 (errors,
# against 1 + |limit|).  The failures and their messages are the oracle's.

LIMIT_RTOL = 1e-14
ERROR_ATOL = 1e-14


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


def _check_stack(kernel, oracle, ts, series, extra=()):
    """kernel on the stack of series agrees with oracle on each series: the
    same failures and messages, limits within LIMIT_RTOL relative, errors
    within ERROR_ATOL (1 + |limit|)."""
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
            size = np.linalg.norm(w[0])
            assert np.linalg.norm(limits[i] - w[0]) <= LIMIT_RTOL * size
            assert abs(errors[i] - w[1]) <= ERROR_ATOL * (1.0 + size)
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


@pytest.mark.parametrize("rungs", [2, 8, 10])
def test_coefficient_rows_are_exact_on_polynomials(rungs):
    # entry T[k][j] eliminates t, ..., t^j: on a polynomial of degree <= j it
    # is v(0), whatever the ladder's scale, to rounding (every row's 1-norm
    # stays below 8.3; the largest deviation measured 8.9e-16); its error row
    # is its difference from its upper parent T[k-1][j-1]
    entries, differences, support = extrapolate._tableau(rungs)
    ts = 2.0 ** -np.arange(rungs)
    p = 0
    for k in range(1, rungs):
        for j in range(1, k + 1):
            assert_allclose(entries[p] @ ts[:, None] ** np.arange(j + 1), np.eye(j + 1)[0],
                            rtol=0, atol=4e-15)
            up = np.eye(rungs)[k - 1] if j == 1 else entries[(k - 1) * (k - 2) // 2 + j - 2]
            assert_allclose(differences[p], entries[p] - up, rtol=0, atol=4e-15)
            assert np.array_equal(np.flatnonzero(support[p]), np.arange(k - j, k + 1))
            p += 1
    assert p == len(entries) == len(differences)


@pytest.mark.parametrize("rung", [0, 3, 7])
def test_matrix_series_with_a_nan_rung(rung):
    # the rung span is factored with the NaN rung zeroed: without that mask
    # one NaN spreads through the whole R factor
    rng = np.random.default_rng(rung)
    ts = ladder()
    series = _series(rng, "smooth", (6, 6), ts)
    series[rung] = np.full((6, 6), np.nan + 0j)
    want, want_err = oracles.richardson_limit(ts, series)
    (limit,), (error,) = extrapolate.richardson_limit(ts, [series])
    assert np.linalg.norm(limit - want) <= LIMIT_RTOL * np.linalg.norm(want)
    assert abs(error - want_err) <= ERROR_ATOL * (1.0 + np.linalg.norm(want))


@pytest.mark.parametrize("rung", range(8))
def test_no_entry_reads_a_nan_rung(rung):
    # samples of the size of their noise around 0, so a NaN rung read as 0
    # would pass for one more sample: every entry that reads the NaN rung
    # keeps an infinite error, as in the tableau
    rng = np.random.default_rng(rung)
    ts = ladder()
    series = 1e-3 * (rng.standard_normal((4, ts.size)) + 1j * rng.standard_normal((4, ts.size)))
    series[:, rung] = np.nan
    _check_stack(extrapolate.richardson_limit, oracles.richardson_limit, ts, list(series))


@pytest.mark.parametrize("shape", [(0, 8), (0, 8, 4, 4)])
def test_empty_stack(shape):
    limits, errors = extrapolate.richardson_limit(ladder(), np.zeros(shape))
    assert limits.shape == (0,) + shape[2:] and errors.shape == (0,)


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
    # a series does not depend on its neighbours in the stack
    assert limits[0] == limits[2]
    want = oracles.richardson_limit(ts, good)[0]
    assert abs(limits[0] - want) <= LIMIT_RTOL * abs(want)
    # a bad ladder is no per-series failure
    with pytest.raises(ExtrapolationError, match="halving"):
        extrapolate._each_series(extrapolate.richardson_limit, [1.0, 0.4, 0.2], [[1, 1, 1]])
