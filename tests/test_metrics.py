"""Closed-form MSE, bias/variance split, empirical scores, directional stat."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from subspace_forecast import (
    CovarianceModel,
    SubspaceLadder,
    directional_statistic,
    empirical_mse,
    fit_gauss_bayes,
    fit_unconditional,
    squared_bias,
    theoretical_mse,
    volatility,
)

from conftest import gbm_prices, smooth_prices
from test_subspace_ladder import EPS, sweep_model


def random_model(dim, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return CovarianceModel.from_matrix(a @ a.T + 0.1 * np.eye(dim), m=m)


def test_theoretical_mse_on_worked_example():
    model = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    assert theoretical_mse(model, fit_unconditional(model)) == pytest.approx(1.0)
    assert theoretical_mse(model, fit_gauss_bayes(model)) == pytest.approx(0.75)
    # independent unit-variance days: both methods pay one unit per day
    ident = CovarianceModel.from_matrix(np.eye(5), m=2)
    assert theoretical_mse(ident, fit_unconditional(ident)) == pytest.approx(3.0)
    assert theoretical_mse(ident, fit_gauss_bayes(ident)) == pytest.approx(3.0)


def mp_gb_mse(model):
    """gb's MSE, ``trace(sigma_zz - sigma_zy inv(sigma_yy) sigma_yz)``, at 50
    significant digits, taking the float64 model as exact."""
    with mpmath.workdps(50):
        sigma_zy = mpmath.matrix(model.sigma_zy.tolist())
        gain = sigma_zy * mpmath.inverse(mpmath.matrix(model.sigma_yy.tolist())) * sigma_zy.T
        return mpmath.fsum(model.sigma_zz[i, i] - gain[i, i] for i in range(model.horizon))


@pytest.mark.parametrize(
    "prices, m_days", [(smooth_prices, 20), (smooth_prices, 80), (gbm_prices, 80)]
)
def test_gb_theoretical_mse_is_stationary_in_the_coefficients_rounding(prices, m_days):
    # cond(sigma_yy) is 1.4e5, 4.8e6 and 1.5e4 on these models.  The shorter
    # trace(sigma_zz) - trace(sigma_zy C') is first-order in the rounding of
    # C: 6.0e-16 and 3.0e-15 relative on the smooth models.
    model = sweep_model(prices, m_days)
    gb = fit_gauss_bayes(model)
    ref = mp_gb_mse(model)
    err = lambda value: float(abs((value - ref) / ref))
    short = float(np.trace(model.sigma_zz)) - float(np.einsum("ij,ij->", model.sigma_zy, gb.coeff))
    full_err = err(theoretical_mse(model, gb))
    assert full_err <= 2 * EPS
    assert full_err <= max(err(short), EPS / 4)


def test_theoretical_mse_unconditional_is_future_trace():
    model = random_model(11, 7, seed=1)
    assert theoretical_mse(model, fit_unconditional(model)) == pytest.approx(
        np.trace(model.sigma_zz)
    )


def test_mse_equals_posterior_trace_for_all_methods():
    # for each estimator the closed-form MSE must agree with the trace of
    # the posterior covariance it reports
    model = random_model(12, 8, seed=3)
    ests = [fit_unconditional(model), fit_gauss_bayes(model)]
    for L in (2, 5, 8):
        ests.append(SubspaceLadder(model).fit(L))
    for est in ests:
        assert theoretical_mse(model, est) == pytest.approx(
            np.trace(est.posterior_cov), rel=1e-9
        )


def test_bias_decomposition_endpoints():
    model = random_model(10, 6, seed=5)
    total = np.trace(model.sigma_zz)
    unc = fit_unconditional(model)
    bias_u = squared_bias(model, unc)
    assert bias_u == pytest.approx(total)
    assert theoretical_mse(model, unc) - bias_u == 0.0  # no variance
    # the conditional mean takes the same conditional-bias closed form as rd
    gb = fit_gauss_bayes(model)
    bias_g = squared_bias(model, gb)
    r = np.linalg.solve(model.sigma_zz, model.sigma_zy).T
    icr = np.eye(model.horizon) - gb.coeff @ r
    expected = float(np.einsum("ij,ij->", icr @ model.sigma_zz, icr))
    assert bias_g == pytest.approx(expected, rel=1e-7, abs=1e-10)
    # the rest of the closed-form MSE is the variance tr(C sigma_{y|z} C')
    c = gb.coeff
    variance = np.trace(c @ (model.sigma_yy - r @ model.sigma_zy) @ c.T)
    assert theoretical_mse(model, gb) - bias_g == pytest.approx(variance, rel=1e-7, abs=1e-10)


@given(seed=st.integers(0, 2**31 - 1), L=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_bias_decomposition_reduced_dimension(seed, L):
    model = random_model(9, 6, seed)
    rd = SubspaceLadder(model).fit(L)
    bias = squared_bias(model, rd)
    assert bias >= -1e-12
    assert theoretical_mse(model, rd) - bias >= -1e-9  # the variance
    # the L = m subspace spans everything: the systematic error of the
    # reduced estimator then matches 1 - coeff-times-regression exactly
    if L == 6:
        gb = fit_gauss_bayes(model)
        icr = np.eye(model.horizon) - gb.coeff @ np.linalg.solve(
            model.sigma_zz, model.sigma_zy
        ).T
        expected = float(np.einsum("ij,ij->", icr @ model.sigma_zz, icr))
        assert bias == pytest.approx(expected, rel=1e-7, abs=1e-10)


def test_empirical_mse_hand_case():
    preds = np.array([[1.0, 2.0], [3.0, 4.0]])
    actual = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert_allclose(empirical_mse(preds, actual), [2.0, 5.0])  # mean of squared errors per day
    assert_allclose(empirical_mse(preds, preds), 0.0)
    single = empirical_mse(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]))
    assert_allclose(single, [1.0, 4.0])
    with pytest.raises(ValueError):
        empirical_mse(preds, actual[:1])


def test_directional_statistic_controls():
    z0 = np.array([10.0, 10.0, 10.0])
    actual = np.array([[11.0, 9.0], [9.5, 10.5], [12.0, 8.0]])
    perfect = directional_statistic(actual.copy(), actual, z0)
    assert_allclose(perfect, [1.0, 1.0])
    inverted = directional_statistic(20.0 - actual, actual, z0)
    assert_allclose(inverted, [0.0, 0.0])


def test_directional_statistic_counts_ties_as_misses():
    z0 = np.array([10.0])
    actual = np.array([[11.0, 9.0]])
    flat = np.array([[10.0, 12.0]])  # day 1 prediction sits exactly at z0
    out = directional_statistic(flat, actual, z0)
    assert_allclose(out, [0.0, 0.0])
    # agreement only needs the side to match, not the magnitude
    agree = directional_statistic(np.array([[12.0, 8.0]]), actual, z0)
    assert_allclose(agree, [1.0, 1.0])


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_directional_statistic_bounded(seed):
    rng = np.random.default_rng(seed)
    n, h = 37, 4
    z0 = np.abs(rng.standard_normal(n)) + 0.5
    actual = z0[:, None] * (1.0 + 0.1 * rng.standard_normal((n, h)))
    preds = z0[:, None] * (1.0 + 0.1 * rng.standard_normal((n, h)))
    out = directional_statistic(preds, actual, z0)
    assert out.shape == (h,)
    assert np.all(out >= 0.0)
    assert np.all(out <= 1.0)


def test_volatility_brownian_exact():
    # integrated noise: var(day m+k | first m days) = k, per-day standard
    # deviation sqrt(k) -- exact, no tolerance needed beyond round-off
    idx = np.arange(1, 21)
    model = CovarianceModel.from_matrix(np.minimum.outer(idx, idx).astype(float), m=12)
    vol = volatility(fit_gauss_bayes(model))
    assert_allclose(vol, np.sqrt(np.arange(1.0, 9.0)), atol=1e-9)
    assert np.all(np.diff(vol) > 0)  # uncertainty grows with the horizon
    assert_allclose(volatility(fit_gauss_bayes(model), scale=3.0), 3.0 * vol)


def test_volatility_diagonal_square_roots():
    model = CovarianceModel.from_matrix(np.diag([1.0, 0.04, 0.09]), m=1)
    assert_allclose(volatility(fit_unconditional(model)), [0.2, 0.3])


def test_volatility_dominated_by_unconditional():
    model = random_model(10, 7, seed=2)
    v_unc = volatility(fit_unconditional(model))
    assert np.all(volatility(fit_gauss_bayes(model)) <= v_unc + 1e-12)
    for L in (1, 4, 7):
        rd = SubspaceLadder(model).fit(L)
        assert np.all(volatility(rd) <= v_unc + 1e-12)
