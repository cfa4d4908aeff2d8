"""The three linear forecasters; rd comes from ``SubspaceLadder(model).fit(L)``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from subspace_forecast import (
    METHOD_GB,
    METHOD_RD,
    METHOD_UNC,
    METHODS,
    CovarianceModel,
    IllConditionedError,
    SubspaceLadder,
    build_l_curve,
    fit_gauss_bayes,
    fit_unconditional,
    predict,
)


def random_model(dim, m, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) * spread
    return CovarianceModel.from_matrix(a @ a.T + 0.1 * np.eye(dim), m=m)


seeds = st.integers(min_value=0, max_value=2**31 - 1)


def test_method_constants():
    assert METHODS == (METHOD_UNC, METHOD_GB, METHOD_RD) == ("unc", "gb", "rd")


# A fully hand-checkable 2x2 problem: one observed day, one future day,
# unit variances, correlation 1/2.  The conditional coefficient equals the
# correlation and the posterior variance is 1 - 1/4 = 3/4.
def test_two_by_two_worked_example():
    model = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    gb = fit_gauss_bayes(model)
    assert_allclose(gb.coeff, [[0.5]])
    assert_allclose(gb.posterior_cov, [[0.75]])
    assert_allclose(predict(gb, np.array([2.0])), [1.0])
    unc = fit_unconditional(model)
    assert_allclose(unc.coeff, [[0.0]])
    assert_allclose(unc.posterior_cov, [[1.0]])
    assert_allclose(predict(unc, np.array([2.0])), [0.0])


def test_unconditional_ignores_observation():
    model = random_model(10, 7, seed=4)
    unc = fit_unconditional(model)
    assert unc.method == METHOD_UNC
    assert_allclose(unc.coeff, 0.0)
    assert_allclose(unc.posterior_cov, model.sigma_zz)
    rng = np.random.default_rng(0)
    assert_allclose(predict(unc, rng.standard_normal(7)), np.zeros(3))


@given(seed=seeds, dim=st.integers(4, 16))
@settings(max_examples=50, deadline=None)
def test_gauss_bayes_posterior_psd_and_smaller(seed, dim):
    m = dim - max(1, dim // 3)
    model = random_model(dim, m, seed)
    gb = fit_gauss_bayes(model)
    eigs = np.linalg.eigvalsh(gb.posterior_cov)
    assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)
    # conditioning can only shrink total uncertainty
    assert np.trace(gb.posterior_cov) <= np.trace(model.sigma_zz) + 1e-12
    assert_allclose(gb.posterior_cov, gb.posterior_cov.T)


def test_gauss_bayes_records_observation_conditioning():
    model = random_model(8, 5, seed=2)
    gb = fit_gauss_bayes(model)
    assert gb.cond is not None and gb.cond >= 1.0
    assert gb.subspace_dim is None


def test_gauss_bayes_singular_observation_block_raises():
    cov = np.ones((5, 5)) + np.diag([0.0, 0.0, 0.0, 1.0, 1.0])
    # y block is the all-ones 3x3 matrix: exactly singular
    model = CovarianceModel.from_matrix(cov, m=3)
    with pytest.raises(IllConditionedError):
        fit_gauss_bayes(model)


def test_independent_blocks_make_conditioning_a_no_op():
    # Identity covariance: observing y says nothing about z, so the
    # conditional estimate is the prior and nothing shrinks.
    model = CovarianceModel.from_matrix(np.eye(5), m=3)
    gb = fit_gauss_bayes(model)
    assert_allclose(gb.coeff, np.zeros((2, 3)), atol=0)
    assert_allclose(gb.posterior_cov, np.eye(2), atol=0)
    assert_allclose(predict(gb, np.array([3.0, -1.0, 2.0])), [0.0, 0.0], atol=0)


def test_ladder_fit_past_a_rank_deficient_basis_raises():
    # The second eigenvector (eigenvalue 3) lies wholly in the future block,
    # so V_ML has rank one: size 1 fits, size 2 must fail loudly rather than
    # return garbage coordinates, and its L-curve point is unusable.
    model = CovarianceModel.from_matrix(np.diag([1.0, 4.0, 3.0, 2.0]), m=2)
    ladder = SubspaceLadder(model)
    rd = ladder.fit(1)
    assert np.all(np.isfinite(rd.coeff)) and np.isfinite(rd.cond)
    with pytest.raises(IllConditionedError):
        ladder.fit(2)
    assert build_l_curve(ladder)[1].mse_rd == np.inf


def test_reduced_dimension_collapses_to_gauss_bayes_at_full_size():
    model = random_model(12, 8, seed=11)
    gb = fit_gauss_bayes(model)
    rd = SubspaceLadder(model).fit(8)
    assert rd.method == METHOD_RD
    assert rd.subspace_dim == 8
    assert_allclose(rd.coeff, gb.coeff, rtol=1e-6)
    assert_allclose(rd.posterior_cov, gb.posterior_cov, rtol=1e-6, atol=1e-12)


@given(seed=seeds)
@example(seed=328)  # cond(V_ML) 4.4e4: a Gram-matrix projection put rd 5e-9 below gb at L = 7
@settings(max_examples=40, deadline=None)
def test_reduced_dimension_posterior_between_gb_and_unconditional(seed):
    model = random_model(10, 7, seed)
    gb = fit_gauss_bayes(model)
    for L in (1, 3, 5, 7):
        rd = SubspaceLadder(model).fit(L)
        t = np.trace(rd.posterior_cov)
        assert np.trace(gb.posterior_cov) <= t + 1e-9
        assert t <= np.trace(model.sigma_zz) + 1e-9


def test_predict_is_linear_and_shape_checked():
    model = random_model(9, 6, seed=5)
    gb = fit_gauss_bayes(model)
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    assert_allclose(
        predict(gb, 2.0 * u - 3.0 * v),
        2.0 * predict(gb, u) - 3.0 * predict(gb, v),
        rtol=1e-10,
    )
    with pytest.raises(ValueError):
        predict(gb, rng.standard_normal(5))
    with pytest.raises(ValueError):
        predict(gb, rng.standard_normal((2, 6)))


# Brownian-motion covariance gives exact closed-form answers:
# cov[i, j] = min(i + 1, j + 1); given the first m coordinates the future
# increments are independent of the past, so var(z_k | y) = k exactly and
# the conditional mean is "hold the last observed level".
def test_brownian_conditional_closed_form():
    idx = np.arange(1, 19)
    cov = np.minimum.outer(idx, idx).astype(float)
    model = CovarianceModel.from_matrix(cov, m=12)
    gb = fit_gauss_bayes(model)
    expected_coeff = np.zeros((6, 12))
    expected_coeff[:, -1] = 1.0  # every forecast equals the last observation
    assert_allclose(gb.coeff, expected_coeff, atol=1e-9)
    assert_allclose(
        gb.posterior_cov, np.minimum.outer(np.arange(1, 7), np.arange(1, 7)), atol=1e-8
    )
