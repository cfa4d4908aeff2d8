"""The per-model subspace ladder against independent per-size constructions.

The ladder factors ``V_ML = Q R`` and ``Q' sigma_yy Q = K K'`` once and reads
every subspace size off leading blocks.  These tests rebuild each size from
scratch the way the paper states it (least-squares coordinates ``G``, the
filtered covariances, the combined coefficients) and compare.
"""

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_triangular

from subspace_forecast import (
    METHOD_RD,
    CovarianceModel,
    Estimator,
    IllConditionedError,
    SubspaceLadder,
    build_l_curve,
    centered_windows,
    empirical_covariance,
    empirical_mse,
    select_L,
    theoretical_mse,
    validation_scores,
)
from subspace_forecast._linalg import solve_sym, spectral_condition, symmetrize

from conftest import smooth_prices, to_series
from test_estimators import random_model

EPS = np.finfo(float).eps


def per_size_rd(model, L):
    """Reduced-dimension estimator of size ``L`` built on its own.

    Returns its coefficients, closed-form MSE and ``cond(sigma_ww)``.  The
    coefficients are as accurate as ``cond(sigma_ww)`` allows, so only the
    MSE and the condition number are compared with the ladder.
    """
    v = model.V[: model.m, :L]
    g = np.linalg.lstsq(v, np.eye(model.m), rcond=None)[0]
    sigma_ww = g @ model.sigma_yy @ g.T
    sigma_zw = model.sigma_zy @ g.T
    coeff = np.linalg.solve(sigma_ww, sigma_zw.T).T @ g
    est = Estimator(method=METHOD_RD, coeff=coeff, posterior_cov=model.sigma_zz)
    return coeff, theoretical_mse(model, est), float(np.linalg.cond(sigma_ww))


def gram_rd(model, L):
    """The normal-equations construction the ladder replaced:
    ``G = inv(V_ML' V_ML) V_ML'``.  Returns the closed-form MSE and
    ``cond(sigma_ww)``."""
    v = model.V[: model.m, :L]
    g = solve_sym(symmetrize(v.T @ v), v.T, "Gram matrix")
    sigma_ww = symmetrize(g @ model.sigma_yy @ g.T)
    sigma_zw = model.sigma_zy @ g.T
    coeff = solve_sym(sigma_ww, sigma_zw.T, "sigma_ww").T @ g
    est = Estimator(method=METHOD_RD, coeff=coeff, posterior_cov=model.sigma_zz)
    return theoretical_mse(model, est), spectral_condition(sigma_ww)


def rel(a, b):
    return abs(a - b) / abs(b)


def check_against_per_size(model):
    for point in build_l_curve(SubspaceLadder(model)):
        _, ref_mse, ref_cond = per_size_rd(model, point.L)
        assert rel(point.mse_rd, ref_mse) <= 1e-12, point.L
        assert rel(point.cond_ww, ref_cond) <= 1e-8, point.L


@pytest.mark.parametrize("seed", [*range(20), 328])
def test_ladder_matches_per_size_construction(seed):
    check_against_per_size(random_model(10, 7, seed))


def test_ladder_matches_per_size_construction_on_pinned_fixture(pinned_model):
    check_against_per_size(pinned_model)


def test_fit_agrees_with_the_curve(pinned_model):
    ladder = SubspaceLadder(pinned_model)
    curve = build_l_curve(ladder)
    for point in curve:
        est = ladder.fit(point.L)
        assert est.method == METHOD_RD and est.subspace_dim == point.L
        assert est.cond == point.cond_ww
        assert theoretical_mse(pinned_model, est) == point.mse_rd
        assert np.trace(est.posterior_cov) == pytest.approx(point.mse_rd, rel=1e-12)


def refit_scan(model, cap, val_y, val_z):
    """Validation selection with a separate fit for every feasible size."""
    best, best_value = None, float("inf")
    for L in range(1, model.m + 1):
        coeff, _, cond = per_size_rd(model, L)
        if cond > cap:
            continue
        value = float(empirical_mse(val_y @ coeff.T, val_z).sum())
        if value < best_value:
            best, best_value = L, value
    return best, best_value


def validation_rows(model, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.dim)) @ np.linalg.cholesky(model.sigma_xx).T
    return x[:, : model.m], x[:, model.m :]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cap", [3.0, 10.0, 1e3])
def test_cumulative_validation_scan_matches_refits(seed, cap):
    model = random_model(12, 8, seed)
    # held-out rows drawn from a different model, so the pick is not simply
    # the largest feasible size
    val_y, val_z = validation_rows(random_model(12, 8, seed + 100), 60, seed)
    want_l, want_value = refit_scan(model, cap, val_y, val_z)
    ladder = SubspaceLadder(model)
    scores = validation_scores(ladder, val_y, val_z)
    got_l = select_L(ladder, cap, scores)
    assert got_l == want_l
    assert scores[got_l - 1] == pytest.approx(want_value, rel=1e-10)


def test_cumulative_validation_scan_keeps_tie_order():
    # independent days: no size changes the forecast, every size ties
    # exactly, and both scans settle on the smallest
    model = CovarianceModel.from_matrix(np.eye(9), m=6)
    val_y, val_z = validation_rows(model, 40, seed=3)
    assert refit_scan(model, 1e6, val_y, val_z)[0] == 1
    ladder = SubspaceLadder(model)
    scores = validation_scores(ladder, val_y, val_z)
    assert select_L(ladder, 1e6, scores) == 1


def test_indefinite_observation_block_keeps_leading_points():
    # sigma_xx has rank m - 1 plus a negative eigenvalue of 1e-11 relative,
    # inside from_matrix's round-off tolerance; sigma_yy is then singular and
    # slightly indefinite, and Q' sigma_yy Q has no Cholesky factor at L = m
    rng = np.random.default_rng(0)
    dim, m = 10, 7
    a = rng.standard_normal((dim, m - 1))
    u = np.linalg.svd(a)[0][:, -1]  # a unit vector orthogonal to a's columns
    cov = a @ a.T
    cov = symmetrize(cov - 1e-11 * np.abs(cov).max() * np.outer(u, u))
    model = CovarianceModel.from_matrix(cov, m=m)
    assert np.linalg.eigvalsh(model.sigma_yy)[0] < 0

    ladder = SubspaceLadder(model)
    curve = build_l_curve(ladder)
    assert all(np.isfinite([p.mse_rd, p.cond_ww]).all() for p in curve[:-1])
    assert np.isinf(curve[-1].mse_rd) and np.isinf(curve[-1].cond_ww)
    assert np.all(np.isfinite(ladder.fit(m - 1).coeff))
    with pytest.raises(IllConditionedError):
        ladder.fit(m)


def test_sizes_outside_the_basis_are_refused():
    ladder = SubspaceLadder(random_model(8, 5, seed=1))
    for bad in (0, 6):
        with pytest.raises(ValueError):
            ladder.fit(bad)


def mp_reference(model, L):
    """``mse_rd`` and ``cond(sigma_ww)`` of size ``L`` at 50 significant
    digits, taking the float64 model as exact."""
    with mpmath.workdps(50):
        v = mpmath.matrix(model.V[: model.m, :L].tolist())
        g = mpmath.inverse(v.T * v) * v.T
        sigma_ww = g * mpmath.matrix(model.sigma_yy.tolist()) * g.T
        sigma_zw = mpmath.matrix(model.sigma_zy.tolist()) * g.T
        gain = sigma_zw * mpmath.inverse(sigma_ww) * sigma_zw.T
        mse = mpmath.fsum(model.sigma_zz[i, i] - gain[i, i] for i in range(model.horizon))
        eig = sorted(mpmath.eigsy(sigma_ww, eigvals_only=True))
        return mse, eig[-1] / eig[0]


def sweep_model(prices, m_days):
    """The sweep's full-train model of ``prices(5000, 1000)``."""
    train, _ = centered_windows(to_series(prices(5000, 1000)), m_days, 10, 2200)
    return empirical_covariance(train)


@pytest.mark.parametrize(
    "case, sizes",
    [
        ("pinned", (1, 5, 10, 20)),
        # cond(sigma_ww) is 3e3, 8e5 and 7e6 at these sizes; the Gram path's
        # cond_ww is off by 4e-10 to 6e-10 at the larger two
        ("smooth M=80", (10, 28, 40)),
    ],
)
def test_ladder_is_at_least_as_accurate_as_the_gram_path(case, sizes, pinned_model):
    model = pinned_model if case == "pinned" else sweep_model(smooth_prices, 80)
    curve = build_l_curve(SubspaceLadder(model))
    for L in sizes:
        ref_mse, ref_cond = mp_reference(model, L)
        gram_mse, gram_cond = gram_rd(model, L)
        err = lambda value, ref: float(abs((value - ref) / ref))
        # the curve's mse_rd is the closed form of the fitted coefficients,
        # stationary in their rounding
        mse_err, gram_mse_err = err(curve[L - 1].mse_rd, ref_mse), err(gram_mse, ref_mse)
        assert mse_err <= gram_mse_err, ("mse_rd", L, mse_err, gram_mse_err)
        # a condition number k is resolved to about k eps; below twice that
        # both paths are at rounding level and trade units in the last place
        cond_err, gram_cond_err = err(curve[L - 1].cond_ww, ref_cond), err(gram_cond, ref_cond)
        floor = 2 * float(ref_cond) * EPS
        assert cond_err <= max(gram_cond_err, floor), ("cond_ww", L, cond_err, gram_cond_err)


def product_form_cond_ww(ladder, L):
    """``cond(sigma_ww(L))`` from the product form: one triangular solve
    ``X_L = inv(R_L) K_L`` per size and the SVD of ``sigma_ww = X_L X_L'``,
    which rounds at about ``cond(sigma_ww) eps``."""
    x = solve_triangular(ladder._r[:L, :L], ladder._k[:L, :L])
    return spectral_condition(x @ x.T)


@pytest.mark.parametrize(
    "case, sizes",
    [("pinned", (1, 5, 10, 20)), ("smooth M=80", (10, 28, 40, 50, 60))],
)
def test_cond_ww_is_within_the_rounding_of_the_product_form(case, sizes, pinned_model):
    model = pinned_model if case == "pinned" else sweep_model(smooth_prices, 80)
    ladder = SubspaceLadder(model)
    err = lambda value, ref: float(abs((value - ref) / ref))
    for L in sizes:
        ref_cond = mp_reference(model, L)[1]
        cond_err = err(ladder.cond_ww(L), ref_cond)
        product_err = err(product_form_cond_ww(ladder, L), ref_cond)
        # cond(Y_L)**2 rounds at about 2 sqrt(cond) eps, the product form at
        # about cond eps.  It is not more accurate at every point: at L = 50
        # on the smooth model its error is 1.3e-13 against the product
        # form's 2.1e-14, inside its own bound of 2.6e-12.
        bound = max(product_err, 2 * np.sqrt(float(ref_cond)) * EPS)
        assert cond_err <= bound, (L, cond_err, product_err)


def test_singular_cutoff_stays_on_the_cond_ww_scale():
    # at L = 19 of the smooth M = 20 model cond(Y_L) is about 8e7, so
    # cond_ww is about 6.4e15: past 1 / SINGULARITY_RTOL, where the product
    # form's spectral_condition returned inf.  The size still has a fit.
    point = build_l_curve(SubspaceLadder(sweep_model(smooth_prices, 20)))[18]
    assert point.L == 19
    assert np.isinf(point.cond_ww)
    assert np.isfinite(point.mse_rd)
