"""Monte-Carlo cross-checks of the closed forms on exactly known Gaussians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subspace_forecast import (
    CovarianceModel,
    DomainError,
    GaussianSpec,
    IllConditionedError,
    ParseError,
    SubspaceLadder,
    dump_covariance_csv,
    fit_gauss_bayes,
    fit_unconditional,
    geometric_spectrum,
    load_gaussian_spec,
    mc_bias,
    mc_mse,
    mc_squared_errors,
    random_covariance,
    sample,
    squared_bias,
    theoretical_mse,
)

from conftest import FIXTURE_SPLIT


def test_gaussian_spec_validation():
    with pytest.raises(DomainError):
        GaussianSpec(2, np.array([[1.0, 0.5], [0.1, 1.0]]))  # asymmetric
    with pytest.raises(DomainError):
        GaussianSpec(2, np.diag([1.0, -1.0]))  # not PSD
    with pytest.raises(ValueError):
        GaussianSpec(3, np.eye(2))  # dim mismatch


def test_sample_is_seed_deterministic():
    spec = GaussianSpec(4, np.eye(4), seed=123)
    assert_allclose(sample(spec, 50), sample(spec, 50))
    other = GaussianSpec(4, np.eye(4), seed=124)
    assert np.max(np.abs(sample(spec, 50) - sample(other, 50))) > 1e-3


def test_sample_degenerate_zero_covariance():
    spec = GaussianSpec(3, np.zeros((3, 3)), seed=5)
    draws = sample(spec, 50)
    assert_allclose(draws, np.zeros((50, 3)), atol=0)


def test_sample_moments_converge():
    rng_cov = random_covariance(5, geometric_spectrum(5, 10.0), seed=2)
    spec = GaussianSpec(5, rng_cov, seed=7)
    draws = sample(spec, 200_000)
    assert_allclose(draws.mean(axis=0), np.zeros(5), atol=0.02)
    assert_allclose(np.cov(draws, rowvar=False), rng_cov, atol=0.02)


def test_mc_estimate_float_protocol():
    spec = GaussianSpec(3, np.eye(3), seed=0)
    model = CovarianceModel.from_matrix(np.eye(3), m=2)
    (est,) = mc_mse(spec, [fit_unconditional(model)], split=2, n=2000)
    assert float(est) == est.value
    assert est.se > 0
    assert est.n == 2000


def test_mc_mse_matches_closed_forms(pinned_spec, pinned_model):
    ests = [
        fit_unconditional(pinned_model),
        fit_gauss_bayes(pinned_model),
        SubspaceLadder(pinned_model).fit(5),
    ]
    for est, mc in zip(ests, mc_mse(pinned_spec, ests, FIXTURE_SPLIT, n=40_000)):
        closed = theoretical_mse(pinned_model, est)
        assert mc.value == pytest.approx(closed, rel=0.05)
        # and much tighter than the contract tolerance in practice
        assert abs(mc.value - closed) < 5 * mc.se + 1e-3 * closed


def test_mc_mse_tiny_closed_forms():
    # conditional estimate on the hand-checkable 2x2 correlation-1/2 problem
    pair = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    pair_spec = GaussianSpec(2, pair.sigma_xx, seed=21)
    gb, rd = fit_gauss_bayes(pair), SubspaceLadder(pair).fit(1)
    mc_gb, mc_rd = mc_mse(pair_spec, [gb, rd], 1, n=20_000)
    assert mc_gb.value == pytest.approx(0.75, rel=0.05)
    # a full-size subspace reproduces the conditional answer on shared draws
    assert mc_rd.value == pytest.approx(mc_gb.value, rel=1e-4)
    # prior mean on independent days: one unit of error per forecast day
    ident = CovarianceModel.from_matrix(np.eye(4), m=1)
    ident_spec = GaussianSpec(4, np.eye(4), seed=22)
    unc = fit_unconditional(ident)
    assert mc_mse(ident_spec, [unc], 1, n=20_000)[0].value == pytest.approx(3.0, rel=0.05)


def test_mc_mse_is_the_mean_of_the_per_draw_squared_errors(pinned_spec, pinned_model):
    ests = [fit_unconditional(pinned_model), fit_gauss_bayes(pinned_model)]
    sq = mc_squared_errors(pinned_spec, ests, FIXTURE_SPLIT, 3_000)
    assert [s.shape for s in sq] == [(3_000,)] * 2
    x = sample(pinned_spec, 3_000)  # the same draws, scored independently
    y, z = x[:, :FIXTURE_SPLIT], x[:, FIXTURE_SPLIT:]
    for est, got in zip(ests, sq):
        assert_allclose(got, ((z - y @ est.coeff.T) ** 2).sum(axis=1), rtol=1e-12)
    mse = mc_mse(pinned_spec, ests, FIXTURE_SPLIT, 3_000)
    assert [e.value for e in mse] == [float(s.mean()) for s in sq]


def test_mc_mse_rejects_mismatched_split():
    pair = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    gb = fit_gauss_bayes(pair)
    wide = GaussianSpec(4, np.eye(4), seed=3)
    with pytest.raises(ValueError, match="does not match spec dim"):
        mc_mse(wide, [gb], 2, n=10)


def no_draw(seed):
    raise AssertionError("drew samples before the inputs were checked")


def test_mc_bias_singular_future_block_raises(monkeypatch):
    est = fit_unconditional(CovarianceModel.from_matrix(np.eye(3), m=2))
    degenerate = GaussianSpec(3, np.diag([1.0, 1.0, 0.0]), seed=9)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(IllConditionedError):
        mc_bias(degenerate, [est, est], 2, n=1_000)


def test_mc_bias_unconditional_is_total_future_variance(pinned_spec, pinned_model):
    (mc,) = mc_bias(pinned_spec, [fit_unconditional(pinned_model)], FIXTURE_SPLIT, n=40_000)
    assert mc.value == pytest.approx(np.trace(pinned_model.sigma_zz), rel=0.05)


def test_mc_bias_reduced_dimension_matches_closed_form(pinned_spec, pinned_model):
    ladder = SubspaceLadder(pinned_model)
    rds = [ladder.fit(L) for L in (5, 10)]
    for rd, mc in zip(rds, mc_bias(pinned_spec, rds, FIXTURE_SPLIT, n=40_000)):
        closed = squared_bias(pinned_model, rd)
        assert abs(mc.value - closed) <= 0.05 * closed + 3.0 * mc.se


def test_mc_bias_conditional_mean_equals_full_subspace_form(pinned_spec, pinned_model):
    """What the conditional mean's systematic error is.

    Its error has zero *unconditional* mean, but conditioned on a fixed
    future z the estimate is pulled toward the prior.  The measured squared
    bias is far from zero and agrees with the full-size reduced-dimension
    closed form, which is the figure ``squared_bias`` gives the
    conditional mean itself.
    """
    gb = fit_gauss_bayes(pinned_model)
    rd_full = SubspaceLadder(pinned_model).fit(FIXTURE_SPLIT)
    closed = squared_bias(pinned_model, rd_full)
    (mc,) = mc_bias(pinned_spec, [gb], FIXTURE_SPLIT, n=40_000)
    assert closed > 0.1  # the effect is far from negligible on this fixture
    assert abs(mc.value - closed) <= 0.05 * closed + 3.0 * mc.se
    assert squared_bias(pinned_model, gb) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("oracle", [mc_mse, mc_bias])
def test_one_draw_serves_every_estimator(oracle, pinned_spec, pinned_model):
    """Common random numbers: a list call scores every estimator on the draws
    a one-element call makes, so each estimate is bit-identical to its
    one-element call, whatever its position in the list."""
    ests = [
        fit_unconditional(pinned_model),
        SubspaceLadder(pinned_model).fit(5),
        fit_gauss_bayes(pinned_model),
    ]
    singles = [oracle(pinned_spec, [est], FIXTURE_SPLIT, 4_000)[0] for est in ests]
    together = oracle(pinned_spec, ests, FIXTURE_SPLIT, 4_000)
    reordered = oracle(pinned_spec, ests[::-1], FIXTURE_SPLIT, 4_000)[::-1]
    for got in (together, reordered):
        assert [(e.value, e.se, e.n) for e in got] == [(e.value, e.se, e.n) for e in singles]
    assert len({e.value for e in singles}) == len(ests)


@pytest.mark.parametrize("oracle", [mc_mse, mc_bias])
def test_oracles_check_every_estimator_before_drawing(
    oracle, pinned_spec, pinned_model, monkeypatch
):
    ests = [fit_unconditional(pinned_model), fit_gauss_bayes(pinned_model)]
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    pair = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    for pos in range(len(ests) + 1):
        mixed = ests[:pos] + [fit_gauss_bayes(pair)] + ests[pos:]
        with pytest.raises(ValueError, match="does not match spec dim"):
            oracle(pinned_spec, mixed, FIXTURE_SPLIT, 1_000)
    with pytest.raises(ValueError, match="at least one estimator"):
        oracle(pinned_spec, [], FIXTURE_SPLIT, 1_000)


def test_random_covariance_has_requested_spectrum():
    spec = geometric_spectrum(8, 100.0)
    cov = random_covariance(8, spec, seed=3)
    assert_allclose(cov, cov.T)
    eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert_allclose(eigs, spec, rtol=1e-9)


def test_geometric_spectrum_endpoints():
    spec = geometric_spectrum(12, 1e4)
    assert spec[0] == pytest.approx(1.0)
    assert spec[-1] == pytest.approx(1e-4)
    ratios = spec[:-1] / spec[1:]
    assert_allclose(ratios, ratios[0])  # constant decay rate
    with pytest.raises(ValueError):
        geometric_spectrum(1, 10.0)
    with pytest.raises(ValueError):
        geometric_spectrum(5, 0.5)


def test_load_gaussian_spec_round_trip(tmp_path, pinned_cov):
    model = CovarianceModel.from_matrix(pinned_cov, m=FIXTURE_SPLIT)
    path = tmp_path / "cov.csv"
    dump_covariance_csv(model, str(path))
    spec = load_gaussian_spec(str(path), seed=5)
    assert spec.dim == pinned_cov.shape[0]
    assert_allclose(spec.true_cov, model.sigma_xx, rtol=1e-15)


def test_load_gaussian_spec_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("this,is\nnot,numeric\n")
    with pytest.raises(ParseError):
        load_gaussian_spec(str(p))
