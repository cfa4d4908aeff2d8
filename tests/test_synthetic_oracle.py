"""Monte-Carlo cross-checks of the closed forms on exactly known Gaussians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subspace_forecast import (
    CovarianceModel,
    DomainError,
    GaussianSpec,
    IllConditionedError,
    McEstimate,
    ParseError,
    SubspaceLadder,
    dump_covariance_csv,
    fit_gauss_bayes,
    fit_unconditional,
    gbm_prices,
    geometric_spectrum,
    load_gaussian_spec,
    mc_bias,
    mc_mse,
    mc_squared_errors,
    random_covariance,
    sample,
    smooth_prices,
    squared_bias,
    theoretical_mse,
)
from subspace_forecast._linalg import solve_sym, symmetrize
from subspace_forecast.synthetic_oracle import MC_BIAS_REPLICATES, SAMPLE_BLOCK, _sqrt_factor

from conftest import FIXTURE_SPLIT


def test_gaussian_spec_validation():
    with pytest.raises(DomainError):
        GaussianSpec(np.array([[1.0, 0.5], [0.1, 1.0]]))  # asymmetric
    with pytest.raises(DomainError):
        GaussianSpec(np.diag([1.0, -1.0]))  # not PSD
    assert GaussianSpec(np.eye(3)).dim == 3


def test_sample_is_seed_deterministic():
    spec = GaussianSpec(np.eye(4), seed=123)
    assert_allclose(sample(spec, 50), sample(spec, 50))
    other = GaussianSpec(np.eye(4), seed=124)
    assert np.max(np.abs(sample(spec, 50) - sample(other, 50))) > 1e-3


def test_sample_degenerate_zero_covariance():
    spec = GaussianSpec(np.zeros((3, 3)), seed=5)
    draws = sample(spec, 50)
    assert_allclose(draws, np.zeros((50, 3)), atol=0)


def test_sample_moments_converge():
    rng_cov = random_covariance(geometric_spectrum(5, 10.0), seed=2)
    spec = GaussianSpec(rng_cov, seed=7)
    draws = sample(spec, 200_000)
    assert_allclose(draws.mean(axis=0), np.zeros(5), atol=0.02)
    assert_allclose(np.cov(draws, rowvar=False), rng_cov, atol=0.02)


def test_mc_mse_reports_value_se_and_n():
    spec = GaussianSpec(np.eye(3), seed=0)
    model = CovarianceModel.from_matrix(np.eye(3), m=2)
    (est,) = mc_mse(spec, [fit_unconditional(model)], n=2000)
    assert est.value > 0
    assert est.se > 0
    assert est.n == 2000


def test_mc_estimate_of_samples():
    est = McEstimate.of(np.array([1.0, 2.0, 6.0]), n=300)
    assert est == McEstimate(value=3.0, se=pytest.approx(np.sqrt(7 / 3)), n=300)
    assert McEstimate.of(np.array([1.0, 3.0])).n == 2
    # one sample has no spread to estimate: the error is unbounded, not nan
    assert McEstimate.of(np.array([2.5])) == McEstimate(value=2.5, se=np.inf, n=1)


def test_mc_mse_matches_closed_forms(pinned_spec, pinned_model):
    ests = [
        fit_unconditional(pinned_model),
        fit_gauss_bayes(pinned_model),
        SubspaceLadder(pinned_model).fit(5),
    ]
    for est, mc in zip(ests, mc_mse(pinned_spec, ests, n=40_000)):
        closed = theoretical_mse(pinned_model, est)
        assert mc.value == pytest.approx(closed, rel=0.05)
        # and much tighter than the contract tolerance in practice
        assert abs(mc.value - closed) < 5 * mc.se + 1e-3 * closed


def test_mc_mse_tiny_closed_forms():
    # conditional estimate on the hand-checkable 2x2 correlation-1/2 problem
    pair = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    pair_spec = GaussianSpec(pair.sigma_xx, seed=21)
    gb, rd = fit_gauss_bayes(pair), SubspaceLadder(pair).fit(1)
    mc_gb, mc_rd = mc_mse(pair_spec, [gb, rd], n=20_000)
    assert mc_gb.value == pytest.approx(0.75, rel=0.05)
    # a full-size subspace reproduces the conditional answer on shared draws
    assert mc_rd.value == pytest.approx(mc_gb.value, rel=1e-4)
    # prior mean on independent days: one unit of error per forecast day
    ident = CovarianceModel.from_matrix(np.eye(4), m=1)
    ident_spec = GaussianSpec(np.eye(4), seed=22)
    unc = fit_unconditional(ident)
    assert mc_mse(ident_spec, [unc], n=20_000)[0].value == pytest.approx(3.0, rel=0.05)


def test_mc_mse_is_the_mean_of_the_per_draw_squared_errors(pinned_spec, pinned_model):
    ests = [fit_unconditional(pinned_model), fit_gauss_bayes(pinned_model)]
    # one block, one row, and several blocks with a partial last one
    for n in (3_000, 1, 3 * SAMPLE_BLOCK + 17):
        sq = mc_squared_errors(pinned_spec, ests, n)
        assert [s.shape for s in sq] == [(n,)] * 2
        x = sample(pinned_spec, n)  # the same draws, scored independently
        # ... which are those of one draw of all n rows
        one_draw = np.random.default_rng(pinned_spec.seed).standard_normal((n, pinned_spec.dim))
        assert_allclose(x, one_draw @ _sqrt_factor(pinned_spec.true_cov), rtol=0,
                        atol=1e-12 * np.abs(x).max())
        y, z = x[:, :FIXTURE_SPLIT], x[:, FIXTURE_SPLIT:]
        for est, got in zip(ests, sq):
            assert_allclose(got, ((z - y @ est.coeff.T) ** 2).sum(axis=1), rtol=1e-12)
        mse = mc_mse(pinned_spec, ests, n)
        assert [e.value for e in mse] == [float(s.mean()) for s in sq]


def test_mc_mse_rejects_mismatched_split(monkeypatch):
    """The estimators must share one split of the spec dim: two splits of
    it, or one split whose shape does not fit it, raise before any draw."""
    wide = GaussianSpec(np.eye(4), seed=3)
    at = {m: fit_gauss_bayes(CovarianceModel.from_matrix(np.eye(4), m=m)) for m in (1, 2)}
    pair = CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), m=1)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for ests in ([at[1], at[2]], [at[2], at[1]], [fit_gauss_bayes(pair)]):
        for oracle in (mc_mse, mc_bias):
            with pytest.raises(ValueError, match="does not match spec dim 4"):
                oracle(wide, ests, n=10)


def no_draw(seed):
    raise AssertionError("drew samples before the inputs were checked")


def test_mc_bias_singular_future_block_raises(monkeypatch):
    est = fit_unconditional(CovarianceModel.from_matrix(np.eye(3), m=2))
    degenerate = GaussianSpec(np.diag([1.0, 1.0, 0.0]), seed=9)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(IllConditionedError):
        mc_bias(degenerate, [est, est], n=1_000)


def replicate_level_bias(spec, ests, split, n):
    """``mc_bias`` formed replicate by replicate: every observation vector
    and its forecast is kept, from the same draws (z, then every eps)."""
    cov = spec.true_cov
    syy, szy, szz = cov[:split, :split], cov[split:, :split], cov[split:, split:]
    n_rep = MC_BIAS_REPLICATES
    n_z = n // n_rep
    r = solve_sym(szz, szy, "sigma_zz").T
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((n_z, spec.dim - split)) @ _sqrt_factor(szz)
    eps = rng.standard_normal((n_z, n_rep, split)) @ _sqrt_factor(symmetrize(syy - r @ szy))
    y = (z @ r.T)[:, None, :] + eps
    out = []
    for est in ests:
        zhat = y @ est.coeff.T
        m_k = zhat.mean(axis=1)
        resid = zhat - m_k[:, None, :]
        noise = np.einsum("kij,kij->k", resid, resid) / (n_rep - 1)
        b_k = np.einsum("ki,ki->k", m_k - z, m_k - z) - noise / n_rep
        out.append((b_k.mean(), b_k.std(ddof=1) / np.sqrt(n_z), n_z * n_rep))
    return out


@pytest.mark.parametrize("n", [100_000, 12_345])
def test_mc_bias_matches_the_replicate_level_form(n, pinned_spec, pinned_model):
    """Per-stratum mean and scatter give the estimates that forming every
    replicate's forecast gives, whether the strata fill whole draw blocks
    or leave a partial last block."""
    strata_per_block = SAMPLE_BLOCK // MC_BIAS_REPLICATES
    assert ((n // MC_BIAS_REPLICATES) % strata_per_block == 0) == (n == 100_000)
    ladder = SubspaceLadder(pinned_model)
    ests = [fit_unconditional(pinned_model), fit_gauss_bayes(pinned_model)]
    ests += [ladder.fit(L) for L in (1, 5, 10)]
    got = mc_bias(pinned_spec, ests, n)
    want = replicate_level_bias(pinned_spec, ests, FIXTURE_SPLIT, n)
    for g, (value, se, count) in zip(got, want):
        assert g.value == pytest.approx(value, rel=1e-12)
        assert g.se == pytest.approx(se, rel=1e-12)
        assert g.n == count


def test_mc_bias_unconditional_is_total_future_variance(pinned_spec, pinned_model):
    (mc,) = mc_bias(pinned_spec, [fit_unconditional(pinned_model)], n=40_000)
    assert mc.value == pytest.approx(np.trace(pinned_model.sigma_zz), rel=0.05)


def test_mc_bias_reduced_dimension_matches_closed_form(pinned_spec, pinned_model):
    ladder = SubspaceLadder(pinned_model)
    rds = [ladder.fit(L) for L in (5, 10)]
    for rd, mc in zip(rds, mc_bias(pinned_spec, rds, n=40_000)):
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
    (mc,) = mc_bias(pinned_spec, [gb], n=40_000)
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
    singles = [oracle(pinned_spec, [est], 4_000)[0] for est in ests]
    together = oracle(pinned_spec, ests, 4_000)
    reordered = oracle(pinned_spec, ests[::-1], 4_000)[::-1]
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
            oracle(pinned_spec, mixed, 1_000)
    with pytest.raises(ValueError, match="at least one estimator"):
        oracle(pinned_spec, [], 1_000)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            oracle(pinned_spec, ests, n)


# Points of the benchmark's inputs: the 5000-day sweep series of seed 1000
# and one 3000-day desk series.  A generator edit that moves them moves every
# benchmark input and the picks pinned in perfbench/reference.json.  Held to
# a tolerance, not a byte hash, because np.exp may differ by an ulp across CPUs.
GENERATOR_POINTS = {
    (gbm_prices, 5000, 1000): {
        1: 99.53907024775852, 2500: 140.84679844444818, 4999: 134.60799427318963
    },
    (smooth_prices, 5000, 1000): {
        1: 100.0572621392289, 2500: 159.1472991052816, 4999: 139.35979443852662
    },
    (smooth_prices, 3000, 1002): {
        1: 99.99932271102413, 1500: 106.69773236249807, 2999: 65.66432120503771
    },
}


@pytest.mark.parametrize("case", GENERATOR_POINTS, ids=lambda c: f"{c[0].__name__}-{c[1]}-{c[2]}")
def test_benchmark_price_inputs_are_pinned(case):
    gen, n, seed = case
    prices = gen(n, seed)
    assert prices.shape == (n,)
    points = GENERATOR_POINTS[case]
    assert_allclose(prices[list(points)], list(points.values()), rtol=1e-12, atol=0)


def test_random_covariance_has_requested_spectrum():
    spec = geometric_spectrum(8, 100.0)
    cov = random_covariance(spec, seed=3)
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
