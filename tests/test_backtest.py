"""Grid runner: L selection, cell evaluation, report files."""

import json
from dataclasses import replace

import numpy as np
import pytest

from subspace_forecast import (
    OBJECTIVE_THEORETICAL,
    OBJECTIVE_VALIDATION,
    BacktestReport,
    CovarianceModel,
    IllConditionedError,
    SubspaceLadder,
    SweepConfig,
    build_l_curve,
    centered_windows,
    emit_report,
    empirical_covariance,
    fit_gauss_bayes,
    random_covariance,
    run_backtest,
    select_L,
    squared_bias,
    validation_scores,
)
from subspace_forecast._linalg import spectral_condition
from subspace_forecast.backtest import _evaluate_method

from conftest import gbm_prices, smooth_prices, to_series


def dyadic_model(seed=0, dim=24, horizon=8):
    spec = 2.0 ** (-np.arange(dim, dtype=float))
    return CovarianceModel.from_matrix(
        random_covariance(spec, seed=seed), m=dim - horizon
    )


def test_sweep_config_validation():
    SweepConfig(m_values=(20,))  # defaults are fine
    with pytest.raises(ValueError):
        SweepConfig(m_values=())
    with pytest.raises(ValueError):
        SweepConfig(m_values=(1,))
    with pytest.raises(ValueError):
        SweepConfig(m_values=(20,), horizon=0)
    with pytest.raises(ValueError):
        SweepConfig(m_values=(20,), condition_caps=(0.5,))
    with pytest.raises(ValueError, match="caps must not be empty"):
        SweepConfig(m_values=(20,), condition_caps=())
    for cap in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(m_values=(20,), condition_caps=(1e3, cap))
    with pytest.raises(ValueError, match="observation lengths must be distinct"):
        SweepConfig(m_values=(20, 50, 20))
    with pytest.raises(ValueError, match="caps must be distinct"):
        SweepConfig(m_values=(20,), condition_caps=(1e3, 1000.0))
    with pytest.raises(ValueError):
        SweepConfig(m_values=(20,), n_test=0)
    with pytest.raises(ValueError):
        SweepConfig(m_values=(20,), objective="magic")


def test_l_curve_runs_over_every_subspace_size():
    model = dyadic_model()
    curve = build_l_curve(SubspaceLadder(model))
    assert [p.L for p in curve] == list(range(1, model.m + 1))
    assert curve[0].cond_ww == pytest.approx(1.0)  # scalar coordinate
    # more subspace can only help the closed-form error
    mses = [p.mse_rd for p in curve]
    assert mses == sorted(mses, reverse=True)


def test_select_l_is_monotone_in_the_cap():
    caps = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    for seed in (0, 1, 4):
        model = dyadic_model(seed)
        picks = []
        for cap in caps:
            ladder = SubspaceLadder(model)
            best_l = select_L(ladder, cap)
            assert ladder.cond_ww(best_l) <= cap
            picks.append(best_l)
        assert picks == sorted(picks), f"seed {seed}: {picks}"


def test_select_l_rejects_a_cap_below_one():
    # size 1's cond_ww is exactly 1, the floor of every condition number, so
    # a cap of 1 has a pick and a cap below it is rejected, naming the floor
    ladder = SubspaceLadder(dyadic_model())
    assert ladder.cond_ww(select_L(ladder, 1.0)) == ladder.cond_ww(1) == 1.0
    for cap in (float(np.nextafter(1.0, 0)), 0.5, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and >= 1"):
            select_L(ladder, cap)


@pytest.mark.parametrize("objective", [OBJECTIVE_THEORETICAL, OBJECTIVE_VALIDATION])
def test_select_l_rejects_a_non_finite_cap(objective):
    # the eigenvalue-3 eigenvector lies in the future block, so the ladder's
    # rank is 1 below m = 2: size 2 has cond_ww = inf, and an infinite cap
    # would otherwise admit a size that cannot be fitted
    ladder = SubspaceLadder(CovarianceModel.from_matrix(np.diag([1.0, 4.0, 3.0, 2.0]), m=2))
    assert ladder.rank == 1
    # no scores (the closed-form MSE's exact order) or given ones
    scores = None
    if objective == OBJECTIVE_VALIDATION:
        scores = validation_scores(ladder, np.ones((5, 2)), np.ones((5, 2)))
    for cap in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            select_L(ladder, cap, scores)
    curve = build_l_curve(ladder)
    with pytest.raises(ValueError, match="finite"):
        select_L(ladder, float("inf"), [p.mse_rd for p in curve])


def test_select_l_breaks_ties_toward_smaller_subspace():
    # with an identity covariance no subspace helps: every L has the same
    # closed-form error, so the scan must settle on L = 1
    model = CovarianceModel.from_matrix(np.eye(12), m=8)
    ladder = SubspaceLadder(model)
    best_l = select_L(ladder, 1e6)
    assert best_l == 1
    assert ladder.cond_ww(best_l) == pytest.approx(1.0)


# An exactly solvable market: prices c * exp(delta * u) with iid standard
# normal u.  To first order in delta the scaled, centered windows have
# covariance delta^2 (I + ones), and both baseline estimators have closed
# forms: mse_unc = 2 delta^2 H and mse_gb = delta^2 H (m + 2) / (m + 1).
def lognormal_series(n_days=30_000, delta=1e-3, seed=11):
    rng = np.random.default_rng(seed)
    return to_series(100.0 * np.exp(delta * rng.standard_normal(n_days))), delta


def test_backtest_against_iid_lognormal_closed_form():
    series, delta = lognormal_series()
    h, m_days = 5, 5
    sweep = SweepConfig(m_values=(m_days,), horizon=h, condition_caps=(1e4,), n_test=8000)
    cell = run_backtest(series, sweep).cells[0]
    m = m_days - 1  # the normalization day is dropped from the window
    assert not cell.skipped
    mse_gb = cell.results["gb"].empirical_mse
    mse_unc = cell.results["unc"].empirical_mse
    assert mse_gb == pytest.approx(delta**2 * h * (m + 2) / (m + 1), rel=0.05)
    assert mse_unc == pytest.approx(2 * delta**2 * h, rel=0.05)
    assert mse_gb < mse_unc


def test_backtest_skips_cells_without_enough_windows():
    series = to_series(gbm_prices(100, 1))
    sweep = SweepConfig(m_values=(20, 95), horizon=10, n_test=5)
    report = run_backtest(series, sweep)
    by_m = {}
    for cell in report.cells:
        by_m.setdefault(cell.M, []).append(cell)
    assert all(not c.skipped for c in by_m[20])
    assert all(c.skipped for c in by_m[95])
    assert "windows" in by_m[95][0].reason
    # skipped M values contribute no L-curve
    assert set(report.l_curves) == {20}


def test_validation_split_too_short_skips_only_its_cell():
    # 40 days, H = 5, 28 test windows: M = 6 leaves 2 training windows, so
    # the validation split would fit a 1-row sub-train model; M = 4 leaves 4,
    # a 3-row sub-train model with one usable size
    series = to_series(gbm_prices(40, 3))
    sweep = SweepConfig(m_values=(6, 4), horizon=5, n_test=28, objective=OBJECTIVE_VALIDATION)
    report = run_backtest(series, sweep)
    by_m = {}
    for cell in report.cells:
        by_m.setdefault(cell.M, []).append(cell)
    assert [c.reason for c in by_m[6]] == [
        "validation split: needs at least 3 windows of 11 days, got 2"
    ] * 2
    assert all(not c.skipped for c in by_m[4])
    assert set(report.l_curves) == {4}
    # the theoretical objective needs no split; at M = 6 its 2 training rows
    # leave no usable size, which is the reason it gives
    theoretical = run_backtest(series, replace(sweep, objective=OBJECTIVE_THEORETICAL))
    assert [c.M for c in theoretical.cells if c.skipped] == [6, 6]
    assert all(c.reason.startswith("no subspace size") for c in theoretical.cells if c.skipped)
    assert set(theoretical.l_curves) == {6, 4}


def test_backtest_cell_contents():
    series = to_series(gbm_prices(900, 5))
    sweep = SweepConfig(m_values=(20,), horizon=10, condition_caps=(1e3, 1e4), n_test=200)
    report = run_backtest(series, sweep)
    assert len(report.cells) == 2
    for cell in report.cells:
        assert set(cell.results) == {"unc", "gb", "rd"}
        assert cell.cond_ww <= cell.cap
        assert 1 <= cell.best_L <= 19
        for res in cell.results.values():
            assert res.empirical_mse > 0
            assert res.empirical_mse_price > 0
            assert len(res.empirical_mse_per_day) == 10
            assert len(res.directional_per_day) == 10
            assert len(res.volatility) == 10
            assert all(0.0 <= d <= 1.0 for d in res.directional_per_day)
            assert res.directional_mean == pytest.approx(res.directional_per_day.mean())
        # the unconditional estimator never beats conditioning in theory
        assert report.cells[0].results["gb"].theoretical_mse <= (
            report.cells[0].results["unc"].theoretical_mse + 1e-12
        )


def test_backtest_validation_objective_smoke():
    series = to_series(gbm_prices(900, 8))
    sweep = SweepConfig(
        m_values=(20,), horizon=10, condition_caps=(1e4,), n_test=150,
        objective=OBJECTIVE_VALIDATION,
    )
    report = run_backtest(series, sweep)
    cell = report.cells[0]
    assert not cell.skipped
    assert cell.cond_ww <= 1e4


def test_collapse_holds_on_an_ill_conditioned_smooth_series():
    # cond(V_ML) is about 1e8 on this series at M=20; a Gram-matrix
    # projection squares it and declared the full-size basis rank deficient
    series = to_series(smooth_prices(5000, 1000))
    report = run_backtest(series, SweepConfig(m_values=(20,), n_test=2200))
    curve = report.l_curves[20]
    assert all(np.isfinite(p.mse_rd) for p in curve)
    for cell in report.cells:
        assert curve[-1].mse_rd == pytest.approx(cell.results["gb"].theoretical_mse, rel=1e-9)


def test_cell_cond_yy_is_the_observation_block_condition_number():
    series = to_series(gbm_prices(900, 5))
    report = run_backtest(series, SweepConfig(m_values=(20,), condition_caps=(1e4,), n_test=200))
    train, _ = centered_windows(series, 20, 10, 200)
    model = empirical_covariance(train)
    assert report.cells[0].cond_yy == spectral_condition(model.sigma_yy)


def test_singular_observation_block_reports_no_gb():
    # 3 training windows of 11 observation days: sigma_yy is singular, so
    # gb is not solved; the cell keeps unc and rd and says why gb is missing
    series = to_series(gbm_prices(300, 3))
    sweep = SweepConfig(m_values=(12,), horizon=5, condition_caps=(1e4,), n_test=281)
    (cell,) = run_backtest(series, sweep).cells
    assert not cell.skipped and cell.cond_yy == np.inf
    assert cell.gb_error == "sigma_yy is numerically singular"
    assert set(cell.results) == {"unc", "rd"}


def test_a_singular_sigma_zz_reports_no_squared_bias():
    # the squared bias solves against sigma_zz; a future day with no
    # variance leaves it singular, so the cell reports nan bias and
    # variance and keeps every other score
    series = to_series(gbm_prices(300, 3))
    train, test = centered_windows(series, 12, 5, 40)
    cov = np.array(empirical_covariance(train).sigma_xx)
    cov[-1, :] = cov[:, -1] = 0.0
    model = CovarianceModel.from_matrix(cov, train.split_m)
    gb = fit_gauss_bayes(model)
    with pytest.raises(IllConditionedError, match="sigma_zz"):
        squared_bias(model, gb)
    result = _evaluate_method(model, gb, test)
    assert np.isnan(result.bias_sq) and np.isnan(result.variance)
    assert np.isfinite(result.theoretical_mse) and np.isfinite(result.empirical_mse)


def test_sizes_past_the_training_rows_are_unusable(tmp_path):
    # 3 training windows of 25 dimensions: the centered rows span 2
    # dimensions, so size 2 fits them exactly and sizes from 2 on are
    # rounding, not a forecaster; they are inf on the curve (no negative or
    # zero MSE reaches mse_vs_L.csv) and cannot be fitted
    series = to_series(gbm_prices(300, 3))
    n_test = 300 - (21 + 5) + 1 - 3
    report = run_backtest(series, SweepConfig(m_values=(21,), horizon=5, n_test=n_test))
    curve = report.l_curves[21]
    assert [p.L for p in curve if np.isfinite(p.mse_rd)] == [1]
    assert all(p.cond_ww == p.mse_rd == np.inf for p in curve[1:])
    emit_report(report, tmp_path)
    mse = np.loadtxt(tmp_path / "mse_vs_L.csv", delimiter=",", skiprows=1)[:, 3]
    assert mse.min() > 0
    model = empirical_covariance(centered_windows(series, 21, 5, n_test)[0])
    assert model.n_samples == 3
    with pytest.raises(IllConditionedError, match="3 centered training rows span 2 dimensions"):
        SubspaceLadder(model).fit(2)


@pytest.mark.parametrize("objective", [OBJECTIVE_THEORETICAL, OBJECTIVE_VALIDATION])
def test_a_sample_with_no_usable_size_skips_its_cells(objective):
    # 2 training windows (3 under the validation split, whose sub-train model
    # keeps 2) span one dimension, which size 1 already fits: the ladder has
    # no usable size, and every cap's cell is skipped with the reason
    series = to_series(gbm_prices(300, 3))
    n_train = 2 if objective == OBJECTIVE_THEORETICAL else 3
    n_test = 300 - (21 + 5) + 1 - n_train
    sweep = SweepConfig(m_values=(21,), horizon=5, n_test=n_test, objective=objective)
    report = run_backtest(series, sweep)
    assert [cell.reason for cell in report.cells] == 2 * [
        "no subspace size in [1, 20] can be fitted: 2 centered training rows span "
        "1 dimensions, which L=1 fits exactly (zero posterior)"
    ]
    model = empirical_covariance(centered_windows(series, 21, 5, 300 - 25 - 2)[0])
    ladder = SubspaceLadder(model)
    assert ladder.rank == 0 and ladder.cond_ww_bounds().shape == (0,)
    assert list(ladder.forecasts(np.zeros((3, model.m)))) == []


def test_backtest_single_test_row_completes():
    series = to_series(gbm_prices(200, 6))
    sweep = SweepConfig(m_values=(20,), horizon=10, condition_caps=(1e4,), n_test=1)
    report = run_backtest(series, sweep)
    cell = report.cells[0]
    assert not cell.skipped
    for res in cell.results.values():
        assert np.isfinite(res.empirical_mse)
        # one test row: every day's directional score is a single 0 or 1
        assert set(res.directional_per_day.tolist()) <= {0.0, 1.0}


def test_emit_report_with_no_cells(tmp_path):
    sweep = SweepConfig(m_values=(20,), horizon=10, condition_caps=(1e4,), n_test=50)
    report = BacktestReport(sweep=sweep, cells=[], l_curves={})
    paths = emit_report(report, str(tmp_path / "empty"))
    for p in paths:
        if p.suffix == ".csv":
            lines = p.read_text().splitlines()
            assert len(lines) == 1, f"{p.name} should hold only its header"
    summary = json.loads((tmp_path / "empty" / "summary.json").read_text())
    assert summary["cells"] == []


def test_emit_report_one_cell_row_counts(tmp_path):
    series = to_series(gbm_prices(300, 4))
    sweep = SweepConfig(m_values=(12,), horizon=5, condition_caps=(1e6,), n_test=40)
    report = run_backtest(series, sweep)
    emit_report(report, str(tmp_path))

    def n_rows(name):
        return len((tmp_path / name).read_text().strip().splitlines()) - 1

    assert n_rows("best_mse.csv") == 1
    assert n_rows("condition.csv") == 1
    assert n_rows("mse_vs_L.csv") == 11  # L = 1..m for M=12 (one column is the scale day)
    assert n_rows("directional.csv") == 3 * 5
    assert n_rows("volatility.csv") == 3 * 5


def test_emit_report_refuses_unwritable_path(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory\n")
    sweep = SweepConfig(m_values=(20,), horizon=10, condition_caps=(1e4,), n_test=50)
    report = BacktestReport(sweep=sweep, cells=[], l_curves={})
    with pytest.raises(OSError):
        emit_report(report, str(blocker / "sub"))


def test_emit_report_files_and_consistency(tmp_path):
    series = to_series(gbm_prices(900, 5))
    sweep = SweepConfig(m_values=(20, 30), horizon=10, condition_caps=(1e3, 1e4), n_test=200)
    report = run_backtest(series, sweep)
    out = tmp_path / "report"
    paths = emit_report(report, str(out))
    names = sorted(p.name for p in paths)
    assert names == [
        "best_mse.csv",
        "condition.csv",
        "directional.csv",
        "mse_vs_L.csv",
        "summary.json",
        "volatility.csv",
    ]

    def rows(name):
        lines = (out / name).read_text().strip().splitlines()
        return lines[0].split(","), [l.split(",") for l in lines[1:]]

    header, best = rows("best_mse.csv")
    assert header == ["M", "cap", "best_L", "mse_unc", "mse_gb", "mse_rd"]
    n_cells = len([c for c in report.cells if not c.skipped])
    assert len(best) == n_cells == 4

    header, cond = rows("condition.csv")
    assert header == ["M", "cap", "cond_yy", "cond_ww"]
    assert len(cond) == n_cells

    header, curve = rows("mse_vs_L.csv")
    assert header == ["M", "L", "cond_ww", "mse_rd"]
    assert len(curve) == 19 + 29  # every subspace size for both window lengths

    header, direc = rows("directional.csv")
    assert header == ["M", "cap", "method", "day", "D_j"]
    assert len(direc) == n_cells * 3 * 10

    header, vol = rows("volatility.csv")
    assert header == ["M", "cap", "method", "day", "std"]
    assert len(vol) == len(direc)

    # full-precision floats: parsing a value back reproduces the exact bits
    sample_value = best[0][5]
    assert repr(float(sample_value)) == sample_value

    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["m_values"] == [20, 30]
    assert len(summary["cells"]) == 4
    assert set(summary["l_curves"]) == {"20", "30"}


def test_summary_json_is_canonical(tmp_path):
    series = to_series(gbm_prices(400, 2))
    sweep = SweepConfig(m_values=(20,), horizon=10, condition_caps=(1e4,), n_test=100)
    report = run_backtest(series, sweep)
    emit_report(report, str(tmp_path / "a"))
    emit_report(report, str(tmp_path / "b"))
    assert (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()
    text = (tmp_path / "a" / "summary.json").read_text()
    assert text.endswith("\n")


SUMMARY_CONFIG_KEYS = {"m_values", "horizon", "condition_caps", "n_test", "objective"}
SUMMARY_CELL_KEYS = {
    "M", "cap", "skipped", "reason", "best_L", "cond_yy", "cond_ww", "gb_error", "results",
}
SUMMARY_RESULT_KEYS = {
    "method", "theoretical_mse", "bias_sq", "variance", "empirical_mse",
    "empirical_mse_per_day", "empirical_mse_price", "directional_per_day",
    "directional_mean", "volatility", "cond", "subspace_dim",
}


def test_summary_json_schema(tmp_path):
    # the key set at every level is the output format: M=290 has too few
    # windows and is skipped; 110 and 12 pin the string keys' canonical order
    series = to_series(gbm_prices(300, 4))
    sweep = SweepConfig(m_values=(12, 110, 290), horizon=5, condition_caps=(1e6,), n_test=40)
    emit_report(run_backtest(series, sweep), str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["cells", "config", "l_curves"]
    assert set(summary["config"]) == SUMMARY_CONFIG_KEYS
    assert summary["config"]["m_values"] == [12, 110, 290]
    assert summary["config"]["condition_caps"] == [1e6]

    ran_12, ran_110, skipped = summary["cells"]
    for cell in summary["cells"]:
        assert set(cell) == SUMMARY_CELL_KEYS
    assert skipped["skipped"] and "windows" in skipped["reason"]
    assert skipped["results"] == {} and skipped["best_L"] is None
    for cell in (ran_12, ran_110):
        assert not cell["skipped"] and cell["reason"] is None
        assert set(cell["results"]) == {"unc", "gb", "rd"}
        for method, result in cell["results"].items():
            assert set(result) == SUMMARY_RESULT_KEYS
            assert result["method"] == method
            for key in ("empirical_mse_per_day", "directional_per_day", "volatility"):
                assert len(result[key]) == 5 and all(isinstance(v, float) for v in result[key])

    assert list(summary["l_curves"]) == ["110", "12"]
    for m, curve in summary["l_curves"].items():
        assert [point[0] for point in curve] == list(range(1, int(m)))
        for point in curve:
            assert len(point) == 3 and isinstance(point[0], int)
            assert all(isinstance(v, float) for v in point[1:])
