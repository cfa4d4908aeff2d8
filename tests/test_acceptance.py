"""Contract suite: ten end-to-end criteria, one verdict line each.

Each test evaluates every clause of its criterion, records a single
``[PASS]``/``[FAIL]`` line (echoed in the terminal summary), and only then
asserts.  Tolerances are pinned here and nowhere else.

Criterion 2 measures the squared bias conditional on the future block,
``E || E[zhat | z] - z ||^2``, for every forecaster.  ``squared_bias``
gives all three methods that one closed form, so the conditional mean is
held to the same 5% bound as the unconditional and reduced-dimension
forecasters; its figure equals the reduced-dimension one at ``L = m``.
"""

import json
import time

import numpy as np

import conftest
from conftest import (
    FIXTURE_SPLIT,
    gbm_prices,
    run_cli,
    smooth_prices,
    to_series,
    write_price_csv,
)
from subspace_forecast import (
    CovarianceModel,
    SubspaceLadder,
    SweepConfig,
    build_l_curve,
    centered_windows,
    denormalize_forecast,
    directional_statistic,
    fit_gauss_bayes,
    fit_unconditional,
    geometric_spectrum,
    mc_bias,
    mc_mse,
    random_covariance,
    run_backtest,
    squared_bias,
    theoretical_mse,
)



def record(number, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


N_DRAWS = 100_000
RD_SIZES = (1, 5, 10, 20)


def test_criterion_01_oracle_mse_agreement(pinned_model, pinned_spec):
    t0 = time.monotonic()
    ests = {"unc": fit_unconditional(pinned_model), "gb": fit_gauss_bayes(pinned_model)}
    for L in RD_SIZES:
        ests[f"rd[L={L}]"] = SubspaceLadder(pinned_model).fit(L)
    worst_name, worst = "", 0.0
    mcs = mc_mse(pinned_spec, list(ests.values()), N_DRAWS)
    for (name, est), mc in zip(ests.items(), mcs):
        rel = abs(mc.value / theoretical_mse(pinned_model, est) - 1.0)
        if rel > worst:
            worst_name, worst = name, rel
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed <= 60.0
    record(
        1,
        "oracle mse agreement",
        ok,
        f"worst |mc/closed - 1| = {worst:.4%} ({worst_name}) <= 5%; "
        f"n={N_DRAWS}, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_bias_agreement(pinned_model, pinned_spec):
    clauses = []
    rd = SubspaceLadder(pinned_model).fit(10)
    gb = fit_gauss_bayes(pinned_model)
    mc_unc, mc_rd, mc_gb = mc_bias(
        pinned_spec, [fit_unconditional(pinned_model), rd, gb], N_DRAWS
    )

    target_unc = float(np.trace(pinned_model.sigma_zz))
    rel_unc = abs(mc_unc.value / target_unc - 1.0)
    clauses.append(("unc", rel_unc <= 0.05, f"rel err {rel_unc:.4%} <= 5%"))

    target_rd = squared_bias(pinned_model, rd)
    rel_rd = abs(mc_rd.value / target_rd - 1.0)
    clauses.append(("rd[L=10]", rel_rd <= 0.05, f"rel err {rel_rd:.4%} <= 5%"))

    target_gb = squared_bias(pinned_model, gb)
    rel_gb = abs(mc_gb.value / target_gb - 1.0)
    clauses.append(("gb", rel_gb <= 0.05, f"rel err {rel_gb:.4%} <= 5%"))

    ok = all(c[1] for c in clauses)
    detail = "; ".join(f"{n} {'ok' if o else 'FAILED'}: {d}" for n, o, d in clauses)
    record(2, "bias agreement", ok, detail)


def test_criterion_03_optimality_ordering(pinned_model, pinned_spec):
    ladder = SubspaceLadder(pinned_model)
    mc_gb, mc_unc, *mc_rds = mc_mse(
        pinned_spec,
        [fit_gauss_bayes(pinned_model), fit_unconditional(pinned_model)]
        + [ladder.fit(L) for L in RD_SIZES],
        N_DRAWS,
    )
    margins = []
    ok = True
    for L, mc_rd in zip(RD_SIZES, mc_rds):
        lo = mc_gb.value - mc_rd.value <= 3.0 * max(mc_gb.se, mc_rd.se)
        hi = mc_rd.value - mc_unc.value <= 3.0 * max(mc_rd.se, mc_unc.se)
        ok = ok and lo and hi
        margins.append(f"L={L}: gb {mc_gb.value:.3f} <= rd {mc_rd.value:.3f} <= unc {mc_unc.value:.3f}")
    record(3, "optimality ordering", ok, "; ".join(margins) + " (3-se slack)")


def test_criterion_04_rd_gb_collapse(pinned_model, tmp_path):
    gb = fit_gauss_bayes(pinned_model)
    rd = SubspaceLadder(pinned_model).fit(FIXTURE_SPLIT)
    coeff_rel = float(
        np.max(np.abs(rd.coeff - gb.coeff)) / max(np.max(np.abs(gb.coeff)), 1e-300)
    )
    post_rel = float(
        np.max(np.abs(rd.posterior_cov - gb.posterior_cov))
        / max(np.max(np.abs(gb.posterior_cov)), 1e-300)
    )

    # same collapse end to end through the CLI: with M=30 the normalization
    # day is dropped, leaving a 29-dimensional observation block
    csv = write_price_csv(tmp_path / "prices.csv", gbm_prices(900, 42))
    a = run_cli("forecast", "--csv", csv, "--m", "30", "--method", "rd", "--l", "29")
    b = run_cli("forecast", "--csv", csv, "--m", "30", "--method", "gb")
    def table(stdout):
        return [
            [float(p) for p in line.split()[1:]]
            for line in stdout.splitlines()
            if len(line.split()) == 3 and line.split()[0].isdigit()
        ]

    cli_rel = 0.0
    cli_ok = a.returncode == 0 and b.returncode == 0
    if cli_ok:
        rows_a, rows_b = table(a.stdout), table(b.stdout)
        cli_ok = len(rows_a) == len(rows_b) > 0
        for ra, rb in zip(rows_a, rows_b):
            for va, vb in zip(ra, rb):
                cli_rel = max(cli_rel, abs(va - vb) / max(abs(vb), 1e-300))
        cli_ok = cli_ok and cli_rel <= 1e-6

    ok = coeff_rel <= 1e-6 and post_rel <= 1e-6 and cli_ok
    record(
        4,
        "rd=gb collapse at L=m",
        ok,
        f"coeff rel {coeff_rel:.2e}, posterior rel {post_rel:.2e}, "
        f"cli forecast rel {cli_rel:.2e}, all <= 1e-6",
    )


def test_criterion_05_conditioning():
    # fixture property established at construction time: windows of this
    # smooth series are collinear enough to push cond(sigma_yy) past 1e5
    series = to_series(smooth_prices(3000, seed=42))
    sweep = SweepConfig(m_values=(80,), horizon=10, condition_caps=(1e3, 1e4), n_test=200)
    report = run_backtest(series, sweep)
    cells = [c for c in report.cells if not c.skipped]
    fixture_ok = bool(cells) and all(c.cond_yy >= 1e5 for c in cells)
    caps_ok = all(c.cond_ww <= c.cap for c in cells)
    improve = [c.cond_yy / c.cond_ww for c in cells if c.cap <= 1e4]
    improve_ok = bool(improve) and all(r >= 10.0 for r in improve)
    ok = fixture_ok and caps_ok and improve_ok
    detail = "; ".join(
        f"M={c.M} cap={c.cap:g}: cond_yy={c.cond_yy:.3e}, cond_ww={c.cond_ww:.3e}, "
        f"improvement {c.cond_yy / c.cond_ww:.0f}x"
        for c in cells
    )
    record(5, "conditioning under the cap", ok, detail + " (need cap respected, >= 10x)")


def test_criterion_06_mse_vs_l_curve_shape():
    cov = random_covariance(geometric_spectrum(30, 1e8), seed=5)
    model = CovarianceModel.from_matrix(cov, m=20)
    mses = np.array([p.mse_rd for p in build_l_curve(SubspaceLadder(model))])
    slack = 1e-9 * float(mses[0])
    nonincreasing = bool(np.all(np.diff(mses) <= slack))
    drop_head = float(mses[0] - mses[9])     # improvement over L in [1, 10]
    drop_tail = float(mses[9] - mses[-1])    # everything past L = 10
    flat = drop_tail < 0.05 * drop_head
    ok = nonincreasing and flat
    record(
        6,
        "mse-vs-L curve shape",
        ok,
        f"nonincreasing={nonincreasing}; tail drop {drop_tail:.3e} "
        f"= {drop_tail / drop_head:.2%} of head drop {drop_head:.3e} (< 5%)",
    )


def test_criterion_07_pipeline_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2027)
    cases = failures = 0
    # 400 round trips + 300 Hankel checks + 300 centering checks
    for _ in range(400):
        m_days = int(rng.integers(3, 9))
        horizon = int(rng.integers(1, 5))
        n = m_days + horizon
        n_prices = n + int(rng.integers(4, 40))
        prices = gbm_prices(n_prices, int(rng.integers(0, 2**31)))
        k = n_prices - n + 1
        data, _ = centered_windows(to_series(prices), m_days, horizon)
        i = int(rng.integers(0, k))
        back = denormalize_forecast(data.z_block[i], data.mean, float(data.scales[i]))
        cases += 1
        if not np.allclose(back, prices[i + m_days : i + n], rtol=1e-10, atol=0):
            failures += 1
    for _ in range(300):
        # entry (i, j) of the window matrix is prices[i + j]: the scale of
        # window i when day j + 1 normalizes it
        n_prices = int(rng.integers(8, 50))
        n_cols = int(rng.integers(3, 7))
        prices = gbm_prices(n_prices, int(rng.integers(0, 2**31)))
        k = n_prices - n_cols + 1
        i = int(rng.integers(0, k))
        j = int(rng.integers(1, n_cols - 1))
        data, _ = centered_windows(to_series(prices), j + 1, n_cols - j - 1)
        cases += 1
        if data.scales[i] != prices[i + j]:
            failures += 1
    for _ in range(300):
        m_days = int(rng.integers(3, 9))
        n = m_days + int(rng.integers(1, 5))
        n_prices = n + int(rng.integers(6, 60))
        series = to_series(gbm_prices(n_prices, int(rng.integers(0, 2**31))))
        data, _ = centered_windows(series, m_days, n - m_days)
        cases += 1
        if float(np.max(np.abs(data.X.mean(axis=0)))) > 1e-10:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and cases >= 1000 and elapsed <= 30.0
    record(
        7,
        "round-trip and pipeline exactness",
        ok,
        f"{cases} randomized cases, {failures} failures, runtime {elapsed:.1f}s <= 30s",
    )


def test_criterion_08_directional_bounds_and_controls():
    rng = np.random.default_rng(7)
    n, h = 10_000, 10
    z0 = np.full(n, 100.0)
    actual = 100.0 + rng.standard_normal((n, h))
    perfect = directional_statistic(actual.copy(), actual, z0)
    perfect_ok = bool(np.all(perfect == 1.0))
    preds = 100.0 + rng.standard_normal((n, h))
    random_rep = directional_statistic(preds, actual, z0)
    max_dev = float(np.max(np.abs(random_rep - 0.5)))
    random_ok = max_dev <= 0.05
    bounds_ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        d = directional_statistic(
            r.standard_normal((50, 3)), r.standard_normal((50, 3)), np.ones(50)
        )
        bounds_ok = bounds_ok and bool(
            np.all(d >= 0.0) and np.all(d <= 1.0)
        )
    ok = perfect_ok and random_ok and bounds_ok
    record(
        8,
        "directional statistic bounds and controls",
        ok,
        f"bounds hold; perfect predictions -> 1.0; sign-random max |D_j - 0.5| "
        f"= {max_dev:.4f} <= 0.05 on {n} samples",
    )


def test_criterion_09_determinism(tmp_path):
    csv = write_price_csv(tmp_path / "prices.csv", gbm_prices(900, 42))
    args = ("sweep", "--csv", csv, "--m-list", "20", "30", "--n-test", "100")
    a = run_cli(*args, "--out", str(tmp_path / "a"))
    b = run_cli(*args, "--out", str(tmp_path / "b"))
    sweep_ok = (
        a.returncode == b.returncode == 0
        and (tmp_path / "a" / "summary.json").read_bytes()
        == (tmp_path / "b" / "summary.json").read_bytes()
    )
    v1 = run_cli("verify", "--seed", "acceptance", "--n", "5000")
    v2 = run_cli("verify", "--seed", "acceptance", "--n", "5000")
    verify_ok = v1.stdout == v2.stdout and v1.returncode == v2.returncode
    ok = sweep_ok and verify_ok
    record(
        9,
        "determinism",
        ok,
        f"summary.json byte-identical: {sweep_ok}; "
        f"seeded verify output identical: {verify_ok}",
    )


def test_criterion_10_desk_scale_sweep(tmp_path):
    csv = write_price_csv(tmp_path / "prices.csv", gbm_prices(3000, 42))
    out = tmp_path / "report"
    t0 = time.monotonic()
    proc = run_cli(
        "sweep", "--csv", csv, "--m-list", "20", "50", "80",
        "--caps", "1e3", "1e4", "--n-test", "200", "--out", str(out),
    )
    elapsed = time.monotonic() - t0
    run_ok = proc.returncode == 0 and elapsed <= 300.0

    def rows(name):
        lines = (out / name).read_text().strip().splitlines()
        return [l.split(",") for l in lines[1:]]

    files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    files_ok = files == ["best_mse.csv", "condition.csv", "directional.csv",
                         "mse_vs_L.csv", "summary.json", "volatility.csv"]
    counts_ok = False
    if files_ok:
        summary = json.loads((out / "summary.json").read_text())
        n_cells = len([c for c in summary["cells"] if not c["skipped"]])
        horizon = summary["config"]["horizon"]
        counts_ok = (
            n_cells == 6
            and len(rows("best_mse.csv")) == n_cells
            and len(rows("condition.csv")) == n_cells
            and len(rows("mse_vs_L.csv")) == sum(m - 1 for m in (20, 50, 80))
            and len(rows("directional.csv")) == n_cells * 3 * horizon
            and len(rows("volatility.csv")) == n_cells * 3 * horizon
        )
    ok = run_ok and files_ok and counts_ok
    record(
        10,
        "desk-scale end-to-end sweep",
        ok,
        f"exit {proc.returncode}, runtime {elapsed:.1f}s <= 300s, "
        f"files {'complete' if files_ok else files}, row counts "
        f"{'consistent' if counts_ok else 'INCONSISTENT'}",
    )
