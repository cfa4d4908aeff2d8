"""Command-line surface: exit codes, output shapes, logging, reproducibility."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subspace_forecast import centered_windows, cli, load_csv

from conftest import gbm_prices, smooth_prices, write_price_csv

CLI = [sys.executable, "-m", "subspace_forecast"]
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("SUBSPACE_FORECAST_LOG", "quiet")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    return write_price_csv(path, gbm_prices(900, 42))


def parse_forecast_table(stdout):
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
    return rows


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_unknown_subcommand_is_a_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_forecast_table(price_csv):
    proc = run_cli("forecast", "--csv", price_csv, "--m", "30", "--h", "10",
                   "--method", "gb")
    assert proc.returncode == 0, proc.stderr
    assert "method: gb" in proc.stdout
    rows = parse_forecast_table(proc.stdout)
    assert [r[0] for r in rows] == list(range(1, 11))
    assert all(r[1] > 0 for r in rows)        # prices stay positive
    assert all(r[2] > 0 for r in rows)        # so do the reported stds


def test_forecast_output_does_not_depend_on_how_the_path_is_spelled(price_csv):
    folder, name = os.path.split(price_csv)
    runs = [
        run_cli("forecast", "--csv", path, "--m", "30")
        for path in (price_csv, os.path.join(folder, ".", name))
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith("ticker: prices.csv\n")


def test_forecast_rd_reports_subspace(price_csv):
    proc = run_cli("forecast", "--csv", price_csv, "--m", "30", "--method", "rd",
                   "--cap", "1e4")
    assert proc.returncode == 0, proc.stderr
    assert "L: " in proc.stdout
    assert "cond_ww: " in proc.stdout


def test_forecast_unc_is_the_rescaled_mean_path(price_csv):
    # with a zero coefficient the forecast must reduce to the training-mean
    # ratio path times the newest scale price, independent of recent moves
    proc = run_cli("forecast", "--csv", price_csv, "--m", "30", "--h", "10",
                   "--method", "unc")
    assert proc.returncode == 0
    got = np.array([r[1] for r in parse_forecast_table(proc.stdout)])

    series = load_csv(price_csv)
    data, _ = centered_windows(series, 30, 10)
    expected = data.mean[-10:] * float(series.prices[-1])
    np.testing.assert_allclose(got, expected, atol=1e-7)


def test_forecast_invalid_method_is_usage_error(price_csv):
    assert run_cli("forecast", "--csv", price_csv, "--m", "30",
                   "--method", "ols").returncode == 1


@pytest.mark.parametrize("flags, message", [
    (("--m", "1"), "--m must be at least 2 (day M is the normalization column), got 1"),
    (("--m", "20", "--h", "0"), "--h must be at least 1, got 0"),
    (("--m", "20", "--h", "-3"), "--h must be at least 1, got -3"),
], ids=["m=1", "h=0", "h=-3"])
def test_forecast_window_errors_name_the_flags(price_csv, flags, message):
    code, out, err = run_in_process(("forecast", "--csv", price_csv, *flags))
    assert code == 1
    assert err.splitlines()[-1] == f"error: {message}"
    assert out == ""


def test_forecast_on_a_short_sample_keeps_a_posterior(tmp_path):
    # 30 days at M=20, H=5 give 6 training windows, whose centered rows span
    # 5 dimensions: size 5 fits them exactly, so its posterior std is 0 and
    # says nothing about the horizon; the search stops at size 4
    csv = write_price_csv(tmp_path / "short.csv", gbm_prices(30, 5))
    flags = ("forecast", "--csv", csv, "--m", "20", "--h", "5", "--method", "rd")
    code, out, err = run_in_process(flags)
    assert code == 0, err
    assert "training windows: 6" in out
    picked = int(next(line for line in out.splitlines() if line.startswith("L: "))[3:])
    assert picked <= 4
    assert max(std for _, _, std in parse_forecast_table(out)) > 0
    code, out, err = run_in_process((*flags, "--l", "5"))
    assert code == 3 and out == ""
    assert err.splitlines()[-1] == (
        "error: 6 centered training rows span 5 dimensions, which L=5 fits exactly (zero posterior)"
    )


def test_forecast_with_no_usable_subspace_size_is_a_numerical_error(tmp_path):
    # 26 days at M=20, H=5: 2 training windows span one dimension, which
    # size 1 already fits, so no size is left to search, and the error says so
    csv = write_price_csv(tmp_path / "two.csv", gbm_prices(26, 5))
    code, out, err = run_in_process(("forecast", "--csv", csv, "--m", "20", "--h", "5"))
    assert code == 3 and out == ""
    assert err.splitlines()[-1] == (
        "error: no subspace size in [1, 19] can be fitted: 2 centered training rows span "
        "1 dimensions, which L=1 fits exactly (zero posterior)"
    )


def test_forecast_l_out_of_range_is_usage_error(price_csv):
    proc = run_cli("forecast", "--csv", price_csv, "--m", "30", "--method", "rd",
                   "--l", "30")
    assert proc.returncode == 1  # only 29 columns survive normalization
    assert "--l must be in [1, 29]" in proc.stderr


@pytest.mark.parametrize("flag", [("--l", "7"), ("--cap", "1e4")], ids=["l", "cap"])
@pytest.mark.parametrize("method", ["gb", "unc"])
def test_forecast_rd_only_flags_are_usage_errors_for_other_methods(price_csv, method, flag):
    proc = run_cli("forecast", "--csv", price_csv, "--m", "30", "--method", method, *flag)
    assert proc.returncode == 1
    assert "--l and --cap apply only to --method rd" in proc.stderr
    assert proc.stdout == ""  # no forecast that ignored the flag


def test_forecast_pinned_size_with_a_cap_is_usage_error(price_csv):
    # --l pins the size instead of searching under --cap, so a cap given with
    # it would be ignored; the pinned size is never checked against it
    proc = run_cli("forecast", "--csv", price_csv, "--m", "30", "--l", "7", "--cap", "2")
    assert proc.returncode == 1
    assert "--l pins the rd subspace size; it does not combine with --cap" in proc.stderr
    assert proc.stdout == ""


def test_forecast_rd_default_cap_is_1e4(price_csv):
    default = run_cli("forecast", "--csv", price_csv, "--m", "30")
    explicit = run_cli("forecast", "--csv", price_csv, "--m", "30", "--cap", "1e4")
    assert default.returncode == explicit.returncode == 0, default.stderr
    assert default.stdout == explicit.stdout


@pytest.mark.parametrize("args", [
    ("forecast", "--m", "30", "--cap", "inf"),
    ("forecast", "--m", "30", "--cap", "nan"),
    # no condition number is below 1, so no such cap is a cap
    ("forecast", "--m", "30", "--cap", "0.5"),
    ("forecast", "--m", "30", "--cap", "-1"),
    ("sweep", "--m-list", "20", "--caps", "1e3", "inf"),
    ("sweep", "--m-list", "20", "--caps", "nan"),
    ("sweep", "--m-list", "20", "--caps", "0.5"),
    ("sweep", "--m-list", "20", "30", "20", "--caps", "1e3"),
    ("sweep", "--m-list", "20", "--caps", "1e3", "1000"),
], ids=["forecast-inf", "forecast-nan", "forecast-below-1", "forecast-negative", "sweep-inf",
        "sweep-nan", "sweep-below-1", "repeated-m", "repeated-cap"])
def test_non_finite_caps_and_repeated_grid_values_are_usage_errors(price_csv, tmp_path, args):
    out = tmp_path / "report"
    extra = ("--n-test", "100", "--out", str(out)) if args[0] == "sweep" else ()
    proc = run_cli(args[0], "--csv", price_csv, *args[1:], *extra)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert not out.exists()  # a rejected grid writes no report


def test_missing_file_is_a_data_error(tmp_path):
    proc = run_cli("forecast", "--csv", str(tmp_path / "nope.csv"), "--m", "30")
    assert proc.returncode == 2


def test_malformed_csv_is_a_data_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,close\n2001-01-02,10.0\n2001-01-03,zebra\n")
    proc = run_cli("forecast", "--csv", str(p), "--m", "5")
    assert proc.returncode == 2
    assert ":3:" in proc.stderr  # the offending line is named


def test_dates_not_in_yyyy_mm_dd_form_are_a_data_error(tmp_path):
    p = tmp_path / "forms.csv"
    p.write_text("2020-01-01,1.0\n20200101,2.0\n2020-W01-3,4.0\n2020-01-02,5.0\n")
    proc = run_cli("forecast", "--csv", str(p), "--m", "2", "--h", "1", "--method", "unc")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {p}:2: bad date '20200101': ")


def test_csv_that_is_not_utf8_is_a_data_error(tmp_path):
    p = tmp_path / "bad_enc.csv"
    p.write_bytes(b"date,close\n2001-01-02,10.0\n2001-01-03,1\xe9\n")
    proc = run_cli("forecast", "--csv", str(p), "--m", "2", "--h", "1", "--method", "unc")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {p}:3: not UTF-8 text: ")


def test_short_series_is_a_data_error(tmp_path):
    p = write_price_csv(tmp_path / "short.csv", gbm_prices(20, 0))
    proc = run_cli("forecast", "--csv", p, "--m", "30")
    assert proc.returncode == 2


def test_backtest_prints_cell_lines(price_csv):
    proc = run_cli("backtest", "--csv", price_csv, "--m", "20", "--n-test", "100")
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("M=20")]
    assert len(lines) == 2  # one per default cap
    assert all("mse[rd]" in l for l in lines)


def test_backtest_is_a_sweep_of_one_window_length(price_csv, tmp_path):
    common = ("--csv", price_csv, "--caps", "1e3", "1e4", "--n-test", "100")
    one = run_in_process(("backtest", "--m", "50", *common, "--out", str(tmp_path / "b")))
    grid = run_in_process(("sweep", "--m-list", "50", *common, "--out", str(tmp_path / "s")))
    assert one[0] == grid[0] == 0, one[2]
    cells = [[line for line in run[1].splitlines() if line.startswith("M=")] for run in (one, grid)]
    assert len(cells[0]) == 2 and cells[0] == cells[1]
    for name in ("mse_vs_L.csv", "best_mse.csv", "condition.csv", "directional.csv",
                 "volatility.csv", "summary.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()


def test_sweep_writes_report_directory(price_csv, tmp_path):
    out = tmp_path / "report"
    proc = run_cli("sweep", "--csv", price_csv, "--m-list", "20", "30",
                   "--caps", "1e3", "1e4", "--n-test", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    produced = sorted(p.name for p in out.iterdir())
    assert produced == ["best_mse.csv", "condition.csv", "directional.csv",
                        "mse_vs_L.csv", "summary.json", "volatility.csv"]


def test_sweep_line_reports_the_day_one_hit_rate(price_csv, tmp_path):
    out = tmp_path / "report"
    proc = run_cli("sweep", "--csv", price_csv, "--m-list", "20", "30",
                   "--caps", "1e3", "1e4", "--n-test", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("M=") and "dir1[rd]=" in line:
            cell, fields = line.split(": ", 1)
            printed[cell] = float(fields.split("dir1[rd]=")[1].split()[0])
    summary = json.loads((out / "summary.json").read_text())
    active = [c for c in summary["cells"] if not c["skipped"]]
    assert len(active) == 4
    for c in active:
        day_one = c["results"]["rd"]["directional_per_day"][0]
        assert printed[f"M={c['M']} cap={c['cap']:g}"] == round(day_one, 4)


def test_sweep_is_deterministic(price_csv, tmp_path):
    args = ("sweep", "--csv", price_csv, "--m-list", "20", "--n-test", "100")
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b


def test_verify_passes_on_default_fixture():
    proc = run_cli("verify", "--seed", "13", "--n", "20000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[FAIL]" not in proc.stdout
    assert proc.stdout.count("[PASS]") == 20


def test_verify_seed_reproduces_output_exactly():
    a = run_cli("verify", "--seed", "alpha", "--n", "5000")
    b = run_cli("verify", "--seed", "alpha", "--n", "5000")
    c = run_cli("verify", "--seed", "beta", "--n", "5000")
    assert a.returncode == b.returncode
    assert a.stdout == b.stdout
    assert c.stdout != a.stdout  # a different token draws different samples


def test_verify_bias_tolerance_absorbs_sampling_noise():
    # regression: at this seed the unconditional-bias draw lands about 1.6
    # standard errors from its target, within honest sampling noise at
    # n=20000 but outside a bare 5% band; the printed tolerance must carry
    # the 3-se term so the check does not fail spuriously
    proc = run_cli("verify", "--seed", "e2e-final", "--n", "20000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bias/unc" in proc.stdout
    assert "5% rel + 3 se" in proc.stdout
    assert proc.stdout.count("[PASS]") == 20


def test_verify_corrupt_coeff_control_fails():
    proc = run_cli("verify", "--seed", "13", "--n", "20000", "--corrupt-coeff")
    assert proc.returncode == 3
    assert "[FAIL]" in proc.stdout


def test_verify_small_n_is_advisory():
    proc = run_cli("verify", "--seed", "13", "--n", "2000", "--corrupt-coeff")
    assert proc.returncode == 0  # below the strict threshold nothing is enforced
    assert "ADVISORY" in proc.stdout


def test_verify_with_explicit_covariance(tmp_path):
    import subspace_forecast as sf

    cov = sf.random_covariance(sf.geometric_spectrum(12, 50.0), seed=4)
    model = sf.CovarianceModel.from_matrix(cov, m=8)
    path = tmp_path / "cov.csv"
    sf.dump_covariance_csv(model, str(path))
    proc = run_cli("verify", "--cov-csv", str(path), "--split", "8",
                   "--seed", "3", "--n", "20000")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_with_a_non_square_covariance_is_a_data_error(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("1,0,0\n0,1,0\n")
    proc = run_cli("verify", "--cov-csv", str(path), "--n", "1000")
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: true_cov must be square, got (2, 3)\n")


def test_verify_split_without_a_covariance_csv_is_usage_error():
    proc = run_cli("verify", "--seed", "1", "--n", "2000", "--split", "5")
    assert proc.returncode == 1  # the built-in fixture's split is fixed
    assert "--split needs --cov-csv" in proc.stderr
    assert "checks" not in proc.stdout


@pytest.mark.parametrize("token", ["-5", " -1"])
def test_verify_negative_integer_seed_is_usage_error(token):
    code, out, err = run_in_process(("verify", "--seed", token, "--n", "100"))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: --seed must not be a negative integer, got {token!r}"


def run_in_process(argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_leaks_no_state_between_calls(price_csv, monkeypatch):
    monkeypatch.setenv("SUBSPACE_FORECAST_LOG", "info")  # the resolved config is compared too
    forecast = ("forecast", "--csv", price_csv, "--m", "30")
    calls = [
        (*forecast, "--cap", "0.5"),
        forecast,
        (*forecast, "--l", "5"),
        (*forecast, "--method", "gb", "--l", "5"),
        ("--help",),
        ("sweep", "--csv", price_csv, "--m-list", "20", "--caps", "1e3", "--n-test", "100"),
        (*forecast, "--cap", "0.5"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_in_process(argv))
    assert [code for code, _, _ in fresh] == [1, 0, 0, 1, 0, 0, 1]
    cli._parser.cache_clear()
    assert [run_in_process(argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1


def test_log_levels_route_to_stderr(price_csv):
    quiet = run_cli("forecast", "--csv", price_csv, "--m", "20",
                    env_extra={"SUBSPACE_FORECAST_LOG": "quiet"})
    info = run_cli("forecast", "--csv", price_csv, "--m", "20",
                   env_extra={"SUBSPACE_FORECAST_LOG": "info"})
    assert quiet.returncode == info.returncode == 0
    assert "resolved config" not in quiet.stderr
    assert "resolved config" in info.stderr
    # stdout is identical either way: logging never contaminates results
    assert quiet.stdout == info.stdout


@pytest.mark.skipif(
    shutil.which("subspace-forecast") is None,
    reason="subspace-forecast console script is not on PATH (package not installed)",
)
def test_console_entry_point_matches_module_invocation(price_csv):
    module = run_cli("forecast", "--csv", price_csv, "--m", "20")
    script = subprocess.run(
        ["subspace-forecast", "forecast", "--csv", price_csv, "--m", "20"],
        capture_output=True, text=True,
        env={**os.environ, "SUBSPACE_FORECAST_LOG": "quiet"},
    )
    assert module.returncode == 0, module.stderr
    assert script.returncode == 0, script.stderr
    assert script.stdout == module.stdout


@pytest.mark.parametrize(
    "kind, flags, prices",
    [
        ("gbm", ["--sigma", "0.01", "--start", "50"], gbm_prices(400, 5, sigma=0.01, start=50.0)),
        ("smooth", [], smooth_prices(400, 5)),
    ],
)
def test_price_script_writes_the_fixture_csv(kind, flags, prices, tmp_path):
    # one definition of the generators serves the script, the tests and the
    # benchmark; the script's CSV is byte-identical to the fixture writer's
    out = tmp_path / "script.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "make_synthetic_prices.py"), "--kind", kind,
         "--days", "400", "--seed", "5", *flags, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = write_price_csv(tmp_path / "fixture.csv", prices)
    assert out.read_bytes() == Path(want).read_bytes()
