"""Command-line frontend: forecast, backtest, sweep, verify.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or unusable
input), 3 numerical failure (no usable subspace size, singular solve, failed
verification).  The environment variable ``SUBSPACE_FORECAST_LOG`` selects
the log level (``quiet``, ``info``, ``debug``); logs go to stderr, results to
stdout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .backtest import (
    DEFAULT_M_GRID,
    OBJECTIVE_THEORETICAL,
    OBJECTIVE_VALIDATION,
    SweepConfig,
    emit_report,
    run_backtest,
    select_L,
)
from .covariance_model import CovarianceModel, empirical_covariance
from .data_pipeline import centered_windows, denormalize_forecast, load_csv
from .errors import DataError, NumericalError
from .estimators import (
    METHOD_GB,
    METHOD_RD,
    METHOD_UNC,
    METHODS,
    SubspaceLadder,
    fit_gauss_bayes,
    fit_unconditional,
    predict,
)
from .metrics import squared_bias, theoretical_mse, volatility
from .synthetic_oracle import (
    GaussianSpec,
    McEstimate,
    geometric_spectrum,
    load_gaussian_spec,
    mc_bias,
    mc_squared_errors,
    random_covariance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# below this sample count the verify suite reports values without enforcing
STRICT_N = 10_000

# condition-number cap of forecast's rd subspace search when --cap is not given
DEFAULT_FORECAST_CAP = 1e4

logger = logging.getLogger("subspace_forecast")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    name = os.environ.get("SUBSPACE_FORECAST_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(name, logging.INFO)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s", force=True
    )


def _log_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    logger.info("resolved config: %s", json.dumps(resolved, default=str, sort_keys=True))


def _parse_seed(token: str) -> int:
    try:
        seed = int(token)
    except ValueError:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    if seed < 0:
        raise ValueError(f"--seed must not be a negative integer, got {token!r}")
    return seed


def build_parser() -> _Parser:
    parser = _Parser(prog="subspace-forecast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    forecast = sub.add_parser("forecast", help="forecast the next H days from the newest window")
    forecast.add_argument("--csv", required=True, help="price CSV (date,close)")
    forecast.add_argument("--m", type=int, required=True, help="observation window length in days")
    forecast.add_argument("--h", "--horizon", dest="horizon", type=int, default=10,
                          help="forecast horizon in days")
    forecast.add_argument("--method", choices=METHODS, default=METHOD_RD)
    forecast.add_argument("--cap", type=float, default=None,
                          help="condition-number cap for the rd subspace search "
                               f"(default: {DEFAULT_FORECAST_CAP:g})")
    forecast.add_argument("--l", dest="l_override", type=int, default=None,
                          help="pin the rd subspace size instead of searching under --cap")
    forecast.set_defaults(func=cmd_forecast)

    def add_grid_command(name, help_text, m_flag, **m_spec):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--csv", required=True, help="price CSV (date,close)")
        p.add_argument(m_flag, dest="m_list", type=int, **m_spec)
        p.add_argument("--h", "--horizon", dest="horizon", type=int, default=10)
        p.add_argument("--caps", type=float, nargs="+", default=[1e3, 1e4],
                       help="condition-number caps")
        p.add_argument("--n-test", dest="n_test", type=int, default=2200,
                       help="number of most-recent windows held out for scoring")
        p.add_argument("--objective", choices=[OBJECTIVE_THEORETICAL, OBJECTIVE_VALIDATION],
                       default=OBJECTIVE_THEORETICAL, help="subspace-size selection objective")
        p.add_argument("--out", default=None, help="directory for CSV and JSON artifacts")
        p.set_defaults(func=cmd_grid)

    # backtest is a sweep of one window length
    add_grid_command("backtest", "score all estimators out-of-sample for one M", "--m",
                     nargs=1, required=True, metavar="M", help="observation window length")
    add_grid_command("sweep", "score all estimators over a grid of M values", "--m-list",
                     nargs="+", default=list(DEFAULT_M_GRID), help="observation lengths to sweep")

    verify = sub.add_parser("verify", help="check the closed forms against Monte-Carlo sampling")
    verify.add_argument("--seed", default="0", help="reproducibility token (int or any string)")
    verify.add_argument("--n", type=int, default=100_000, help="Monte-Carlo sample count")
    verify.add_argument("--cov-csv", default=None,
                        help="optional CSV covariance matrix replacing the built-in fixture")
    verify.add_argument("--split", type=int, default=None,
                        help="observation block size for --cov-csv (default: 2/3 of dim)")
    verify.add_argument("--corrupt-coeff", action="store_true",
                        help="zero the conditional-mean coefficients first "
                             "(harness self-test; verification must fail)")
    verify.set_defaults(func=cmd_verify)
    return parser


# argparse trees hold no per-call state; one per process serves every main()
_parser = functools.cache(build_parser)


def cmd_forecast(args: argparse.Namespace) -> int:
    if args.method != METHOD_RD and (args.l_override is not None or args.cap is not None):
        raise ValueError(f"--l and --cap apply only to --method {METHOD_RD}")
    if args.l_override is not None and args.cap is not None:
        raise ValueError("--l pins the rd subspace size; it does not combine with --cap")
    series = load_csv(args.csv)
    m, h = args.m, args.horizon
    data, _ = centered_windows(series, m, h)
    model = empirical_covariance(data)

    if args.method == METHOD_UNC:
        est = fit_unconditional(model)
    elif args.method == METHOD_GB:
        est = fit_gauss_bayes(model)
    else:
        ladder = SubspaceLadder(model)
        if args.l_override is not None:
            if not 1 <= args.l_override <= model.m:
                raise ValueError(
                    f"--l must be in [1, {model.m}] for M={m} "
                    f"(day {m} is the normalization column)"
                )
            best_l = args.l_override
        else:
            cap = DEFAULT_FORECAST_CAP if args.cap is None else args.cap
            best_l = select_L(ladder, cap)
        est = ladder.fit(best_l)

    tail = series.prices[-m:]
    scale = float(tail[-1])  # the day-M price
    y_centered = tail[:-1] / scale - data.mean[: model.m]
    zhat = predict(est, y_centered)
    prices = denormalize_forecast(zhat, data.mean, scale)
    stds = volatility(est, scale=scale)

    print(f"ticker: {series.ticker}")
    print(f"method: {est.method}   M: {m}   H: {h}   training windows: {data.n_samples}")
    if est.method == METHOD_RD:
        print(f"L: {est.subspace_dim}")
        print(f"cond_ww: {est.cond:.6e}")
    print(f"{'day':>4}  {'price':>16}  {'std':>16}")
    for day in range(h):
        print(f"{day + 1:>4}  {prices[day]:>16.8f}  {stds[day]:>16.8f}")
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    series = load_csv(args.csv)
    sweep = SweepConfig(
        m_values=args.m_list,
        horizon=args.horizon,
        condition_caps=args.caps,
        n_test=args.n_test,
        objective=args.objective,
    )
    report = run_backtest(series, sweep)
    for cell in report.cells:
        if cell.skipped:
            print(f"M={cell.M} cap={cell.cap:g}: skipped ({cell.reason})")
            continue
        rd = cell.results[METHOD_RD]
        gb = cell.results.get(METHOD_GB)
        unc = cell.results[METHOD_UNC]
        gb_text = f"{gb.empirical_mse:.6g}" if gb is not None else "n/a"
        print(
            f"M={cell.M} cap={cell.cap:g}: L={cell.best_L}"
            f" cond_yy={cell.cond_yy:.6g} cond_ww={cell.cond_ww:.6g}"
            f" mse[unc]={unc.empirical_mse:.6g} mse[gb]={gb_text}"
            f" mse[rd]={rd.empirical_mse:.6g} dir[rd]={rd.directional_mean:.4f}"
            f" dir1[rd]={rd.directional_per_day[0]:.4f}"
        )
    if args.out:
        paths = emit_report(report, args.out)
        for path in paths:
            print(f"wrote {path}")
    return EXIT_OK


def _verify_checks(seed: int, n: int, corrupt: bool, cov_csv: str | None, split: int | None):
    """Return (name, value, target, limit_desc, diff, limit) verification rows."""
    if cov_csv is not None:
        spec = load_gaussian_spec(cov_csv, seed)
        m = split if split is not None else max(1, (2 * spec.dim) // 3)
        if not 1 <= m < spec.dim:
            raise ValueError(f"--split must be in [1, {spec.dim - 1}], got {m}")
    else:
        if split is not None:
            raise ValueError("--split needs --cov-csv")
        m = 20
        spec = GaussianSpec(random_covariance(geometric_spectrum(30, 1e2), seed), seed)
    model = CovarianceModel.from_matrix(spec.true_cov, m)
    unc = fit_unconditional(model)
    gb_clean = fit_gauss_bayes(model)
    gb = replace(gb_clean, coeff=np.zeros_like(gb_clean.coeff)) if corrupt else gb_clean
    l_grid = sorted({l for l in (1, 5, 10, 20) if l <= m} | {m})
    ladder = SubspaceLadder(model)
    rd = {l: ladder.fit(l) for l in l_grid}
    estimators = {"unc": unc, "gb": gb}
    estimators.update({f"rd[L={l}]": rd[l] for l in l_grid})

    rows = []

    def check(name, value, target, tol_desc, limit):
        rows.append((name, value, target, tol_desc, abs(value - target), limit))

    # closed-form MSE against fresh-draw Monte-Carlo, common draws per seed
    sq_errors = dict(zip(estimators, mc_squared_errors(spec, list(estimators.values()), n)))
    for name, est in estimators.items():
        closed = theoretical_mse(model, est)
        check(f"mse/{name}", float(sq_errors[name].mean()), closed, "5% rel", 0.05 * closed)

    # squared-bias closed forms against the stratified conditional oracle,
    # every estimator scored on one set of strata
    biased = {"unc": unc}
    biased.update({f"rd[L={l}]": rd[l] for l in l_grid if l != m})
    biased["gb-conditional"] = gb
    for (name, est), b in zip(biased.items(), mc_bias(spec, list(biased.values()), n)):
        target = squared_bias(model, est)  # unc: trace(sigma_zz)
        check(f"bias/{name}", b.value, target, "5% rel + 3 se", 0.05 * target + 3 * b.se)

    # optimality ordering on common draws, pairwise differences
    for l in l_grid:
        for lo, hi in (("gb", f"rd[L={l}]"), (f"rd[L={l}]", "unc")):
            d = McEstimate.of(sq_errors[hi] - sq_errors[lo])
            check(f"order/{lo}<={hi}", min(d.value, 0.0), 0.0, "3 se", 3 * d.se)

    # full-subspace reduction must reproduce the conditional-mean estimator
    coeff_scale = float(np.abs(gb_clean.coeff).max())
    post_scale = float(np.abs(gb_clean.posterior_cov).max())
    diff = max(
        float(np.abs(rd[m].coeff - gb_clean.coeff).max()) / coeff_scale,
        float(np.abs(rd[m].posterior_cov - gb_clean.posterior_cov).max()) / post_scale,
    )
    check("collapse/rd[L=m]==gb", diff, 0.0, "1e-6 rel", 1e-6)
    return rows


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _parse_seed(args.seed)
    rows = _verify_checks(seed, args.n, args.corrupt_coeff, args.cov_csv, args.split)
    advisory = args.n < STRICT_N
    if advisory:
        print(
            f"ADVISORY: n={args.n} is below {STRICT_N}; insufficient samples, "
            "values reported but tolerances not enforced"
        )
    failures = 0
    for name, value, target, tol_desc, diff, limit in rows:
        ok = diff <= limit
        if advisory:
            status = "ADVISORY"
        else:
            status = "PASS" if ok else "FAIL"
            failures += 0 if ok else 1
        print(
            f"[{status}] {name}: value={value:.8g} target={target:.8g} "
            f"tol={tol_desc} |diff|={diff:.3g} limit={limit:.3g}"
        )
    print(f"verify: {len(rows)} checks, {failures} failures (seed={seed}, n={args.n})")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    _log_config(args)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
