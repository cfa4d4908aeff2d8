"""Shared fixtures: synthetic price paths and a pinned Gaussian test problem."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subspace_forecast import (
    CovarianceModel,
    GaussianSpec,
    PriceSeries,
    gbm_prices,
    geometric_spectrum,
    random_covariance,
    smooth_prices,
)

# The price generators live in the package; the tests and the benchmark
# import them from here, next to the CSV writer.
__all__ = ["gbm_prices", "smooth_prices", "to_series", "write_price_csv"]

# The CLI tests start ``python -m subspace_forecast`` in child processes; they
# import the package from the same source tree as this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

CLI = [sys.executable, "-m", "subspace_forecast"]


def run_cli(*args, env_extra=None):
    """Run the CLI in a child process at the quiet log level unless
    ``env_extra`` sets another; return the completed process."""
    env = {**os.environ, "SUBSPACE_FORECAST_LOG": "quiet", **(env_extra or {})}
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env, timeout=330)


def to_series(prices, ticker="synthetic"):
    """Wrap a price array with synthetic ISO dates (one per calendar day)."""
    from datetime import date, timedelta

    d0 = date(2000, 1, 3)
    dates = tuple((d0 + timedelta(days=i)).isoformat() for i in range(len(prices)))
    return PriceSeries(ticker, dates, np.asarray(prices, dtype=float))


def write_price_csv(path, prices):
    with open(path, "w") as fh:
        fh.write("date,close\n")
        series = to_series(prices)
        for d, p in zip(series.dates, series.prices):
            fh.write(f"{d},{float(p)!r}\n")
    return str(path)


# Pinned joint-Gaussian problem used by the Monte-Carlo agreement tests:
# 30 total days, 20 observed, horizon 10, spectrum spanning two decades.
FIXTURE_DIM = 30
FIXTURE_SPLIT = 20
FIXTURE_SEED = 13


@pytest.fixture(scope="session")
def pinned_cov():
    return random_covariance(geometric_spectrum(FIXTURE_DIM, 1e2), seed=FIXTURE_SEED)


@pytest.fixture(scope="session")
def pinned_model(pinned_cov):
    return CovarianceModel.from_matrix(pinned_cov, m=FIXTURE_SPLIT)


@pytest.fixture(scope="session")
def pinned_spec(pinned_cov):
    return GaussianSpec(pinned_cov, seed=FIXTURE_SEED)


# One-line verdicts recorded by tests/test_acceptance.py, echoed after the
# run so the pass/fail status of every contract clause is visible even when
# output capture is on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
