"""Grid experiments over observation length and condition cap.

For every requested observation length ``M`` the full price history is cut
into windows, split chronologically into train and test rows, centered on
the training rows, and all three estimators are fitted on the training
covariance.  For every condition cap the reduced-dimension subspace size is
the best-scoring size whose filtered covariance stays within the cap, ties
to the smaller one.  The score is the closed-form reduced-dimension MSE by
default, taken in its exact order, or held-out validation MSE; either way
the sizes are tried in ``(score, L)`` order, sizes whose ``cond_ww`` lower
bound rules them out are skipped, and the first size that meets the cap is
the pick.

Results are collected per (M, cap) cell and can be serialized as a fixed set
of CSV files plus a ``summary.json``, whose keys are the records' own field
names; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics
from .covariance_model import CovarianceModel, empirical_covariance
from .data_pipeline import DataMatrix, PriceSeries, centered_windows, denormalize_forecast
from .errors import IllConditionedError, InsufficientDataError, NoFeasibleSubspaceError
from .estimators import (
    METHOD_GB,
    METHOD_RD,
    METHOD_UNC,
    Estimator,
    SubspaceLadder,
    fit_gauss_bayes,
    fit_unconditional,
)

__all__ = [
    "OBJECTIVE_THEORETICAL",
    "OBJECTIVE_VALIDATION",
    "DEFAULT_M_GRID",
    "SweepConfig",
    "LCurvePoint",
    "MethodResult",
    "CellReport",
    "BacktestReport",
    "build_l_curve",
    "validation_scores",
    "select_L",
    "run_backtest",
    "emit_report",
]

OBJECTIVE_THEORETICAL = "theoretical_rd_mse"
OBJECTIVE_VALIDATION = "validation_mse"

# Default observation-length grid: 20 through 440 in steps of 30.
DEFAULT_M_GRID = tuple(range(20, 441, 30))

# select_L drops a size only when its cond_ww lower bound is over this
# multiple of the cap, so no rounding in the bound can drop a size it should
# keep.
BOUND_MARGIN = 2.0

CSV_FILES = (
    "mse_vs_L.csv",
    "best_mse.csv",
    "condition.csv",
    "directional.csv",
    "volatility.csv",
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for a backtest run."""

    m_values: tuple[int, ...]
    horizon: int = 10
    condition_caps: tuple[float, ...] = (1e3, 1e4)
    n_test: int = 2200
    objective: str = OBJECTIVE_THEORETICAL

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(
            self, "condition_caps", tuple(float(c) for c in self.condition_caps)
        )
        if not self.m_values:
            raise ValueError("m_values must not be empty")
        if any(m < 2 for m in self.m_values):
            raise ValueError("every observation length must be >= 2")
        if len(set(self.m_values)) != len(self.m_values):
            raise ValueError(f"observation lengths must be distinct, got {list(self.m_values)}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        caps = self.condition_caps
        if not caps:
            raise ValueError("condition caps must not be empty")
        for cap in caps:
            _check_cap(cap)
        if len(set(caps)) != len(caps):
            raise ValueError(f"condition caps must be distinct, got {list(caps)}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")
        if self.objective not in (OBJECTIVE_THEORETICAL, OBJECTIVE_VALIDATION):
            raise ValueError(f"unknown objective {self.objective!r}")


class LCurvePoint(NamedTuple):
    """One point of the subspace-size scan for a fixed M; serialized as its
    ``[L, cond_ww, mse_rd]`` triple."""

    L: int
    cond_ww: float
    mse_rd: float


@dataclass
class MethodResult:
    """Everything measured for one estimator in one grid cell."""

    method: str
    theoretical_mse: float
    bias_sq: float
    variance: float
    empirical_mse: float
    empirical_mse_per_day: np.ndarray
    empirical_mse_price: float
    directional_per_day: np.ndarray
    directional_mean: float
    volatility: np.ndarray
    cond: float | None = None
    subspace_dim: int | None = None


@dataclass
class CellReport:
    """One (M, cap) cell of the grid; ``skipped`` cells carry only a reason."""

    M: int
    cap: float
    skipped: bool = False
    reason: str | None = None
    best_L: int | None = None
    cond_yy: float | None = None
    cond_ww: float | None = None
    gb_error: str | None = None
    results: dict[str, MethodResult] = field(default_factory=dict)


@dataclass
class BacktestReport:
    """All cells of one run plus the subspace-size scan for each M."""

    sweep: SweepConfig
    cells: list[CellReport]
    l_curves: dict[int, list[LCurvePoint]]


def build_l_curve(ladder: SubspaceLadder) -> list[LCurvePoint]:
    """Condition number and closed-form MSE of the reduced-dimension
    estimator for every subspace size ``L = 1..m``, all from the model's
    ladder."""
    model = ladder.model
    points = []
    for l_size in range(1, model.m + 1):
        if l_size > ladder.rank:
            points.append(LCurvePoint(L=l_size, cond_ww=float("inf"), mse_rd=float("inf")))
            continue
        est = ladder.fit(l_size)
        points.append(
            LCurvePoint(L=l_size, cond_ww=est.cond, mse_rd=metrics.theoretical_mse(model, est))
        )
    return points


def validation_scores(
    ladder: SubspaceLadder, val_y: np.ndarray, val_z: np.ndarray
) -> list[float]:
    """Held-out MSE of every size ``L = 1..rank`` on the validation rows, in
    one pass over :meth:`SubspaceLadder.forecasts`; no size is refitted."""
    return [float(metrics.empirical_mse(pred, val_z).sum()) for pred in ladder.forecasts(val_y)]


def _check_cap(cap: float) -> None:
    """Raise ``ValueError`` unless ``cap`` is a condition-number cap: finite
    and at least 1, the smallest condition number there is."""
    if not (math.isfinite(cap) and cap >= 1):
        raise ValueError(f"condition cap must be finite and >= 1, got {cap:g}")


def select_L(ladder: SubspaceLadder, cap: float, scores: list[float] | None = None) -> int:
    """Best-scoring subspace size whose ``cond_ww`` meets the cap, ties to
    the smaller ``L``.

    ``scores[L - 1]`` is the score of size ``L``, lower is better, such as
    :func:`validation_scores`; without ``scores`` it is the closed-form MSE
    in the exact order :meth:`~SubspaceLadder.mse_order`, so nothing is
    fitted or scored.  Sizes are tried in ``(score, L)`` order and the first
    whose ``cond_ww`` meets the cap is returned.  A size whose
    :meth:`~SubspaceLadder.cond_ww_bounds` entry is over ``BOUND_MARGIN``
    times the cap is provably over it and gets no SVD.  Size 1 has
    ``cond_ww = 1``, which every cap meets, so only a ladder with no usable
    size has no pick: it raises :class:`NoFeasibleSubspaceError` with size
    1's reason.  Raises ``ValueError`` for a cap that is not finite or is
    below 1 (:func:`_check_cap`).
    """
    _check_cap(cap)
    try:
        ladder.check(1)
    except IllConditionedError as exc:
        raise NoFeasibleSubspaceError(
            f"no subspace size in [1, {ladder.model.m}] can be fitted: {exc}"
        ) from exc
    if scores is None:
        scores = ladder.mse_order()
    bounds = ladder.cond_ww_bounds().tolist()
    return next(
        l_size
        for l_size in sorted(range(1, ladder.rank + 1), key=lambda size: (scores[size - 1], size))
        if bounds[l_size - 1] <= BOUND_MARGIN * cap and ladder.cond_ww(l_size) <= cap
    )


def _evaluate_method(
    model: CovarianceModel, est: Estimator, test: DataMatrix
) -> MethodResult:
    """Score one fitted estimator on the test rows of one grid cell."""
    preds = test.y_block @ est.coeff.T
    emp = metrics.empirical_mse(preds, test.z_block)
    pred_prices = denormalize_forecast(preds, test.mean, test.scales)
    actual_prices = denormalize_forecast(test.z_block, test.mean, test.scales)
    directional = metrics.directional_statistic(pred_prices, actual_prices, test.scales)
    theoretical = metrics.theoretical_mse(model, est)
    try:
        bias_sq = metrics.squared_bias(model, est)
    except IllConditionedError:
        bias_sq = float("nan")
    return MethodResult(
        method=est.method,
        theoretical_mse=theoretical,
        bias_sq=bias_sq,
        variance=theoretical - bias_sq,
        empirical_mse=float(emp.sum()),
        empirical_mse_per_day=emp,
        empirical_mse_price=float(metrics.empirical_mse(pred_prices, actual_prices).sum()),
        directional_per_day=directional,
        directional_mean=float(directional.mean()),
        volatility=metrics.volatility(est),
        cond=est.cond,
        subspace_dim=est.subspace_dim,
    )


def run_backtest(series: PriceSeries, sweep: SweepConfig) -> BacktestReport:
    """Fit and score all three estimators over the (M, cap) grid.

    Cells that cannot run (series too short for the window count or for the
    validation split, or no usable subspace size) are recorded as
    skipped with a reason; the run continues.  The computation is
    deterministic in (series, sweep).
    """
    cells: list[CellReport] = []
    curves: dict[int, list[LCurvePoint]] = {}
    for m_days in sweep.m_values:
        try:
            train, test = centered_windows(series, m_days, sweep.horizon, sweep.n_test)
            if sweep.objective == OBJECTIVE_VALIDATION:
                # the newest fifth of the training rows scores the sizes of a
                # model of the rest, once per M
                n_train = train.n_samples
                try:
                    sub_train, val = centered_windows(
                        series, m_days, sweep.horizon, max(1, n_train // 5), n_train
                    )
                except InsufficientDataError as exc:
                    raise InsufficientDataError(f"validation split: {exc}") from exc
        except InsufficientDataError as exc:
            for cap in sweep.condition_caps:
                cells.append(CellReport(M=m_days, cap=cap, skipped=True, reason=str(exc)))
            continue
        model = empirical_covariance(train)
        ladder = SubspaceLadder(model)
        curve = build_l_curve(ladder)
        curves[m_days] = curve

        sel_ladder, scores = ladder, None
        if sweep.objective == OBJECTIVE_VALIDATION:
            sel_ladder = SubspaceLadder(empirical_covariance(sub_train))
            scores = validation_scores(sel_ladder, val.y_block, val.z_block)

        unc_result = _evaluate_method(model, fit_unconditional(model), test)
        gb_result, gb_error = None, None
        try:
            gb = fit_gauss_bayes(model)
        except IllConditionedError as exc:
            gb_error = str(exc)
            cond_yy = exc.condition_number
        else:
            cond_yy = gb.cond  # the same spectral_condition(sigma_yy)
            gb_result = _evaluate_method(model, gb, test)

        for cap in sweep.condition_caps:
            cell = CellReport(M=m_days, cap=cap, cond_yy=cond_yy, gb_error=gb_error)
            try:
                best_l = select_L(sel_ladder, cap, scores)
                if curve[best_l - 1].cond_ww > cap:
                    # validation pick infeasible on the full-train model
                    best_l = select_L(ladder, cap)
                rd = ladder.fit(best_l)
            except NoFeasibleSubspaceError as exc:
                cell.skipped = True
                cell.reason = str(exc)
                cells.append(cell)
                continue
            cell.best_L = best_l
            cell.cond_ww = rd.cond
            cell.results[METHOD_UNC] = unc_result
            if gb_result is not None:
                cell.results[METHOD_GB] = gb_result
            cell.results[METHOD_RD] = _evaluate_method(model, rd, test)
            cells.append(cell)
    return BacktestReport(sweep=sweep, cells=cells, l_curves=curves)


def _plain(obj):
    """JSON form of what ``json`` cannot write itself: an array's list, a
    record's fields."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return vars(obj)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def emit_report(report: BacktestReport, out_dir: str) -> list[Path]:
    """Serialize a report: five CSV families plus ``summary.json``.

    Column names are stable for downstream plotting; floats are written at
    full round-trip precision.  ``summary.json`` is the report's records
    serialized by one rule (:func:`_plain`), so its keys are their field
    names.  Skipped cells appear only in the JSON.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    active = [c for c in report.cells if not c.skipped]

    rows = [
        (m, p.L, p.cond_ww, p.mse_rd)
        for m, curve in sorted(report.l_curves.items())
        for p in curve
    ]
    _write_csv(out / "mse_vs_L.csv", ("M", "L", "cond_ww", "mse_rd"), rows)

    def _total(cell: CellReport, method: str) -> float:
        result = cell.results.get(method)
        return result.empirical_mse if result is not None else float("nan")

    _write_csv(
        out / "best_mse.csv",
        ("M", "cap", "best_L", "mse_unc", "mse_gb", "mse_rd"),
        (
            (c.M, c.cap, c.best_L, _total(c, METHOD_UNC), _total(c, METHOD_GB), _total(c, METHOD_RD))
            for c in active
        ),
    )

    _write_csv(
        out / "condition.csv",
        ("M", "cond_yy", "cond_ww"),
        ((c.M, c.cond_yy, c.cond_ww) for c in active),
    )

    directional_rows = []
    volatility_rows = []
    for cell in active:
        for method in (METHOD_UNC, METHOD_GB, METHOD_RD):
            result = cell.results.get(method)
            if result is None:
                continue
            for day in range(result.directional_per_day.shape[0]):
                directional_rows.append(
                    (cell.M, cell.cap, method, day + 1, float(result.directional_per_day[day]))
                )
                volatility_rows.append(
                    (cell.M, cell.cap, method, day + 1, float(result.volatility[day]))
                )
    _write_csv(out / "directional.csv", ("M", "cap", "method", "day", "D_j"), directional_rows)
    _write_csv(out / "volatility.csv", ("M", "cap", "method", "day", "std"), volatility_rows)

    summary = out / "summary.json"
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                "config": report.sweep,
                "cells": report.cells,
                "l_curves": {str(m): curve for m, curve in report.l_curves.items()},
            },
            fh,
            indent=2,
            sort_keys=True,
            default=_plain,
        )
        fh.write("\n")
    return [out / name for name in CSV_FILES] + [summary]
