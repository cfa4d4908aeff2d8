"""Price ingestion and the normalized, centered window-matrix transform.

A daily price series is cut into ``K`` overlapping windows of ``N``
consecutive closes, stacked as a Hankel matrix (one-day shift between rows).
Each window is divided by its own day-``M`` price (its newest observed
close), the per-column mean of the resulting ratio matrix is subtracted, and
the day-``M`` column (identically 1 after scaling, identically 0 after
centering) is dropped.  The stored scales and column means invert the
transform, so forecasts made in the centered ratio domain can be reported in
price units.

Windows split into an observation block (days ``1 .. M - 1``; day ``M`` is
the dropped column) and a future block (the remaining ``N - M`` days).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as _date
from pathlib import Path

import numpy as np

from .errors import DomainError, InsufficientDataError, ParseError

__all__ = [
    "PriceSeries",
    "WindowConfig",
    "DataMatrix",
    "load_csv",
    "build_hankel",
    "normalize_and_center",
    "split_train_test",
    "denormalize_forecast",
]


@dataclass(frozen=True)
class PriceSeries:
    """End-of-day closing prices for one ticker, in calendar order."""

    ticker: str
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        if prices.ndim != 1 or len(self.dates) != prices.shape[0]:
            raise ValueError("dates and prices must be 1-d and equally long")
        if prices.size and (not np.all(np.isfinite(prices)) or np.any(prices <= 0)):
            raise DomainError(f"prices for {self.ticker!r} must be finite and strictly positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DomainError(f"dates must be strictly increasing, got {a!r} before {b!r}")

    def __len__(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry: observe ``M`` days, forecast the next ``N - M``.

    The day-``M`` price (the most recent observed day) scales the window.
    """

    N: int
    M: int

    def __post_init__(self):
        if not 1 <= self.M < self.N:
            raise ValueError(f"need 1 <= M < N, got M={self.M}, N={self.N}")


@dataclass(frozen=True)
class DataMatrix:
    """Centered price-ratio windows plus everything needed to invert them.

    ``X`` holds one window per row with the day-``M`` column removed; ``mean``
    is the column-mean vector that was subtracted (same column layout as
    ``X``); ``scales[i]`` is the day-``M`` price that divided row ``i``.
    """

    X: np.ndarray
    mean: np.ndarray
    scales: np.ndarray
    config: WindowConfig

    def __post_init__(self):
        for name in ("X", "mean", "scales"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.X.ndim != 2 or self.X.shape[1] != self.config.N - 1:
            raise ValueError(f"X must be (K, N-1), got {self.X.shape} for N={self.config.N}")
        if self.mean.shape != (self.X.shape[1],):
            raise ValueError("mean must have one entry per retained column")
        if self.scales.shape != (self.X.shape[0],):
            raise ValueError("scales must have one entry per row")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def split_m(self) -> int:
        """Number of observation columns to the left of the future block."""
        return self.config.M - 1

    @property
    def y_block(self) -> np.ndarray:
        return self.X[:, : self.split_m]

    @property
    def z_block(self) -> np.ndarray:
        return self.X[:, self.split_m :]


def load_csv(path: str) -> PriceSeries:
    """Read a ``date,close`` CSV into a :class:`PriceSeries` labelled by its
    file name, so every spelling of one path gives the same series.  Error
    messages name the path as given.

    Parameters
    ----------
    path:
        CSV file with one ``YYYY-MM-DD,price`` pair per line.  A single
        ``date,close`` header line is permitted.  Rows may appear in any
        order; the result is sorted by date.

    Raises
    ------
    ParseError
        Malformed line (message names the line number).
    DomainError
        Non-positive or non-finite price, or duplicate dates.
    InsufficientDataError
        Fewer than two data rows.
    """
    dates: list[str] = []
    prices: list[float] = []
    linenos: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if lineno == 1 and text.lower().replace(" ", "") == "date,close":
                continue
            token, comma, rest = text.partition(",")
            if not comma or "," in rest:
                raise ParseError(f"{path}:{lineno}: expected 'date,close', got {text!r}")
            token = token.strip()
            try:
                _date.fromisoformat(token)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad date {token!r}: {exc}") from exc
            try:
                price = float(rest)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad price {rest.strip()!r}") from exc
            if not math.isfinite(price) or price <= 0:
                raise DomainError(f"{path}:{lineno}: price must be finite and positive, got {price}")
            dates.append(token)
            prices.append(price)
            linenos.append(lineno)
    if len(dates) < 2:
        raise InsufficientDataError(f"{path}: need at least 2 data rows, got {len(dates)}")
    order = sorted(range(len(dates)), key=dates.__getitem__)  # stable: ties keep file order
    for i, j in zip(order, order[1:]):
        if dates[i] == dates[j]:
            raise DomainError(
                f"{path}: duplicate date {dates[i]} (lines {linenos[i]} and {linenos[j]})"
            )
    return PriceSeries(
        ticker=Path(path).name,
        dates=tuple([dates[i] for i in order]),
        prices=np.array(prices, dtype=float)[order],
    )


def build_hankel(series: PriceSeries, N: int, K: int) -> np.ndarray:
    """Stack ``K`` windows of ``N`` consecutive prices, shifted one day apart.

    Row ``i`` (0-based) is ``prices[i : i + N]``, so equal anti-diagonals of
    the result hold equal prices.
    """
    if N < 1 or K < 1:
        raise ValueError(f"need N >= 1 and K >= 1, got N={N}, K={K}")
    needed = K + N - 1
    if len(series) < needed:
        raise InsufficientDataError(
            f"{series.ticker!r}: Hankel build with K={K}, N={N} needs {needed} prices, "
            f"series has {len(series)}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series.prices, N)[:K]
    return np.array(windows, dtype=float)


def normalize_and_center(raw: np.ndarray, config: WindowConfig) -> DataMatrix:
    """Scale each window by its day-``M`` price, remove column means, drop column ``M``.

    Parameters
    ----------
    raw:
        ``(K, N)`` matrix of positive prices, one window per row.
    config:
        Window geometry; ``config.N`` must match the column count.

    Returns
    -------
    DataMatrix
        ``X`` of shape ``(K, N - 1)`` with zero column means, plus the
        subtracted means and the per-row scales.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != config.N:
        raise ValueError(f"raw windows must be (K, {config.N}), got {raw.shape}")
    if raw.shape[0] < 1:
        raise ValueError("need at least one window")
    q = config.M - 1
    scales = raw[:, q].copy()
    if not np.all(np.isfinite(raw)) or np.any(raw <= 0):
        raise DomainError("window prices must be finite and strictly positive")
    normalized = raw / scales[:, None]
    mean_full = normalized.mean(axis=0)
    centered = normalized - mean_full
    return DataMatrix(
        X=np.delete(centered, q, axis=1),
        mean=np.delete(mean_full, q),
        scales=scales,
        config=config,
    )


def split_train_test(data: DataMatrix, n_test: int) -> tuple[DataMatrix, DataMatrix]:
    """Chronological split: the last ``n_test`` rows become the test set.

    Centering statistics are re-estimated on the training rows only and
    applied unchanged to the test rows, so no information flows backward.
    """
    k = data.n_samples
    if not 0 < n_test < k:
        raise ValueError(f"n_test must be in (0, {k}), got {n_test}")
    normalized = data.X + data.mean
    n_train = k - n_test
    train_mean = normalized[:n_train].mean(axis=0)
    shared = dict(mean=train_mean, config=data.config)
    train = DataMatrix(
        X=normalized[:n_train] - train_mean, scales=data.scales[:n_train], **shared
    )
    test = DataMatrix(X=normalized[n_train:] - train_mean, scales=data.scales[n_train:], **shared)
    return train, test


def denormalize_forecast(zhat: np.ndarray, mean: np.ndarray, scale: float) -> np.ndarray:
    """Map a centered ratio forecast back to prices: ``(zhat + mean tail) * scale``."""
    zhat = np.asarray(zhat, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if zhat.ndim != 1 or mean.ndim != 1:
        raise ValueError("zhat and mean must be 1-d")
    h = zhat.shape[0]
    if mean.shape[0] < h:
        raise ValueError(f"mean has {mean.shape[0]} components, forecast needs {h}")
    return (zhat + mean[mean.shape[0] - h :]) * scale
