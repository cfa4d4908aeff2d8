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

from dataclasses import dataclass
from datetime import date as _date
from itertools import compress, count, repeat
from operator import eq, lt
from pathlib import Path
from typing import NoReturn

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
    """End-of-day closing prices for one ticker, in calendar order.

    ``dates`` must be strictly increasing (as strings, which is calendar
    order for ISO dates); it is checked in one pass, and the first pair out
    of order is named only when the check fails.
    """

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
        if not all(map(lt, self.dates, self.dates[1:])):
            a, b = next((a, b) for a, b in zip(self.dates, self.dates[1:]) if a >= b)
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
        UTF-8 text (a leading byte-order mark is dropped) with one
        ``YYYY-MM-DD,price`` pair per line.  Blank lines are skipped, and a
        ``date,close`` header is permitted on line 1 only.  Rows may appear in
        any order; the result is sorted by date.

    The file is parsed by columns: every line is stripped, every row split at
    its one comma, and the date and price columns are each parsed in one
    pass.  Each check runs on the rows before the first row that failed the
    checks ahead of it (columns, date, price text, price domain), so the
    error names the first bad line and its first failed check, as a
    line-by-line reader would.

    Raises
    ------
    ParseError
        Text that is not UTF-8, or a malformed line (the message names the
        line number).
    DomainError
        Non-positive or non-finite price, or duplicate dates.
    InsufficientDataError
        Fewer than two data rows.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            lineno = len((exc.object[: exc.start] + b"?").splitlines())
            raise ParseError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
    lines = list(map(str.strip, text.split("\n")))
    if lines[0].lower().replace(" ", "") == "date,close":  # a header on line 1 only
        lines[0] = ""
    rows = list(filter(None, lines))
    # n: how many leading rows pass every check so far
    commas = list(map(str.count, rows, repeat(",")))
    n = len(rows) if commas.count(1) == len(rows) else next(
        i for i, c in enumerate(commas) if c != 1
    )
    fields = ",".join(rows[:n]).split(",") if n else []
    dates = list(map(str.strip, fields[0::2]))
    n = len(_parse_prefix(_date.fromisoformat, dates))
    prices = np.array(_parse_prefix(float, fields[1 : 2 * n : 2]), dtype=float)
    ok = np.isfinite(prices) & (prices > 0)
    n = len(prices) if ok.all() else int(np.argmin(ok))
    if n < len(rows):
        _raise_row_error(path, list(compress(count(1), lines))[n], rows[n])
    if n < 2:
        raise InsufficientDataError(f"{path}: need at least 2 data rows, got {n}")
    if not all(map(lt, dates, dates[1:])):
        order = sorted(range(n), key=dates.__getitem__)  # stable: ties keep file order
        dates = [dates[i] for i in order]
        same = list(map(eq, dates, dates[1:]))
        if True in same:
            k = same.index(True)
            linenos = list(compress(count(1), lines))
            raise DomainError(
                f"{path}: duplicate date {dates[k]} "
                f"(lines {linenos[order[k]]} and {linenos[order[k + 1]]})"
            )
        prices = prices[order]
    return PriceSeries(ticker=Path(path).name, dates=dates, prices=prices)


def _parse_prefix(parse, texts: list[str]) -> list:
    """``parse`` applied to ``texts`` up to the first one it rejects with ``ValueError``."""
    try:
        return list(map(parse, texts))
    except ValueError:
        done = []
        for text in texts:
            try:
                done.append(parse(text))
            except ValueError:
                return done


def _raise_row_error(path: str, lineno: int, text: str) -> NoReturn:
    """Raise the error of the first check that the stripped data row ``text`` fails."""
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
    raise DomainError(f"{path}:{lineno}: price must be finite and positive, got {price}")


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
