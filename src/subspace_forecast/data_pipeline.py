"""Price ingestion and the normalized, centered window matrix.

A daily price series is cut into ``K`` overlapping windows of ``N = M + H``
consecutive closes, one day apart (the rows of a Hankel matrix).
:func:`centered_windows` divides each window by its own day-``M`` price (its
newest observed close) straight into a ``(K, N - 1)`` array, leaving out the
day-``M`` column (identically 1 after scaling), and subtracts the column
mean of the rows that train.  A backtest holds out its newest rows before
centering, so no information flows backward; a forecast trains on every
row.  The stored scales and column means invert the transform, so forecasts
made in the centered ratio domain can be reported in price units.

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
    "DataMatrix",
    "load_csv",
    "centered_windows",
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
class DataMatrix:
    """Centered price-ratio windows plus everything needed to invert them.

    ``X`` holds one window of ``N`` days per row with the day-``M`` column
    removed; ``mean`` is the column-mean vector that was subtracted (same
    column layout as ``X``); ``scales[i]`` is the day-``M`` price that
    divided row ``i``.
    """

    X: np.ndarray
    mean: np.ndarray
    scales: np.ndarray
    M: int

    def __post_init__(self):
        for name in ("X", "mean", "scales"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.X.ndim != 2 or not 1 <= self.split_m < self.X.shape[1]:
            raise ValueError(f"X must be (K, N-1) with 2 <= M < N, got {self.X.shape}, M={self.M}")
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
        return self.M - 1

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


def centered_windows(
    series: PriceSeries, M: int, H: int, n_test: int = 0, n_windows: int | None = None
) -> tuple[DataMatrix, DataMatrix]:
    """Training and held-out blocks of the windows of ``N = M + H`` days.

    Window ``i`` is ``series.prices[i : i + N]``.  The first ``n_windows``
    windows (all ``len(series) - N + 1`` by default) are divided by their
    day-``M`` price straight into one ``(K, N - 1)`` array, slicing past the
    day-``M`` column, and centered by the column mean of the rows that
    train: all but the newest ``n_test``.  Returns ``(train, held_out)``;
    both carry that training mean, and ``held_out`` has ``n_test`` rows.
    The prices are not scanned again: a :class:`PriceSeries` holds only
    finite, positive ones.

    Raises ``ValueError`` for ``M < 2`` (day ``M`` is the normalization
    column, so no observed day would remain), ``H < 1``, a negative
    ``n_test`` or an ``n_windows`` the series does not hold, and
    :class:`InsufficientDataError` when fewer than 2 rows would train.
    """
    if M < 2:
        raise ValueError(f"--m must be at least 2 (day M is the normalization column), got {M}")
    if H < 1:
        raise ValueError(f"--h must be at least 1, got {H}")
    if n_test < 0:
        raise ValueError(f"n_test must be >= 0, got {n_test}")
    n = M + H
    k = len(series) - n + 1
    if n_windows is not None:
        if not 1 <= n_windows <= k:
            raise ValueError(f"n_windows must be in [1, {k}], got {n_windows}")
        k = n_windows
    n_train = k - n_test
    if n_train < 2:
        raise InsufficientDataError(
            f"needs at least {n_test + 2} windows of {n} days, got {max(k, 0)}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series.prices, n)[:k]
    scales = series.prices[M - 1 : M - 1 + k]
    X = np.empty((k, n - 1))
    np.divide(windows[:, : M - 1], scales[:, None], out=X[:, : M - 1])
    np.divide(windows[:, M:], scales[:, None], out=X[:, M - 1 :])
    mean = X[:n_train].mean(axis=0)
    X -= mean
    return (
        DataMatrix(X[:n_train], mean, scales[:n_train], M),
        DataMatrix(X[n_train:], mean, scales[n_train:], M),
    )


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
