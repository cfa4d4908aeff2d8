"""Ingestion, window construction, and the normalize/center/invert cycle."""

import math
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from subspace_forecast import (
    DataMatrix,
    DomainError,
    InsufficientDataError,
    ParseError,
    PriceSeries,
    centered_windows,
    denormalize_forecast,
    load_csv,
)

from conftest import gbm_prices, smooth_prices, to_series, write_price_csv


# ---------------------------------------------------------------- load_csv

def test_load_csv_happy_path(tmp_path):
    path = write_price_csv(tmp_path / "t.csv", [100.0, 101.5, 99.25])
    series = load_csv(path)
    assert len(series) == 3
    assert series.dates[0] == "2000-01-03"
    assert_allclose(series.prices, [100.0, 101.5, 99.25])
    assert series.ticker == "t.csv"  # the file name, not the path


def test_load_csv_without_header(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("2001-01-02,10.0\n2001-01-03,11.0\n")
    series = load_csv(str(p))
    assert_allclose(series.prices, [10.0, 11.0])
    assert series.dates == ("2001-01-02", "2001-01-03")


def test_load_csv_sorts_rows_by_date(tmp_path):
    p = tmp_path / "shuffled.csv"
    p.write_text("date,close\n2001-01-05,3.0\n2001-01-03,1.0\n2001-01-04,2.0\n")
    series = load_csv(str(p))
    assert_allclose(series.prices, [1.0, 2.0, 3.0])


def test_load_csv_parse_error_names_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,close\n2001-01-02,10.0\n2001-01-03,not-a-price\n")
    with pytest.raises(ParseError, match=r":3: bad price"):
        load_csv(str(p))


def test_load_csv_bad_date_token(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2001-13-40,10.0\n2001-01-03,11.0\n")
    with pytest.raises(ParseError, match=r":1: bad date"):
        load_csv(str(p))


def test_load_csv_wrong_column_count(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2001-01-02,10.0,extra\n")
    with pytest.raises(ParseError, match="expected 'date,close'"):
        load_csv(str(p))


def test_load_csv_rejects_nonpositive_price(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2001-01-02,10.0\n2001-01-03,-4.0\n")
    with pytest.raises(DomainError, match="finite and positive"):
        load_csv(str(p))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_csv_rejects_nonfinite_price_naming_the_line(tmp_path, token):
    # float() parses these strings, so only the finiteness check stops them
    p = tmp_path / "bad.csv"
    p.write_text(f"date,close\n2001-01-02,10.0\n2001-01-03,{token}\n")
    with pytest.raises(DomainError, match=r"bad\.csv:3: price must be finite and positive"):
        load_csv(str(p))


def test_load_csv_rejects_duplicate_dates(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2001-01-02,10.0\n2001-01-02,11.0\n")
    with pytest.raises(DomainError, match="duplicate date"):
        load_csv(str(p))


def test_load_csv_needs_two_rows(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("date,close\n2001-01-02,10.0\n")
    with pytest.raises(InsufficientDataError):
        load_csv(str(p))


def test_load_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("date,close\n\n2001-01-02,10.0\n\n2001-01-03,11.0\n")
    assert len(load_csv(str(p))) == 2


def iso_error(token):
    """The reason ``load_csv`` gives for the date ``token``: the message of
    ``date.fromisoformat``, or the ``YYYY-MM-DD`` rule for another form it
    parses (Python 3.11 and later)."""
    try:
        _date.fromisoformat(token)
    except ValueError as exc:
        return str(exc)
    return "expected YYYY-MM-DD"


def utf8_error(data):
    """The message the UTF-8 codec gives for ``data``."""
    with pytest.raises(UnicodeDecodeError) as info:
        data.decode("utf-8")
    return str(info.value)


NOT_UTF8 = b"date,close\n2001-01-02,10.0\n2001-01-03,1\xe9\n"


# (file text, exception type, message after "<path>"); a line's checks run
# column count, date, price parse, price domain, and the earliest bad line
# wins; duplicate dates and the row count are checked after the last line
MALFORMED = {
    "bad price": (
        "date,close\n2001-01-02,10.0\n2001-01-03,not-a-price\n",
        ParseError, ":3: bad price 'not-a-price'",
    ),
    "bad price, stripped": ("2001-01-02, x \n", ParseError, ":1: bad price 'x'"),
    "three columns": (
        "2001-01-02,10.0,extra\n", ParseError,
        ":1: expected 'date,close', got '2001-01-02,10.0,extra'",
    ),
    "one column": (
        "2001-01-02 10.0\n", ParseError, ":1: expected 'date,close', got '2001-01-02 10.0'"
    ),
    "bad date": (
        "2001-13-40,10.0\n2001-01-03,11.0\n", ParseError,
        f":1: bad date '2001-13-40': {iso_error('2001-13-40')}",
    ),
    # three rows name 1 Jan 2020, and as strings the series is out of order
    "dates not YYYY-MM-DD": (
        "2020-01-01,1.0\n20200101,2.0\n2020-W01-3,4.0\n2020-01-02,5.0\n", ParseError,
        f":2: bad date '20200101': {iso_error('20200101')}",
    ),
    "week date": (
        "2001-01-02,10.0\n2001-W01-3,11.0\n", ParseError,
        f":2: bad date '2001-W01-3': {iso_error('2001-W01-3')}",
    ),
    "header past line 1": (
        "\ndate,close\n2001-01-03,11.0\n", ParseError,
        f":2: bad date 'date': {iso_error('date')}",
    ),
    "non-positive price": (
        "2001-01-02,10.0\n2001-01-03,-4.0\n", DomainError,
        ":2: price must be finite and positive, got -4.0",
    ),
    "nan price": (
        "2001-01-02,10.0\n2001-01-03,nan\n", DomainError,
        ":2: price must be finite and positive, got nan",
    ),
    "duplicate date": (
        "2001-01-03,10.0\n2001-01-02,9.0\n\n2001-01-03,11.0\n", DomainError,
        ": duplicate date 2001-01-03 (lines 1 and 4)",
    ),
    "one row": (
        "date,close\n2001-01-02,10.0\n", InsufficientDataError,
        ": need at least 2 data rows, got 1",
    ),
    "bad price before bad date": (
        "2001-01-02,10.0\n2001-01-03,x\n2001-01-04,11.0\nbad,12.0\n",
        ParseError, ":2: bad price 'x'",
    ),
    "bad date before bad price": (
        "2001-01-02,10.0\n2001-02-30,1.0\n2001-01-04,0\n", ParseError,
        f":2: bad date '2001-02-30': {iso_error('2001-02-30')}",
    ),
    "columns before date": (
        "2001-13-40,x,y\n", ParseError, ":1: expected 'date,close', got '2001-13-40,x,y'"
    ),
    "date before price": (
        "2001-13-40,x\n", ParseError, f":1: bad date '2001-13-40': {iso_error('2001-13-40')}"
    ),
    "parse fault before duplicate": (
        "2001-01-02,1.0\n2001-01-02,2.0\n2001-01-03,x\n", ParseError, ":3: bad price 'x'"
    ),
    "not UTF-8": (NOT_UTF8, ParseError, f":3: not UTF-8 text: {utf8_error(NOT_UTF8)}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_csv_malformed_files(case, tmp_path):
    text, exc_type, message = MALFORMED[case]
    p = tmp_path / "bad.csv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(exc_type) as info:
        load_csv(str(p))
    assert type(info.value) is exc_type
    assert str(info.value) == f"{p}{message}"


PLAIN = "date,close\n2001-01-02,10.0\n2001-01-04,11.5\n2001-01-03,9.25\n"

# (file bytes that must load to the same series as PLAIN)
EQUIVALENT = {
    "utf-8 byte-order mark": b"\xef\xbb\xbf" + PLAIN.encode(),
    "byte-order mark, no header": b"\xef\xbb\xbf" + PLAIN.encode().split(b"\n", 1)[1],
    "crlf endings": PLAIN.replace("\n", "\r\n").encode(),
    "padded fields and blank lines": b"  date , close \n\n 2001-01-02 , 10.0\n \t\n"
                                     b"2001-01-04,11.5 \n2001-01-03,  9.25",
}


@pytest.mark.parametrize("case", sorted(EQUIVALENT))
def test_load_csv_reads_variants_as_the_plain_file(case, tmp_path):
    (tmp_path / "plain").mkdir()
    plain = tmp_path / "plain" / "t.csv"
    plain.write_text(PLAIN)
    variant = tmp_path / "t.csv"
    variant.write_bytes(EQUIVALENT[case])
    want, got = load_csv(str(plain)), load_csv(str(variant))
    assert (got.ticker, got.dates) == (want.ticker, want.dates)
    assert got.prices.tobytes() == want.prices.tobytes()
    assert got.dates == ("2001-01-02", "2001-01-03", "2001-01-04")


def reference_load_csv(path: str) -> PriceSeries:
    """The line-by-line reader that the column parser replaced, with the
    ``YYYY-MM-DD`` date rule."""
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
                if _date.fromisoformat(token).isoformat() != token:
                    raise ValueError("expected YYYY-MM-DD")
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


_PAD = st.sampled_from(["", " ", "  ", "\t"])
_DAY = st.integers(0, 40).map(lambda k: (_date(2001, 1, 1) + timedelta(k)).isoformat())
_PRICE = st.one_of(
    st.floats(1e-6, 1e6).map(repr),
    st.decimals("0.01", "999.99", places=2).map(str),
    st.sampled_from(["1e2", "+7", "0012.50", "1_000.5"]),
)
_VALID = st.builds(lambda a, d, b, c, p, e: f"{a}{d}{b},{c}{p}{e}",
                   _PAD, _DAY, _PAD, _PAD, _PRICE, _PAD)
_BLANK = st.sampled_from(["", "   ", "\t"])
_HEADER = st.sampled_from(["date,close", "DATE, close", " date,close "])
_MALFORMED = st.sampled_from([
    "2001-01-02 10.0", "2001-01-02,1,2", ",", "a,b,c", "2001-13-40,1.0", "20010102,1.0",
    "2001-W01-3,1.0", "2001-02-30,x", "2001-01-02,abc", "2001-01-02,", "2001-01-02,-1",
    "2001-01-02,0", "2001-01-02,nan", "2001-01-02,-inf", "2001-01-02,1e999",
])


@st.composite
def price_files(draw):
    """File text: valid rows (padded), blank lines, a header on line 1 or
    elsewhere, up to two malformed rows, mixed line endings."""
    lines = draw(st.lists(st.one_of(_VALID, _VALID, _VALID, _BLANK), max_size=25))
    inserts = [_HEADER] * draw(st.sampled_from([0, 0, 0, 1]))
    inserts += [_MALFORMED] * draw(st.sampled_from([0, 0, 1, 2]))
    for kind in inserts:
        lines.insert(draw(st.integers(0, len(lines))), draw(kind))
    if draw(st.booleans()):
        lines.insert(0, draw(_HEADER))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(load, path):
    try:
        series = load(path)
    except ValueError as exc:  # every load_csv error is one
        return type(exc), str(exc)
    return series.ticker, series.dates, series.prices.tobytes()


@given(text=price_files())
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_the_line_by_line_reader(text, tmp_path_factory):
    p = tmp_path_factory.mktemp("prop") / "p.csv"
    p.write_bytes(text.encode())
    assert _outcome(load_csv, str(p)) == _outcome(reference_load_csv, str(p))


# ------------------------------------------------------------- PriceSeries

def test_price_series_validation():
    with pytest.raises(DomainError):
        PriceSeries("x", ("2001-01-02", "2001-01-03"), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        PriceSeries("x", ("2001-01-02", "2001-01-03"), np.array([1.0, np.nan]))
    with pytest.raises(DomainError, match="strictly increasing"):
        PriceSeries("x", ("2001-01-03", "2001-01-02"), np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="got '2001-01-03' before '2001-01-03'"):
        PriceSeries("x", ("2001-01-02", "2001-01-03", "2001-01-03"), np.ones(3))
    with pytest.raises(ValueError):
        PriceSeries("x", ("2001-01-02",), np.array([1.0, 2.0]))


def test_price_series_is_immutable():
    s = to_series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.prices[0] = 99.0


# ------------------------------------------------------- window geometry

def windows_of(prices, n, k):
    """The first ``k`` windows of ``n`` prices, one per row."""
    return np.array([prices[i : i + n] for i in range(k)], dtype=float)


def uncentered(data):
    """The price windows a block was made from, day ``M`` left out."""
    return (data.X + data.mean) * data.scales[:, None]


def test_window_config_keeps_valid_geometry():
    train, held_out = centered_windows(to_series(gbm_prices(60, 2)), M=20, H=10)
    assert (train.M, train.split_m, train.dim, train.n_samples) == (20, 19, 29, 31)
    assert held_out.X.shape == (0, 29)


@pytest.mark.parametrize("kwargs", [
    dict(M=10, H=0),           # nothing left to forecast
    dict(M=0, H=10),
    dict(M=1, H=10),           # day 1 would scale the window, leaving no observed day
])
def test_window_config_rejects_bad_geometry(kwargs):
    flag = "--h" if kwargs["H"] < 1 else "--m"
    with pytest.raises(ValueError, match=f"{flag} must be at least"):
        centered_windows(to_series(gbm_prices(60, 2)), **kwargs)


def test_hankel_shape_and_shift():
    series = to_series(np.arange(1.0, 13.0))
    train, _ = centered_windows(series, M=3, H=2, n_windows=8)
    assert train.X.shape == (8, 4)
    assert_array_equal(train.scales, np.arange(3.0, 11.0))
    assert_allclose(uncentered(train)[0], [1, 2, 4, 5], rtol=1e-15)
    assert_allclose(uncentered(train)[1], [2, 3, 5, 6], rtol=1e-15)


def test_hankel_tiny_cases():
    three, _ = centered_windows(to_series([1.0, 2.0, 3.0, 4.0, 5.0]), M=2, H=1)
    assert_array_equal(three.scales, [2.0, 3.0, 4.0])
    assert_allclose(uncentered(three), [[1, 3], [2, 4], [3, 5]], rtol=1e-15)
    # the fewest windows a covariance can use
    two, _ = centered_windows(to_series([7.0, 7.0, 7.0, 7.0]), M=2, H=1)
    assert_array_equal(two.X, [[0.0, 0.0], [0.0, 0.0]])
    assert_array_equal(two.mean, [1.0, 1.0])


def test_hankel_insufficient_data():
    series = to_series(np.arange(1.0, 7.0))  # two windows of 5 days
    with pytest.raises(InsufficientDataError, match="needs at least 3 windows of 5 days, got 2"):
        centered_windows(series, M=3, H=2, n_test=1)
    with pytest.raises(InsufficientDataError, match="needs at least 2 windows of 4 days, got 0"):
        centered_windows(to_series([1.0, 2.0, 3.0]), M=2, H=2)
    with pytest.raises(ValueError, match=r"n_windows must be in \[1, 2\], got 3"):
        centered_windows(series, M=3, H=2, n_windows=3)
    with pytest.raises(ValueError, match="n_test must be >= 0"):
        centered_windows(series, M=3, H=2, n_test=-1)


@given(
    n_prices=st.integers(min_value=7, max_value=40),
    n_cols=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_hankel_anti_diagonal_property(n_prices, n_cols, seed, data):
    # row i is window i: its scale is the day-M price of the window, and
    # its ratios times that scale give back prices[i + j] (entry (i, j)
    # depends only on i + j)
    m_days = data.draw(st.integers(min_value=2, max_value=n_cols - 1))
    prices = gbm_prices(n_prices, seed)
    k = n_prices - n_cols + 1
    train, _ = centered_windows(to_series(prices), M=m_days, H=n_cols - m_days)
    assert_array_equal(train.scales, prices[m_days - 1 : m_days - 1 + k])
    expected = np.delete(windows_of(prices, n_cols, k), m_days - 1, axis=1)
    assert_allclose(uncentered(train), expected, rtol=1e-13)


# --------------------------------------------------------- normalization

def test_normalize_drops_day_q_column_and_centers():
    prices = [1.0, 2.0, 4.0, 8.0, 3.0, 5.0]
    data, _ = centered_windows(to_series(prices), M=3, H=1)  # day 3, column 2, is dropped
    raw = windows_of(prices, 4, 3)
    assert data.X.shape == (3, 3)
    assert_array_equal(data.scales, [4.0, 8.0, 3.0])
    assert_allclose(data.X.mean(axis=0), 0.0, atol=1e-15)
    # columns of X are price/day-M-price, centered, with day M left out
    ratios = raw / raw[:, 2:3]
    assert_allclose(data.X, np.delete(ratios - ratios.mean(axis=0), 2, axis=1))


def test_normalize_single_window_arithmetic():
    # One held-out window on the training rows' ratio path: the training
    # mean is that path, so the held-out row centers to exactly zero.  A
    # single training window is refused, as no covariance has one row.
    series = to_series([2.0, 4.0, 8.0, 16.0, 32.0])
    train, held_out = centered_windows(series, M=2, H=1, n_test=1)
    assert_array_equal(held_out.scales, [16.0])
    assert_array_equal(held_out.mean, [0.5, 2.0])
    assert_array_equal(held_out.X, [[0.0, 0.0]])
    assert_array_equal(train.X, [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InsufficientDataError):
        centered_windows(series, M=2, H=1, n_test=2)


def test_normalize_two_window_arithmetic():
    proportional, _ = centered_windows(to_series([1.0, 2.0, 4.0, 8.0]), M=2, H=1)
    assert_array_equal(proportional.scales, [2.0, 4.0])
    assert_array_equal(proportional.mean, [0.5, 2.0])
    assert_array_equal(proportional.X, [[0.0, 0.0], [0.0, 0.0]])

    spread, _ = centered_windows(to_series([1.0, 1.0, 2.0, 4.0]), M=2, H=1)
    assert_array_equal(spread.mean, [0.75, 2.0])
    assert_array_equal(spread.X, [[0.25, 0.0], [-0.25, 0.0]])


def test_normalize_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError, match="mean must have one entry"):
        DataMatrix(X=np.ones((3, 5)), mean=np.zeros(4), scales=np.ones(3), M=3)
    with pytest.raises(ValueError, match="X must be"):
        DataMatrix(X=np.ones((3, 5)), mean=np.zeros(5), scales=np.ones(3), M=6)
    with pytest.raises(ValueError, match="X must be"):
        DataMatrix(X=np.ones((3, 5)), mean=np.zeros(5), scales=np.ones(3), M=1)
    # prices are checked once, when the series is made
    with pytest.raises(DomainError):
        to_series([1.0, 2.0, -3.0, 4.0])


def test_block_views_split_observation_and_future():
    raw = np.abs(gbm_prices(20, 3))
    # day 4 dropped -> 5 columns, split at M-1=3
    data, _ = centered_windows(to_series(raw), M=4, H=2, n_windows=15)
    assert data.split_m == 3
    assert data.y_block.shape == (15, 3)
    assert data.z_block.shape == (15, 2)
    assert_allclose(np.hstack([data.y_block, data.z_block]), data.X)


# --------------------------------------------------------- train/test split

def test_centered_windows_center_on_train_rows_only():
    prices = gbm_prices(120, 9)
    train, test = centered_windows(to_series(prices), M=8, H=2, n_test=30, n_windows=100)
    assert train.n_samples == 70 and test.n_samples == 30
    # training columns are exactly centered; test columns generally are not
    assert_allclose(train.X.mean(axis=0), 0.0, atol=1e-12)
    assert np.max(np.abs(test.X.mean(axis=0))) > 1e-8
    # both halves carry the same (train-derived) centering vector
    assert_allclose(train.mean, test.mean)
    # undoing the centering recovers the original ratio rows exactly
    last = prices[99:109]
    assert_allclose(test.X[-1] + test.mean, np.delete(last / last[7], 7), rtol=1e-12)


def test_centered_windows_rejects_degenerate_test_sizes():
    series = to_series(gbm_prices(30, 1))  # 25 windows of 6 days
    with pytest.raises(ValueError):
        centered_windows(series, M=4, H=2, n_test=-1)
    for n_test in (24, 25):  # one, then no row would remain for training
        with pytest.raises(InsufficientDataError):
            centered_windows(series, M=4, H=2, n_test=n_test)


# The former three-step pipeline, kept as the reference: build_hankel
# copied the windows; normalize_and_center divided, centered on every row
# and deleted the day-M column; split_train_test added the mean back and
# centered again on the training rows.

def reference_centered_block(prices, m_days, n):
    raw = windows_of(prices, n, len(prices) - n + 1)
    q = m_days - 1
    scales = raw[:, q].copy()
    normalized = raw / scales[:, None]
    mean_full = normalized.mean(axis=0)
    centered = normalized - mean_full
    return np.delete(centered, q, axis=1), np.delete(mean_full, q), scales


def reference_train_test_blocks(block, n_test):
    X, mean, scales = block
    normalized = X + mean
    n_train = X.shape[0] - n_test
    train_mean = normalized[:n_train].mean(axis=0)
    return (
        (normalized[:n_train] - train_mean, train_mean, scales[:n_train]),
        (normalized[n_train:] - train_mean, train_mean, scales[n_train:]),
    )


@given(
    kind=st.sampled_from(["gbm", "smooth"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_prices=st.integers(min_value=40, max_value=400),
    volatility=st.sampled_from([1.0, 4.0]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_direct_centering_matches_the_round_trip(kind, seed, n_prices, volatility, data):
    """A forecast's blocks are the three-step pipeline's bits.  A sweep's
    training, test, sub-train and validation blocks are too wherever its
    round trips ``(x - mean) + mean`` gave back the ratios exactly;
    elsewhere they differ by the round trips' rounding, within 4 ulp of the
    column's largest ratio, and the direct blocks are the ones without it."""
    if kind == "gbm":
        prices = gbm_prices(n_prices, seed, sigma=0.015 * volatility)
    else:
        prices = smooth_prices(n_prices, seed, sigma=0.004 * volatility)
    m_days = data.draw(st.integers(min_value=2, max_value=n_prices // 4))
    horizon = data.draw(st.integers(min_value=1, max_value=12))
    n = m_days + horizon
    k = n_prices - n + 1
    n_test = data.draw(st.integers(min_value=1, max_value=k - 3))
    series = to_series(prices)

    full = reference_centered_block(prices, m_days, n)
    forecast, _ = centered_windows(series, m_days, horizon)
    for got, want in zip((forecast.X, forecast.mean, forecast.scales), full):
        assert_array_equal(got, want)

    ref_train, ref_test = reference_train_test_blocks(full, n_test)
    ref_sub, ref_val = reference_train_test_blocks(ref_train, max(1, ref_train[0].shape[0] // 5))
    train, test = centered_windows(series, m_days, horizon, n_test)
    sub, val = centered_windows(series, m_days, horizon, max(1, train.n_samples // 5), k - n_test)

    ratios = np.delete(windows_of(prices, n, k), m_days - 1, axis=1)
    ratios /= prices[m_days - 1 : m_days - 1 + k, None]
    exact = np.array_equal(full[0] + full[1], ratios) and np.array_equal(
        ref_train[0] + ref_train[1], ratios[: k - n_test]
    )
    ulp = 4 * np.finfo(float).eps * np.abs(ratios).max(axis=0)
    for block, (X, mean, scales) in zip(
        (train, test, sub, val), (ref_train, ref_test, ref_sub, ref_val)
    ):
        assert_array_equal(block.scales, scales)
        if exact:
            assert_array_equal(block.X, X)
            assert_array_equal(block.mean, mean)
        else:
            assert np.all(np.abs(block.X - X) <= ulp)
            assert np.all(np.abs(block.mean - mean) <= ulp)


# ------------------------------------------------------------- round trips

@given(
    n_prices=st.integers(min_value=25, max_value=60),
    m_days=st.integers(min_value=3, max_value=8),
    horizon=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_normalize_denormalize_round_trip(n_prices, m_days, horizon, seed):
    """The inverse transform must reproduce held-out prices exactly when
    handed the true centered future block."""
    n = m_days + horizon
    prices = gbm_prices(n_prices, seed)
    k = n_prices - n + 1
    raw = windows_of(prices, n, k)
    data, _ = centered_windows(to_series(prices), m_days, horizon)
    for i in (0, k // 2, k - 1):
        recovered = denormalize_forecast(
            data.z_block[i], data.mean, float(data.scales[i])
        )
        assert_allclose(recovered, raw[i, m_days:], rtol=1e-10)


def test_denormalize_matches_hand_computation():
    zhat = np.array([0.01, -0.02])
    mean = np.array([1.0, 1.01, 0.99, 1.02])
    out = denormalize_forecast(zhat, mean, 50.0)
    assert_allclose(out, (zhat + mean[-2:]) * 50.0)
    # zero forecast just rescales the mean path
    assert_allclose(
        denormalize_forecast([0.0, 0.0], [1.01, 1.02], 100.0), [101.0, 102.0]
    )
    assert_allclose(
        denormalize_forecast([0.01, -0.02], [1.0, 1.0], 10.0), [10.1, 9.8]
    )
    # a longer mean vector contributes only its trailing entries
    assert_allclose(denormalize_forecast([0.5], [1.0, 2.0, 3.0], 2.0), [7.0])
    # a (K, h) block takes one scale per row
    assert_allclose(
        denormalize_forecast([[0.5], [1.0]], [1.0, 2.0], [2.0, 3.0]), [[5.0], [9.0]]
    )
