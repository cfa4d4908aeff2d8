"""Ingestion, window construction, and the normalize/center/invert cycle."""

import math
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from subspace_forecast import (
    DomainError,
    InsufficientDataError,
    ParseError,
    PriceSeries,
    WindowConfig,
    build_hankel,
    denormalize_forecast,
    load_csv,
    normalize_and_center,
    split_train_test,
)

from conftest import gbm_prices, to_series, write_price_csv


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
    """The message ``date.fromisoformat`` gives for ``token``."""
    from datetime import date

    with pytest.raises(ValueError) as info:
        date.fromisoformat(token)
    return str(info.value)


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
    """The line-by-line reader that the column parser replaced, kept verbatim."""
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
    "2001-02-30,x", "2001-01-02,abc", "2001-01-02,", "2001-01-02,-1", "2001-01-02,0",
    "2001-01-02,nan", "2001-01-02,-inf", "2001-01-02,1e999",
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


# ------------------------------------------------------------ WindowConfig

def test_window_config_keeps_valid_geometry():
    cfg = WindowConfig(N=30, M=20)
    assert (cfg.N, cfg.M) == (30, 20)


@pytest.mark.parametrize("kwargs", [
    dict(N=10, M=10),          # M must be < N
    dict(N=10, M=0),
])
def test_window_config_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        WindowConfig(**kwargs)


# ------------------------------------------------------------ build_hankel

def test_hankel_shape_and_shift():
    series = to_series(np.arange(1.0, 13.0))
    h = build_hankel(series, N=5, K=8)
    assert h.shape == (8, 5)
    assert_allclose(h[0], [1, 2, 3, 4, 5])
    assert_allclose(h[1], [2, 3, 4, 5, 6])


def test_hankel_tiny_cases():
    three = build_hankel(to_series([1.0, 2.0, 3.0, 4.0, 5.0]), N=3, K=3)
    assert_allclose(three, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    lone = build_hankel(to_series([7.0]), N=1, K=1)
    assert_allclose(lone, [[7.0]])


def test_hankel_insufficient_data():
    series = to_series(np.arange(1.0, 7.0))
    with pytest.raises(InsufficientDataError, match="needs 10 prices"):
        build_hankel(series, N=5, K=6)
    with pytest.raises(InsufficientDataError, match="needs 4 prices"):
        build_hankel(to_series([1.0, 2.0, 3.0]), N=3, K=2)
    with pytest.raises(ValueError):
        build_hankel(series, N=0, K=1)


@given(
    n_prices=st.integers(min_value=6, max_value=40),
    n_cols=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_hankel_anti_diagonal_property(n_prices, n_cols, seed):
    # every anti-diagonal of a Hankel matrix is constant: entry (i, j)
    # depends only on i + j
    prices = gbm_prices(n_prices, seed)
    k = n_prices - n_cols + 1
    h = build_hankel(to_series(prices), N=n_cols, K=k)
    for i in range(k):
        for j in range(n_cols):
            assert h[i, j] == prices[i + j]


# --------------------------------------------------- normalize_and_center

def test_normalize_drops_day_q_column_and_centers():
    cfg = WindowConfig(N=4, M=3)  # day 3, column index 2, scales and is dropped
    raw = np.array([[1.0, 2.0, 4.0, 8.0],
                    [2.0, 4.0, 8.0, 16.0],
                    [1.0, 3.0, 2.0, 4.0]])
    data = normalize_and_center(raw, cfg)
    assert data.X.shape == (3, 3)
    assert_allclose(data.scales, [4.0, 8.0, 2.0])
    assert_allclose(data.X.mean(axis=0), 0.0, atol=1e-15)
    # columns of X are price/day-M-price, centered, with day M left out
    ratios = raw / raw[:, 2:3]
    assert_allclose(data.X, np.delete(ratios - ratios.mean(axis=0), 2, axis=1))


def test_normalize_single_window_arithmetic():
    # One row: the row mean IS the column mean, so X is exactly zero and
    # the stored mean holds the scaled ratios of the retained columns.
    data = normalize_and_center(np.array([[2.0, 4.0, 8.0]]), WindowConfig(N=3, M=2))
    assert_allclose(data.scales, [4.0])
    assert_allclose(data.mean, [0.5, 2.0])
    assert_allclose(data.X, [[0.0, 0.0]])


def test_normalize_two_window_arithmetic():
    cfg = WindowConfig(N=2, M=1)  # M = 1: the first column scales and is dropped
    proportional = normalize_and_center(np.array([[1.0, 2.0], [3.0, 6.0]]), cfg)
    assert_allclose(proportional.scales, [1.0, 3.0])
    assert_allclose(proportional.mean, [2.0])
    assert_allclose(proportional.X, [[0.0], [0.0]])

    spread = normalize_and_center(np.array([[1.0, 2.0], [1.0, 4.0]]), cfg)
    assert_allclose(spread.mean, [3.0])
    assert_allclose(spread.X, [[-1.0], [1.0]])


def test_normalize_rejects_bad_shapes_and_values():
    cfg = WindowConfig(N=4, M=3)
    with pytest.raises(ValueError):
        normalize_and_center(np.ones((3, 5)), cfg)
    with pytest.raises(DomainError):
        normalize_and_center(np.array([[1.0, 2.0, -3.0, 4.0]]), cfg)


def test_block_views_split_observation_and_future():
    cfg = WindowConfig(N=6, M=4)  # day 4 dropped -> 5 columns, split at M-1=3
    raw = np.abs(gbm_prices(20, 3))
    data = normalize_and_center(build_hankel(to_series(raw), 6, 15), cfg)
    assert data.split_m == 3
    assert data.y_block.shape == (15, 3)
    assert data.z_block.shape == (15, 2)
    assert_allclose(np.hstack([data.y_block, data.z_block]), data.X)


# --------------------------------------------------------- train/test split

def test_split_recenters_on_train_only():
    cfg = WindowConfig(N=10, M=8)
    raw = build_hankel(to_series(gbm_prices(120, 9)), 10, 100)
    data = normalize_and_center(raw, cfg)
    train, test = split_train_test(data, 30)
    assert train.n_samples == 70 and test.n_samples == 30
    # training columns are exactly centered; test columns generally are not
    assert_allclose(train.X.mean(axis=0), 0.0, atol=1e-12)
    assert np.max(np.abs(test.X.mean(axis=0))) > 1e-8
    # both halves carry the same (train-derived) centering vector
    assert_allclose(train.mean, test.mean)
    # undoing the centering recovers the original ratio rows exactly
    orig_ratio = raw[-1] / raw[-1, cfg.M - 1]
    assert_allclose(
        test.X[-1] + test.mean, np.delete(orig_ratio, cfg.M - 1), rtol=1e-12
    )


def test_split_rejects_degenerate_sizes():
    cfg = WindowConfig(N=6, M=4)
    data = normalize_and_center(build_hankel(to_series(gbm_prices(30, 1)), 6, 25), cfg)
    with pytest.raises(ValueError):
        split_train_test(data, 0)
    with pytest.raises(ValueError):
        split_train_test(data, 25)  # no rows would remain for training


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
    cfg = WindowConfig(N=n, M=m_days)
    k = n_prices - n + 1
    raw = build_hankel(to_series(prices), n, k)
    data = normalize_and_center(raw, cfg)
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
