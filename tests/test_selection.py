"""Subspace-size selection computes only the values it compares.

``select_L`` picks the best feasible score, ties to the smaller ``L``.
Given scores (the validation sweep's held-out MSE of every size, one
rank-one scan per model), it walks the sizes in ``(score, L)`` order and
returns the first whose ``cond_ww`` meets the cap.  Without scores (a
forecast and the theoretical sweep) the score is the closed-form MSE, which
``mse_rd(L - 1) - mse_rd(L) = |W row L|^2`` orders exactly: it walks down
from the largest size, skipping the sizes whose ``cond_ww`` lower bound
rules them out, returns the first feasible one stepped down across exact
ties, and fits and scores nothing.  These tests hold both rules to a
brute-force reference that never calls ``select_L``, hold selection without
a curve to selection from the full curve, decide a case where float64 ties
by 50-digit values, count the work a forecast and a sweep do, and check the
invariant that makes the theoretical objective well posed: ``mse_rd`` does
not grow with ``L``.
"""

import functools
import math
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_forecast import (
    OBJECTIVE_THEORETICAL,
    OBJECTIVE_VALIDATION,
    CovarianceModel,
    NoFeasibleSubspaceError,
    SubspaceLadder,
    SweepConfig,
    build_l_curve,
    centered_windows,
    cli,
    emit_report,
    empirical_covariance,
    empirical_mse,
    metrics,
    run_backtest,
    select_L,
    validation_scores,
)
from subspace_forecast.backtest import BOUND_MARGIN

from conftest import gbm_prices, smooth_prices, to_series, write_price_csv
from test_backtest import dyadic_model
from test_estimators import random_model, seeds
from test_metrics import mp_gb_mse
from test_subspace_ladder import mp_reference, validation_rows

GENERATORS = {"gbm": gbm_prices, "smooth": smooth_prices}
SWEEP_M = (20, 50, 80, 110, 140, 170, 200)


def sweep_split(series, m_days, n_test):
    """The full-train model, the sub-train model and the validation rows of
    a validation sweep's ``M = m_days`` cell on ``series``."""
    train, _ = centered_windows(series, m_days, 10, n_test)
    n_train = train.n_samples
    sub_train, val = centered_windows(series, m_days, 10, max(1, n_train // 5), n_train)
    return (
        empirical_covariance(train),
        empirical_covariance(sub_train),
        val.y_block,
        val.z_block,
    )


@functools.lru_cache(maxsize=None)
def sweep_cell(kind, m_days):
    """:func:`sweep_split` of the sweep's ``M = m_days`` cell on
    ``<kind>_prices(5000, 1000)``."""
    return sweep_split(to_series(GENERATORS[kind](5000, 1000)), m_days, 2200)


def selection_case(name, request):
    """``(model, val_y, val_z)`` of a named case."""
    kind, _, arg = name.partition(":")
    if kind == "random":
        seed = int(arg)
        val_y, val_z = validation_rows(random_model(12, 8, seed + 100), 60, seed)
        return random_model(12, 8, seed), val_y, val_z
    if kind == "dyadic":
        model = dyadic_model(int(arg))
        return (model, *validation_rows(model, 80, int(arg)))
    if kind == "pinned":
        model = request.getfixturevalue("pinned_model")
        return (model, *validation_rows(model, 80, 0))
    # a price fixture: the sub-train model with its validation rows, as the
    # validation sweep selects; the full-train model is checked as well below
    _, sub_model, val_y, val_z = sweep_cell(kind, int(arg))
    return sub_model, val_y, val_z


def outcome(ladder, cap, scores):
    try:
        return select_L(ladder, cap, scores)
    except NoFeasibleSubspaceError as exc:
        return str(exc), exc.min_condition_number


def check_selection_without_curve(model, val_y, val_z):
    reference = SubspaceLadder(model)
    curve = build_l_curve(reference)
    # every distinct feasibility set: each finite cond_ww as the cap (the
    # bound is inclusive), the sweep's caps and one below every size
    caps = sorted({p.cond_ww for p in curve if np.isfinite(p.cond_ww)} | {0.5, 1e3, 1e4})
    theory = [p.mse_rd for p in curve]
    held_out = validation_scores(reference, val_y, val_z)
    # the pick without scores against the curve's mse_rd, and held-out MSE
    # on a ladder without a curve against the ladder with one; each ladder
    # serves every cap
    ladder, val_ladder = SubspaceLadder(model), SubspaceLadder(model)
    val_scores = validation_scores(val_ladder, val_y, val_z)
    for cap in caps:
        assert outcome(ladder, cap, None) == outcome(reference, cap, theory), cap
        assert outcome(val_ladder, cap, val_scores) == outcome(reference, cap, held_out), cap


@pytest.mark.parametrize(
    "name",
    [*(f"random:{s}" for s in range(8)), "dyadic:0", "dyadic:1", "dyadic:4", "pinned",
     "gbm:20", "gbm:80", "smooth:20", "smooth:80"],
)
def test_selection_without_a_curve_equals_selection_from_the_full_curve(name, request):
    check_selection_without_curve(*selection_case(name, request))


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_selection_without_a_curve_on_the_full_train_price_model(kind):
    model, _, val_y, val_z = sweep_cell(kind, 80)
    check_selection_without_curve(model, val_y, val_z)


def reference_pick(conds, scores, cap):
    """Selection by brute force: the best of ``scores`` (size to score) over
    the sizes whose ``cond_ww`` meets the cap, ties to the smaller size; for
    a cap no size meets, the error message and minimum ``select_L`` must
    report."""
    feasible = [L for L, cond in enumerate(conds, start=1) if cond <= cap]
    if not feasible:
        min_cond = min(conds)
        return (
            f"no subspace size in [1, {len(conds)}] keeps cond(sigma_ww) <= {cap:g}; "
            f"minimum achievable is {min_cond:g}",
            min_cond,
        )
    return min(feasible, key=lambda L: (scores[L], L))


def check_against_reference(model, score, ladder_scores, rtol=0.0):
    """``select_L(ladder, cap, ladder_scores(ladder))`` against
    :func:`reference_pick` on every distinct cap, the reference built from a
    separate ladder's ``cond_ww`` of every size and ``score`` of each
    feasible size's own fit.  Sizes whose reference scores differ by no more
    than ``rtol`` relative are the same pick.
    """
    reference = SubspaceLadder(model)
    conds = [reference.cond_ww(L) for L in range(1, model.m + 1)]
    scores = {
        L: score(reference.fit(L)) for L, cond in enumerate(conds, start=1) if np.isfinite(cond)
    }
    ladder = SubspaceLadder(model)  # one ladder serves every cap
    given = ladder_scores(ladder)
    for cap in sorted({c for c in conds if np.isfinite(c)} | {0.5, 1e3, 1e4}):
        want = reference_pick(conds, scores, cap)
        try:
            got = select_L(ladder, cap, given)
        except NoFeasibleSubspaceError as exc:
            assert (str(exc), exc.min_condition_number) == want, cap
            continue
        assert got == want or abs(scores[got] - scores[want]) <= rtol * scores[want], cap
        assert ladder.cond_ww(got) == conds[got - 1] <= cap


def check_theoretical_against_reference(model):
    """The pick without scores and the pick from the L-curve's ``mse_rd``,
    each against the reference."""
    mse = functools.partial(metrics.theoretical_mse, model)
    check_against_reference(model, mse, lambda ladder: None)
    check_against_reference(model, mse, lambda ladder: [p.mse_rd for p in build_l_curve(ladder)])


def check_validation_against_reference(model, val_y, val_z):
    """The rank-one scan's held-out MSE against the reference's refits; the
    two agree to rounding."""
    check_against_reference(
        model,
        lambda est: float(empirical_mse(val_y @ est.coeff.T, val_z).sum()),
        lambda ladder: validation_scores(ladder, val_y, val_z),
        rtol=1e-12,
    )


REFERENCE_FIXTURES = [
    "dyadic:0", "dyadic:1", "dyadic:4", "pinned",
    *(f"{kind}:{m}" for kind in sorted(GENERATORS) for m in (20, 80, 140)),
]


@given(seed=seeds, dim=st.integers(3, 16), data=st.data())
@settings(max_examples=50, deadline=None)
def test_theoretical_selection_matches_a_brute_force_reference(seed, dim, data):
    m = data.draw(st.integers(1, dim - 1))
    check_theoretical_against_reference(random_model(dim, m, seed))


@pytest.mark.parametrize("name", REFERENCE_FIXTURES)
def test_theoretical_selection_matches_a_brute_force_reference_on_fixtures(name, request):
    kind, _, arg = name.partition(":")
    if kind in GENERATORS:  # the theoretical sweep selects on the full-train model
        check_theoretical_against_reference(sweep_cell(kind, int(arg))[0])
    else:
        check_theoretical_against_reference(selection_case(name, request)[0])


@given(seed=seeds, dim=st.integers(3, 16), data=st.data())
@settings(max_examples=50, deadline=None)
def test_validation_selection_matches_a_brute_force_reference(seed, dim, data):
    m = data.draw(st.integers(1, dim - 1))
    val_y, val_z = validation_rows(random_model(dim, m, seed + 1), 40, seed)
    check_validation_against_reference(random_model(dim, m, seed), val_y, val_z)


@pytest.mark.parametrize("name", REFERENCE_FIXTURES)
def test_validation_selection_matches_a_brute_force_reference_on_fixtures(name, request):
    check_validation_against_reference(*selection_case(name, request))


def assert_bounds_below_cond_ww(model):
    """Every entry of ``cond_ww_bounds`` is at most the SVD's ``cond_ww``."""
    ladder = SubspaceLadder(model)
    bounds = ladder.cond_ww_bounds()
    conds = np.array([ladder.cond_ww(L) for L in range(1, ladder.rank + 1)])
    assert bounds.shape == conds.shape
    over = np.flatnonzero(bounds > conds)
    assert over.size == 0, [(L + 1, bounds[L], conds[L]) for L in over]


@given(seed=seeds, dim=st.integers(3, 16), data=st.data())
@settings(max_examples=100, deadline=None)
def test_cond_ww_bounds_stay_below_cond_ww(seed, dim, data):
    m = data.draw(st.integers(1, dim - 1))
    assert_bounds_below_cond_ww(random_model(dim, m, seed))


@pytest.mark.parametrize("name", ["dyadic:0", "dyadic:1", "dyadic:4", "pinned"])
def test_cond_ww_bounds_stay_below_cond_ww_on_fixtures(name, request):
    assert_bounds_below_cond_ww(selection_case(name, request)[0])


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("m_days", [*SWEEP_M, 440])
def test_cond_ww_bounds_stay_below_cond_ww_on_price_series(kind, m_days):
    assert_bounds_below_cond_ww(sweep_cell(kind, m_days)[0])


def test_a_size_whose_exact_cond_ww_sits_at_the_cap_is_selected():
    # on the basis V = I with sigma_yy = diag(4^-i), Y_L = diag(2^i) up to
    # signs, so cond_ww(L) = 4^(L - 1) in float64 and at 50 digits alike;
    # every size lowers mse_rd by 1/8, so the pick is the largest size under
    # the cap, and under the cap 4^3 that is L = 4, exactly at the cap
    m, h = 6, 2
    sigma = np.eye(m + h)
    sigma[:m, :m] = np.diag(4.0 ** -np.arange(m))
    sigma[:m, m:] = 0.25 * 2.0 ** -np.arange(m)[:, None]
    sigma[m:, :m] = sigma[:m, m:].T
    model = CovarianceModel(sigma_xx=sigma, m=m, V=np.eye(m + h))
    cap = float(mp_reference(model, 4)[1])
    assert cap == 64.0
    ladder = SubspaceLadder(model)
    assert [ladder.cond_ww(L) for L in range(1, m + 1)] == [4.0**i for i in range(m)]
    assert cap / BOUND_MARGIN < ladder.cond_ww_bounds()[3] <= cap
    assert select_L(ladder, cap) == 4
    assert select_L(SubspaceLadder(model), float(np.nextafter(cap, 0))) == 3


def test_score_tie_with_an_infeasible_smaller_size_picks_the_larger():
    # cond_ww of this model is not monotone in L: size 4 is above 7, size 5
    # below it, so under cap 7 the tie at the best score goes to size 5,
    # whatever the scores measure
    ladder = SubspaceLadder(random_model(8, 5, 11))
    conds = [ladder.cond_ww(L) for L in range(1, 6)]
    assert conds[3] > 7 >= conds[4] and max(conds[:3]) <= 7
    scores = [4.0, 3.0, 2.0, 1.0, 1.0]
    assert select_L(ladder, 7, scores) == 5
    for cap in sorted(set(conds) | {0.5}):
        assert outcome(ladder, cap, scores) == reference_pick(
            conds, dict(enumerate(scores, start=1)), cap
        ), cap


def with_cross_block(model, sigma_yz):
    """``model`` with ``sigma_yz`` (and ``sigma_zy``) replaced and its
    eigenvectors kept, so the ladder's basis and ``cond_ww`` stay the same."""
    sigma = model.sigma_xx.copy()
    sigma[: model.m, model.m :] = sigma_yz
    sigma[model.m :, : model.m] = sigma_yz.T
    return CovarianceModel(sigma_xx=sigma, m=model.m, V=model.V)


def test_exact_ties_step_down_past_an_infeasible_size():
    # sigma_yz = 0 makes W exactly zero, so every size ties exactly; size 4
    # breaks cap 7 between feasible sizes, and the pick is the smallest
    # feasible tie, not the largest feasible size
    model = with_cross_block(random_model(8, 5, 11), np.zeros((5, 3)))
    ladder = SubspaceLadder(model)
    conds = [ladder.cond_ww(L) for L in range(1, 6)]
    assert conds == pytest.approx([1, 1.16, 5.22, 8.36, 6.41], abs=5e-3)
    assert ladder.smallest_tie(5) == 1
    assert select_L(ladder, 7) == 1
    for cap in sorted(set(conds) | {0.5}):
        assert outcome(SubspaceLadder(model), cap, None) == reference_pick(
            conds, dict.fromkeys(range(1, 6), 0.0), cap
        ), cap


def test_a_gain_below_float_resolution_is_decided_by_the_exact_rule():
    # sigma_yz = 1e-10 q_5 1' with q_5 orthogonal to the first four basis
    # columns: only W row 5 is above rounding, so float64 mse_rd ties at
    # sizes 1-5 and (score, L) order picks 1, while at 50 digits size 5 is
    # strictly best, and that is the pick without scores
    base = random_model(8, 5, 11)
    q_5 = np.linalg.qr(base.V[:5, :5])[0][:, 4]
    model = with_cross_block(base, 1e-10 * np.outer(q_5, np.ones(3)))
    ladder = SubspaceLadder(model)
    curve = build_l_curve(ladder)
    assert len({p.mse_rd for p in curve}) == 1
    assert select_L(ladder, 10, [p.mse_rd for p in curve]) == 1
    assert select_L(SubspaceLadder(model), 10) == 5
    best = mp_reference(model, 5)[0]
    assert all(best < mp_reference(model, L)[0] for L in range(1, 5))


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("m_days", [20, 200])
def test_no_feasible_size_reports_the_brute_force_minimum(kind, m_days):
    model = sweep_cell(kind, m_days)[0]
    curve = build_l_curve(SubspaceLadder(model))  # every size's cond_ww, no bounds
    conds = [p.cond_ww for p in curve]
    curve_ladder = SubspaceLadder(model)  # one ladder serves every cap
    for cap in (-1.0, 0.0, 0.5, float(np.nextafter(min(conds), 0))):
        want = reference_pick(conds, {}, cap)
        for ladder, scores in (
            (SubspaceLadder(model), None),
            (curve_ladder, [p.mse_rd for p in curve]),
        ):
            with pytest.raises(NoFeasibleSubspaceError) as info:
                select_L(ladder, cap, scores)
            assert (str(info.value), info.value.min_condition_number) == want, (cap, scores)
            if scores is None:  # the bounds stop the search for the minimum early
                assert len(ladder._cond_ww) < ladder.rank


@pytest.fixture
def work(monkeypatch):
    """Record every fit, every ``cond_ww`` SVD, every validation scan and
    every closed-form MSE, with the ladder (or model) each ran on.

    Fits are counted on ``SubspaceLadder.fit``.  ``SubspaceLadder.cond_ww``
    keeps each size's value on the ladder and runs the SVD through
    ``_svd_cond_ww`` only on the first call for a size, so that is where the
    SVDs are counted.
    """
    calls = {"fit": [], "svd": [], "scan": [], "mse": []}

    def counted(key, original, record):
        def wrapper(*args):
            calls[key].append(record(*args))
            return original(*args)

        return wrapper

    ladder_and_size = lambda ladder, L: (ladder, L)  # noqa: E731
    monkeypatch.setattr(
        SubspaceLadder, "fit", counted("fit", SubspaceLadder.fit, ladder_and_size)
    )
    monkeypatch.setattr(
        SubspaceLadder,
        "_svd_cond_ww",
        counted("svd", SubspaceLadder._svd_cond_ww, ladder_and_size),
    )
    monkeypatch.setattr(
        SubspaceLadder,
        "forecasts",
        counted("scan", SubspaceLadder.forecasts, lambda ladder, y: ladder),
    )
    monkeypatch.setattr(
        metrics,
        "theoretical_mse",
        counted("mse", metrics.theoretical_mse, lambda model, est: (model, est.method)),
    )
    monkeypatch.setenv("SUBSPACE_FORECAST_LOG", "quiet")
    return calls


def assert_one_svd_per_size(calls):
    assert len(calls["svd"]) == len(set(calls["svd"])), "a size's SVD ran twice"


def forecast_work(work, csv, m_days, cap):
    """Run ``forecast --m m_days --cap cap`` on ``csv`` and check its work:
    only the chosen size is fitted, once, no closed-form MSE is computed,
    and the SVDs are the sizes whose bound does not rule them out, in
    descending ``L`` down to the chosen size.  Returns the ladder, the
    candidates and the SVD'd sizes."""
    assert cli.main(["forecast", "--csv", csv, "--m", str(m_days), "--cap", str(cap)]) == 0
    ((ladder, chosen),) = work["fit"]
    assert work["mse"] == []
    assert_one_svd_per_size(work)
    assert {lad for lad, _ in work["svd"]} == {ladder}
    svds = [L for _, L in work["svd"]]
    bounds = ladder.cond_ww_bounds()
    candidates = [L for L in range(ladder.rank, 0, -1) if bounds[L - 1] <= BOUND_MARGIN * cap]
    assert svds == candidates[: candidates.index(chosen) + 1]
    return ladder, candidates, svds


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("m_days", [20, 60])
def test_forecast_fits_and_svds_no_pruned_size(kind, m_days, work, tmp_path, capsys):
    cap = 1e4
    csv = write_price_csv(tmp_path / "p.csv", GENERATORS[kind](3000, 7))
    ladder, candidates, svds = forecast_work(work, csv, m_days, cap)
    assert len(candidates) < ladder.rank  # the bounds prune, so skipping them shows
    # every pruned size is over the cap, and the pick is the brute-force one
    conds = [ladder.cond_ww(L) for L in range(1, ladder.model.m + 1)]
    assert all(conds[L - 1] > cap for L in range(1, ladder.rank + 1) if L not in candidates)
    mse = {L: metrics.theoretical_mse(ladder.model, ladder.fit(L))
           for L in range(1, ladder.rank + 1) if conds[L - 1] <= cap}
    assert svds[-1] == reference_pick(conds, mse, cap)
    assert f"L: {svds[-1]}" in capsys.readouterr().out


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_wide_forecast_runs_few_svds(kind, work, tmp_path):
    # M = 440 on a 5000-day series: one SVD per size would be 439
    csv = write_price_csv(tmp_path / "p.csv", GENERATORS[kind](5000, 1000))
    ladder, candidates, svds = forecast_work(work, csv, 440, 1e4)
    assert ladder.rank == 439
    assert len(svds) <= 40 and len(candidates) < 100, (len(svds), len(candidates))


def test_forecast_with_a_pinned_size_runs_one_svd(work, tmp_path, capsys):
    csv = write_price_csv(tmp_path / "p.csv", smooth_prices(3000, 7))
    assert cli.main(["forecast", "--csv", csv, "--m", "60", "--l", "12"]) == 0
    (ladder,) = {ladder for ladder, _ in work["fit"]}
    assert work["svd"] == [(ladder, 12)]
    assert work["fit"] == [(ladder, 12)]
    assert work["mse"] == [] and work["scan"] == []
    assert "L: 12" in capsys.readouterr().out


def validation_sweep_work(kind, work):
    """Run a two-M, two-cap validation sweep on ``<kind>_prices(1500, 3)``
    and check its work and picks; returns ``{m: (SVDs, rank)}`` per sub-train
    ladder and the number of picks that fell back to the full-train curve."""
    sweep = SweepConfig(
        m_values=(20, 40), condition_caps=(1e3, 1e4), n_test=600, objective=OBJECTIVE_VALIDATION
    )
    series = to_series(GENERATORS[kind](1500, 3))
    report = run_backtest(series, sweep)
    assert all(not cell.skipped for cell in report.cells)
    scans, svds = list(work["scan"]), list(work["svd"])
    sub_ladders = set(scans)
    assert len(sub_ladders) == len(scans) == 2  # one scan per M, whatever the caps
    sub_models = [ladder.model for ladder in sub_ladders]
    assert not any(model is sub for model, _ in work["mse"] for sub in sub_models)
    assert not any(ladder in sub_ladders for ladder, _ in work["fit"])
    assert_one_svd_per_size(work)
    walked, fallbacks = {}, 0
    for ladder in {ladder for ladder, _ in svds}:
        sizes = sorted(L for lad, L in svds if lad is ladder)
        if ladder not in sub_ladders:
            assert sizes == list(range(1, ladder.rank + 1))  # the full-train curve
            continue
        # a sub-train ladder: the sizes in (score, L) order up to the first
        # one each cap admits, the smallest cap walking furthest
        _, _, val_y, val_z = sweep_split(series, ladder.model.m + 1, sweep.n_test)
        scores = validation_scores(ladder, val_y, val_z)
        order = sorted(range(1, ladder.rank + 1), key=lambda L: (scores[L - 1], L))
        cap = min(sweep.condition_caps)
        stop = next(i for i, L in enumerate(order) if ladder.cond_ww(L) <= cap)
        assert sizes == sorted(order[: stop + 1])
        walked[ladder.model.m] = (len(sizes), ladder.rank)
        # every cap's pick by brute force: the best feasible score on the
        # sub-train model, or the full-train curve's best where that size
        # breaks the cap on the full-train model
        curve = report.l_curves[ladder.model.m + 1]
        conds = [ladder.cond_ww(L) for L in range(1, ladder.model.m + 1)]
        for cell in (c for c in report.cells if c.M == ladder.model.m + 1):
            pick = reference_pick(conds, dict(enumerate(scores, start=1)), cell.cap)
            if curve[pick - 1].cond_ww > cell.cap:
                fallbacks += 1
                pick = reference_pick(
                    [p.cond_ww for p in curve], {p.L: p.mse_rd for p in curve}, cell.cap
                )
            assert cell.best_L == pick, (cell.M, cell.cap)
    assert len(walked) == 2
    return walked, fallbacks


def test_validation_sweep_scores_no_size_on_a_sub_train_ladder(work):
    _, fallbacks = validation_sweep_work("smooth", work)
    assert fallbacks > 0  # so the fallback's pick is checked too


def test_validation_sweep_walks_fewer_sub_train_sizes_than_the_rank(work):
    walked, _ = validation_sweep_work("gbm", work)
    assert all(n_svd < rank for n_svd, rank in walked.values()), walked


def test_validation_fallback_picks_from_the_full_train_curve():
    # the sub-train validation pick (8) breaks the cap on the full-train
    # model, so the cell falls back to the full-train curve's mse_rd, which
    # picks 7; the sub-train scores under the full-train cond_ww would pick 5
    cap = 1e4
    sweep = SweepConfig(
        m_values=(30,), condition_caps=(cap,), n_test=500, objective=OBJECTIVE_VALIDATION
    )
    series = to_series(smooth_prices(1500, 8))
    model, sub_model, val_y, val_z = sweep_split(series, 30, sweep.n_test)
    ladder, sub_ladder = SubspaceLadder(model), SubspaceLadder(sub_model)
    scores = validation_scores(sub_ladder, val_y, val_z)
    assert ladder.cond_ww(select_L(sub_ladder, cap, scores)) > cap
    assert select_L(ladder, cap, scores) == 5
    (cell,) = run_backtest(series, sweep).cells
    assert cell.best_L == 7


def test_theoretical_sweep_reads_the_curve_without_refitting(work):
    sweep = SweepConfig(m_values=(20,), condition_caps=(1e3, 1e4), n_test=600)
    report = run_backtest(to_series(smooth_prices(1500, 3)), sweep)
    (ladder,) = {ladder for ladder, _ in work["fit"]}
    chosen = [cell.best_L for cell in report.cells]
    # the curve fits every size once, then each cap fits its chosen size
    assert [L for _, L in work["fit"]] == [*range(1, ladder.rank + 1), *chosen]
    assert_one_svd_per_size(work)
    # one closed-form MSE per curve point, then one per scored method: unc
    # and gb once per M, rd once per cap
    model = ladder.model
    assert len(work["mse"]) == ladder.rank + 4
    assert work["mse"] == [(model, "rd")] * ladder.rank + [
        (model, "unc"), (model, "gb"), (model, "rd"), (model, "rd")
    ]


def assert_mse_rd_nonincreasing(curve):
    """``mse_rd(L + 1) <= mse_rd(L)`` up to four units in the last place."""
    mse = np.array([p.mse_rd for p in curve])
    mse = mse[np.isfinite(mse)]
    rise = np.diff(mse) / np.spacing(mse[:-1])
    assert rise.size == 0 or rise.max() <= 4, rise.max()


@given(seed=seeds, dim=st.integers(3, 16), data=st.data())
@settings(max_examples=100, deadline=None)
def test_mse_rd_does_not_grow_with_the_subspace(seed, dim, data):
    m = data.draw(st.integers(1, dim - 1))
    assert_mse_rd_nonincreasing(build_l_curve(SubspaceLadder(random_model(dim, m, seed))))


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("m_days", SWEEP_M)
def test_mse_rd_does_not_grow_with_the_subspace_on_price_series(kind, m_days):
    model = sweep_cell(kind, m_days)[0]
    assert_mse_rd_nonincreasing(build_l_curve(SubspaceLadder(model)))


# ------------------------------------------- per-cell invariants, drawn series

@st.composite
def drawn_sweeps(draw):
    """A short drawn price series and a one-``M`` sweep over it; half the
    splits leave 1, 2 or 3 training windows, the skip boundaries of the
    two objectives."""
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    seed = draw(st.integers(0, 2**32 - 1))
    days = draw(st.integers(300, 1500))
    m_days = draw(st.integers(2, 30))
    horizon = draw(st.integers(1, 10))
    k = days - m_days - horizon + 1
    n_test = draw(st.integers(1, k - 4) | st.sampled_from([k - 3, k - 2, k - 1]))
    objective = draw(st.sampled_from([OBJECTIVE_THEORETICAL, OBJECTIVE_VALIDATION]))
    sweep = SweepConfig(m_values=(m_days,), horizon=horizon, n_test=n_test, objective=objective)
    return GENERATORS[kind](days, seed), sweep


def mp_le(a, b):
    """``a <= b`` for 50-digit values, equality within their own rounding."""
    return a <= b or mpmath.almosteq(a, b, 1e-40)


def summary_bytes(report):
    with tempfile.TemporaryDirectory() as out:
        emit_report(report, out)
        return (Path(out) / "summary.json").read_bytes()


@given(case=drawn_sweeps())
@settings(max_examples=30, deadline=None)
def test_every_cell_of_a_drawn_sweep_keeps_the_invariants(case):
    """cond_ww within the cap, gb <= rd <= unc in closed form, rd at L = m
    equal to gb and mse_rd not growing with L, on every cell.  gb is
    reported exactly where ``cond_yy`` is finite, and the curve is held to
    them at every size with a finite ``mse_rd``: every size below the
    number of training rows that the ladder can fit.
    A comparison float64 fails is decided by the 50-digit values of the
    float64 model."""
    prices, sweep = case
    series = to_series(prices)
    (m_days,) = sweep.m_values
    report = run_backtest(series, sweep)
    assert summary_bytes(report) == summary_bytes(run_backtest(series, sweep))

    n_train = len(series) - m_days - sweep.horizon + 1 - sweep.n_test
    for cell in report.cells:
        if n_train < 2:
            assert cell.reason.startswith("needs at least")
        elif n_train < 3 and sweep.objective == OBJECTIVE_VALIDATION:
            assert cell.reason.startswith("validation split: needs at least 3 windows")
        else:
            assert not cell.skipped or cell.reason.startswith("no subspace size")
    cells = [cell for cell in report.cells if not cell.skipped]
    if not cells:
        return

    model = empirical_covariance(centered_windows(series, m_days, sweep.horizon, sweep.n_test)[0])
    mp_rd = functools.cache(lambda size: mp_reference(model, size)[0])
    mp_gb = functools.cache(lambda: mp_gb_mse(model))
    mp_unc = mpmath.fsum(np.diag(model.sigma_zz).tolist())
    curve = report.l_curves[m_days]
    for cell in cells:
        assert cell.cond_ww <= cell.cap
        unc, rd = (cell.results[k].theoretical_mse for k in ("unc", "rd"))
        assert rd <= unc or mp_le(mp_rd(cell.best_L), mp_unc)
        assert ("gb" in cell.results) == math.isfinite(cell.cond_yy)
        if "gb" in cell.results:
            gb = cell.results["gb"].theoretical_mse
            assert gb <= rd or mp_le(mp_gb(), mp_rd(cell.best_L))
            at_m = curve[-1]
            if math.isfinite(at_m.cond_ww):
                assert at_m.mse_rd == gb or mpmath.almosteq(mp_rd(model.m), mp_gb(), 1e-40)
    regular = [p for p in curve if math.isfinite(p.mse_rd)]
    for a, b in zip(regular, regular[1:]):
        rise = (b.mse_rd - a.mse_rd) / np.spacing(a.mse_rd)
        assert rise <= 4 or mp_le(mp_rd(b.L), mp_rd(a.L)), (a, b)
