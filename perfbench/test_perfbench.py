"""Self-tests of the benchmark.  Run from the checkout root with
``python3 -m pytest perfbench``."""

import copy
import json
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import Tracer

run.configure_environment()


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_toy_call_tree():
    # a [0, 10] calls b [1, 5] (which calls c [2, 3]) and then b [6, 7]
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 3, 5, 6, 7, 10]))
    c = tracer.wrap("c", lambda: None)
    calls = []

    def raw_b():
        if not calls:
            c()
        calls.append(1)

    b = tracer.wrap("b", raw_b)
    a = tracer.wrap("a", lambda: (b(), b()))
    a()
    stats = tracer.layer_stats()
    assert (stats["a"].calls, stats["a"].self_s, stats["a"].total_s) == (1, 5, 10)
    assert (stats["b"].calls, stats["b"].self_s, stats["b"].total_s) == (2, 4, 5)
    assert (stats["c"].calls, stats["c"].self_s, stats["c"].total_s) == (1, 1, 1)
    assert tracer.root_time() == 10


def test_recursive_calls_count_total_time_once():
    # f [0, 3] calls f [1, 2]
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 3]))
    depth = []

    def raw_f():
        depth.append(1)
        if len(depth) == 1:
            f()

    f = tracer.wrap("f", raw_f)
    f()
    stats = tracer.layer_stats()["f"]
    assert (stats.calls, stats.self_s, stats.total_s) == (2, 3, 3)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 4]))

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom)

    def raw_outer():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", raw_outer)()
    stats = tracer.layer_stats()
    assert (stats["outer"].self_s, stats["inner"].self_s) == (3, 1)


def test_unreadable_result_skips_the_counter_not_the_call():
    tracer = Tracer()
    f = tracer.wrap("f", lambda: 5, on_return=lambda t, result: result.cond_ww)
    assert f() == 5
    assert "f" in tracer.hook_errors and len(tracer) == 1


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def test_install_wraps_every_binding_and_reports_absent(program):
    import subspace_forecast._linalg as linalg
    import subspace_forecast.estimators as estimators

    original = linalg.spectral_condition
    tracer = Tracer()
    absent = tracer.install(
        "subspace_forecast",
        ["_linalg.spectral_condition", "_linalg.removed_function", "no_module.fn"],
    )
    try:
        assert absent == ["_linalg.removed_function", "no_module.fn"]
        assert linalg.spectral_condition is not original
        assert estimators.spectral_condition is linalg.spectral_condition
        estimators.spectral_condition(__import__("numpy").eye(2))
        assert tracer.layer_stats()["_linalg.spectral_condition"].calls == 1
    finally:
        tracer.uninstall()
    assert linalg.spectral_condition is original
    assert estimators.spectral_condition is original


class _CorruptVerify(wl.VerifyMc):
    def argv(self, i, out_dir):
        return ["verify", "--seed", "3", "--n", "10000", "--corrupt-coeff"]


def test_verify_corrupt_coeff_counts_as_failed(program, tmp_path):
    cli, _ = program
    runner = run.Runner(cli, _CorruptVerify(), tmp_path, None)
    runner.run_op()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert any("[FAIL]" in p for p in runner.problems)


def test_wrong_selected_l_counts_as_failed(program, tmp_path):
    cli, fixtures = program
    workload = wl.make_workloads()["sweep-grid"]
    workload.make_inputs(fixtures, wl.DEFAULT_SEED, tmp_path)
    reference = wl.load_reference("sweep-grid", wl.DEFAULT_SEED)
    runner = run.Runner(cli, workload, tmp_path, reference)
    runner.run_op()
    assert runner.failed == 0, runner.problems

    wrong = copy.deepcopy(reference)
    wrong["selected_L"]["200:10000"] += 1
    runner.reference = wrong
    runner.run_op()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert any("selected L at 200:10000" in p for p in runner.problems)


@pytest.mark.xfail(strict=True, reason=(
    "defect at the seed commit: build_projection forms the Gram matrix of V_ML, which "
    "squares its conditioning, so on this ill-conditioned smooth series the L=m basis is "
    "declared rank deficient and mse_rd(L=m) is inf instead of mse_gb"))
def test_collapse_holds_on_an_ill_conditioned_smooth_series(program, tmp_path):
    # The sweep workloads run on GBM series, where no operation fails; this
    # smooth series (the default seed, M=20) is where the collapse breaks.
    cli, fixtures = program
    workload = wl.Sweep("smooth-collapse", "smooth", (20,), None)
    workload.make_inputs(fixtures, wl.DEFAULT_SEED, tmp_path)
    runner = run.Runner(cli, workload, tmp_path, None)
    runner.run_op()
    assert runner.failed == 0, runner.problems


def _cell(m, cap, cond_ww, gb, rd, unc):
    res = {k: {"theoretical_mse": v} for k, v in (("gb", gb), ("rd", rd), ("unc", unc))}
    return {"M": m, "cap": cap, "skipped": False, "reason": None, "cond_ww": cond_ww,
            "gb_error": None, "best_L": 1, "results": res}


def test_sweep_invariants_flag_each_violation():
    good = {"cells": [_cell(3, 10.0, 5.0, 1.0, 2.0, 3.0)],
            "l_curves": {"3": [[1, 1.0, 2.0], [2, 50.0, 1.0]]}}
    assert wl.check_sweep_summary(good, (3,), (10.0,)) == []

    over_cap = copy.deepcopy(good)
    over_cap["cells"][0]["cond_ww"] = 11.0
    disorder = copy.deepcopy(good)
    disorder["cells"][0]["results"]["rd"]["theoretical_mse"] = 0.5
    no_collapse = copy.deepcopy(good)
    no_collapse["l_curves"]["3"][-1][2] = 1.0 + 1e-6
    for summary, text in ((over_cap, "above cap"), (disorder, "ordering"),
                          (no_collapse, "L=m")):
        problems = wl.check_sweep_summary(summary, (3,), (10.0,))
        assert len(problems) == 1 and text in problems[0]


def _input_bytes(program, name, seed, directory):
    _, fixtures = program
    directory.mkdir()
    workload = wl.make_workloads()[name]
    paths = workload.make_inputs(fixtures, seed, directory)
    return [p.read_bytes() for p in paths], workload.argv(0, directory / "out")


@pytest.mark.parametrize("name", ["sweep-grid", "sweep-validation", "forecast-desk"])
def test_inputs_follow_the_seed(program, tmp_path, name):
    first, _ = _input_bytes(program, name, 7, tmp_path / "a")
    again, _ = _input_bytes(program, name, 7, tmp_path / "b")
    other, _ = _input_bytes(program, name, 8, tmp_path / "c")
    assert first and first == again
    assert all(x != y for x, y in zip(first, other))


def test_verify_input_follows_the_seed(program, tmp_path):
    _, argv7 = _input_bytes(program, "verify-mc", 7, tmp_path / "a")
    _, argv8 = _input_bytes(program, "verify-mc", 8, tmp_path / "b")
    assert argv7 != argv8


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.make_workloads())


def test_traced_and_untraced_operations_alternate():
    pattern = [run.is_traced(j) for j in range(8)]
    assert pattern == [False, True, True, False] * 2
    # forecast-desk's first timed operation is its second request, and its
    # inputs alternate GBM and smooth: both halves must see both kinds
    kinds = lambda traced: {(j + 1) % 2 for j in range(8) if run.is_traced(j) == traced}
    assert kinds(True) == kinds(False) == {0, 1}


def test_traced_run_reports_every_layer_metric_and_restores_the_program():
    result = run.run_workload("verify-mc", 3, 0.1, trace=True)
    assert result["correct"] and result["attempted"] >= run.MIN_OPS + 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["synthetic_oracle.sample.calls"] > 0
    assert metrics["trace.absent_functions"] == 0
    import subspace_forecast.synthetic_oracle as oracle
    assert not hasattr(oracle.sample, "__wrapped__")
