"""Benchmark of the ``subspace_forecast`` command line, driven in-process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each workload is a closed loop with one client in this one process: the next
``subspace_forecast.cli.main(argv)`` call starts when the previous one has
returned and its output has been checked.  Inputs are generated from the
workload seed with the test suite's price generators and written as CSV
under ``.bench_work/`` in the checkout, which is removed at the end.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``, the
median of set-ups made in short bursts spread through the run (each a fresh
import of the package plus input generation and CSV writing), and
``ops_per_s``, operations
completed per second of operation wall time.  An operation is one sweep on
``sweep-grid`` and ``sweep-validation``, one forecast request on
``forecast-desk`` and one verify call on ``verify-mc``; the median operation
time is printed as ``sweep_s``, ``forecast_p50_ms`` or ``verify_s``, with
``forecast_p90_ms`` beside it.  Failed operations are reported as ``failed``
out of ``attempted``; their share is ``ops_failed_share``.

With ``--trace 1`` untraced and traced operations alternate, and the run
reports per-layer metrics: calls, self time and total time per traced
operation for each traced function, work counters, the share of operation
wall time covered by traced spans and the tracing overhead.

BLAS runs single-threaded: on two cores OpenBLAS threads make the small
solves of this program several times slower and far noisier.  The benchmark
pins no CPU, drops no cache and tunes nothing on the machine.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

PACKAGE = "subspace_forecast"
FIXTURES = "perfbench_fixtures"
BLAS_THREADS = 1
SETUP_POINTS = 12  # times through a run at which set-up is sampled
SETUP_BURST = 3  # back-to-back set-ups at each of them
MIN_OPS = 5

# Functions wrapped by the tracer, as ``module.function`` of the package.
TRACED = (
    "data_pipeline.load_csv",
    "data_pipeline.build_hankel",
    "data_pipeline.normalize_and_center",
    "data_pipeline.split_train_test",
    "covariance_model.empirical_covariance",
    "covariance_model.condition_number",
    "estimators.fit_gauss_bayes",
    "estimators.build_projection",
    "estimators.fit_reduced_dimension",
    "_linalg.solve_sym",
    "_linalg.spectral_condition",
    "backtest.build_l_curve",
    "backtest.select_L",
    "backtest._evaluate_method",
    "backtest.emit_report",
    "metrics.theoretical_mse",
    "metrics.bias_decomposition",
    "synthetic_oracle.sample",
    "synthetic_oracle.mc_bias",
    "cli._verify_checks",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
}

# Names under which each workload's median operation time (and, where a run
# holds enough operations, its 90th percentile) is printed.
ALIASES = {
    "sweep-grid": ("sweep_s", None),
    "sweep-validation": ("sweep_s", None),
    "forecast-desk": ("forecast_p50_ms", "forecast_p90_ms"),
    "verify-mc": ("verify_s", None),
}


def metric_name(target: str) -> str:
    """Metric prefix of a traced function (names may not start with ``_``)."""
    return target.lstrip("_")


def per_layer_units() -> dict[str, str]:
    units = {}
    for target in TRACED:
        prefix = metric_name(target)
        units[f"{prefix}.calls"] = "calls/op"
        units[f"{prefix}.self_s"] = "s/op"
        units[f"{prefix}.total_s"] = "s/op"
    units.update({
        "backtest.l_curve.points": "points/op",
        "backtest.l_curve.feasible_share": "share",
        "backtest.emit_report.bytes": "bytes/op",
        "trace.attributed_share": "share",
        "trace.overhead_ms": "ms",
        "trace.spans_per_op": "spans/op",
        "trace.absent_functions": "count",
    })
    return units


def load_program():
    """Import the package and the input generators afresh.

    Earlier imports are dropped first, so each set-up pays the package's own
    import cost (numpy and scipy stay loaded after the first).
    """
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    sys.modules.pop(FIXTURES, None)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    spec = importlib.util.spec_from_file_location(FIXTURES, ROOT / "tests" / "conftest.py")
    fixtures = importlib.util.module_from_spec(spec)
    sys.modules[FIXTURES] = fixtures
    spec.loader.exec_module(fixtures)
    return cli, fixtures


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, cli, workload, work: Path, reference):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.reference = reference
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self) -> float:
        i = self.next_op
        self.next_op += 1
        out_dir = self.work / f"out-{i}"
        argv = self.workload.argv(i, out_dir)
        stdout = io.StringIO()
        rc, raised = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            raised = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        try:
            problems = [raised] if raised else self.workload.check(
                rc, stdout.getvalue(), out_dir, self.reference)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"output not in the expected form: {exc!r}"]
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i} ({' '.join(argv[:1])}): {p}" for p in problems[:5])
        return elapsed

    def loop(self, seconds: float, between=None) -> list[float]:
        """Closed loop: operations back to back until the next one would
        probably end after ``seconds``; at least MIN_OPS of them.

        ``between(samples)`` runs after each operation, outside its timing.
        """
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            samples.append(self.run_op())
            if between is not None:
                between(samples)
            remaining = deadline - time.perf_counter()
            if len(samples) >= MIN_OPS and remaining < samples[-1]:
                return samples


def setup(name: str, seed: int, directory: Path):
    """One set-up: a fresh import of the package, then input generation and
    CSV writing.  Returns the program, the workload and the wall time."""
    start = time.perf_counter()
    cli, fixtures = load_program()
    workload = wl.make_workloads()[name]
    directory.mkdir()
    workload.make_inputs(fixtures, seed, directory)
    return cli, workload, time.perf_counter() - start


@contextlib.contextmanager
def work_dir(prefix: str):
    """A scratch directory under ``.bench_work/`` in the checkout, removed
    (with ``.bench_work/`` once empty) on exit."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def is_traced(j: int) -> bool:
    """Whether the ``j``-th timed operation of a traced run is traced."""
    return j % 4 in (1, 2)


def trace_hooks(max_cap):
    def l_curve(tracer, curve):
        tracer.count("l_curve.points", len(curve))
        if max_cap is not None:
            tracer.count("l_curve.feasible", sum(p.cond_ww <= max_cap for p in curve))

    def emitted(tracer, paths):
        tracer.count("emit_report.bytes", sum(p.stat().st_size for p in paths))

    return {"backtest.build_l_curve": l_curve, "backtest.emit_report": emitted}


def per_layer_metrics(tracer: Tracer, absent, traced, untraced) -> dict[str, float]:
    n_ops = len(traced)
    stats = tracer.layer_stats()
    values = {}
    for target in TRACED:
        prefix = metric_name(target)
        s = stats.get(target)
        values[f"{prefix}.calls"] = (s.calls if s else 0) / n_ops
        values[f"{prefix}.self_s"] = (s.self_s if s else 0.0) / n_ops
        values[f"{prefix}.total_s"] = (s.total_s if s else 0.0) / n_ops
    points = tracer.counters.get("l_curve.points", 0.0)
    values["backtest.l_curve.points"] = points / n_ops
    values["backtest.l_curve.feasible_share"] = (
        tracer.counters.get("l_curve.feasible", 0.0) / points if points else 0.0)
    values["backtest.emit_report.bytes"] = tracer.counters.get("emit_report.bytes", 0.0) / n_ops
    values["trace.attributed_share"] = tracer.root_time() / sum(traced)
    values["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    values["trace.spans_per_op"] = len(tracer) / n_ops
    values["trace.absent_functions"] = float(len(absent))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    with work_dir("run-") as work:
        cli, workload, first_setup = setup(name, seed, work / "inputs")
        runner = Runner(cli, workload, work, wl.load_reference(name, seed))
        runner.run_op()  # warm-up: lazy imports and first-call costs, checked but not timed
        if not trace:
            # Set-ups are repeated in short bursts spread through the run,
            # so their median samples the machine over the same time as the
            # operations; the operations keep using the first program.
            setup_times = [first_setup]
            due = time.perf_counter()

            def sample_setups(samples):
                nonlocal due
                if time.perf_counter() < due:
                    return
                for _ in range(SETUP_BURST):
                    again = work / f"setup-{len(setup_times)}"
                    setup_times.append(setup(name, seed, again)[2])
                    shutil.rmtree(again)
                gc.collect()
                due += seconds / SETUP_POINTS

            samples = runner.loop(seconds, sample_setups)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(samples) / sum(samples),
            }
            units = END_TO_END
            report_end_to_end(name, metrics, samples)
        else:
            # Untraced and traced operations alternate in the pattern
            # untraced, traced, traced, untraced, so the overhead is measured
            # against the machine at the same time, and on forecast-desk
            # both halves see GBM and smooth series alike.
            tracer = Tracer()
            hooks = trace_hooks(workload.max_cap)
            absent = []

            def toggle(samples):
                tracer.uninstall()
                if is_traced(len(samples)):
                    absent[:] = tracer.install(PACKAGE, TRACED, hooks)

            try:
                samples = runner.loop(seconds, toggle)
            finally:
                tracer.uninstall()
            traced = [x for j, x in enumerate(samples) if is_traced(j)]
            untraced = [x for j, x in enumerate(samples) if not is_traced(j)]
            metrics = per_layer_metrics(tracer, absent, traced, untraced)
            units = per_layer_units()
            report_per_layer(metrics, absent, tracer.hook_errors, len(untraced), len(traced))
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"ops_failed_share {runner.failed / runner.attempted:.4g}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report_end_to_end(name, metrics, samples) -> None:
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {END_TO_END[key]}")
    alias, tail_alias = ALIASES[name]
    median = statistics.median(samples)
    value = f"{median * 1e3:.6g} ms" if alias.endswith("_ms") else f"{median:.6g} s"
    print(f"{alias} = {value} (median of {len(samples)} operations)")
    if tail_alias is not None and len(samples) >= 100:
        tail = p90(samples)
        beyond = sum(x > tail for x in samples)
        print(f"{tail_alias} = {tail * 1e3:.6g} ms ({beyond} operations beyond it)")


def report_per_layer(metrics, absent, hook_errors, n_untraced, n_traced) -> None:
    print(f"traced ops {n_traced}, untraced ops {n_untraced}")
    rows = sorted(
        (metrics[f"{metric_name(t)}.self_s"], metric_name(t)) for t in TRACED
    )
    print(f"{'layer':40s} {'calls/op':>10s} {'self s/op':>11s} {'total s/op':>11s}")
    for self_s, prefix in reversed(rows):
        if metrics[f"{prefix}.calls"]:
            print(f"{prefix:40s} {metrics[prefix + '.calls']:10.1f} {self_s:11.5f} "
                  f"{metrics[prefix + '.total_s']:11.5f}")
    for key in sorted(metrics):
        if not key.endswith((".calls", ".self_s", ".total_s")):
            print(f"{key} = {metrics[key]:.6g}")
    if absent:
        print(f"absent functions: {', '.join(absent)}")
    for name, error in hook_errors.items():
        print(f"counter of {name} skipped: {error}")


def read_git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """BLAS library as numpy was built with it, and its live thread count
    (asked of the OpenBLAS that numpy ships, when there is one)."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "git_commit": read_git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "note": "no CPU pinning, cache dropping or machine tuning; numbers come "
                "from a shared 2-core box unless nproc says otherwise",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*wl.make_workloads(), "all"], default="all")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def configure_environment() -> None:
    """BLAS thread count and quiet logging; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["SUBSPACE_FORECAST_LOG"] = "quiet"


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_environment()
    if not (ROOT / "src" / PACKAGE).is_dir() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: {ROOT} holds no {PACKAGE} source tree; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(wl.make_workloads()) if args.workload == "all" else [args.workload]
    print(json.dumps({"environment": environment()}, sort_keys=True))
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
