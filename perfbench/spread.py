"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs ``run.py`` once per seed for each named workload, one run at a time,
and reports per metric the median and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(n=4)``),
against the metric's bound in BENCHMARK.json.  With ``--baseline`` it also
makes one traced run per workload on the default seed and writes every
figure to a JSON file.  Run from the checkout root::

    python3 perfbench/spread.py --workloads sweep-grid --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run in a fresh process: its result and environment."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line)["environment"] for line in lines
               if line.startswith('{"environment"'))
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", default=None,
                        help="also trace each workload once and write every figure here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = wl.make_workloads()
    report = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run_once(name, seed, args.seconds)
            runs.append({"seed": seed, **result})
            line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {line}", flush=True)
        end_to_end = {}
        for metric, bound in bounds.items():
            median, rel = spread([r["metrics"][metric]["value"] for r in runs])
            end_to_end[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": median,
                                  "iqr_share": rel, "bound": bound}
            flag = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "OVER BOUND")
            print(f"{name} {metric}: median {median:.6g}, IQR/median {rel:.4f} "
                  f"(bound {bound}) {flag}", flush=True)
        report[name] = {
            "why": why[name],
            "inputs": workloads[name].inputs,
            "end_to_end": end_to_end,
            "operations_per_run": [r["attempted"] for r in runs],
            "runs": runs,
        }
        if args.baseline:
            traced, env = run_once(name, wl.DEFAULT_SEED, args.seconds, trace=1)
            report[name]["per_layer"] = {"seed": wl.DEFAULT_SEED, **traced}
    if args.baseline:
        baseline = {"environment": env, "run_seconds": args.seconds, "seeds": args.seeds,
                    "workloads": report}
        Path(args.baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
