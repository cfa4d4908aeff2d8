"""The benchmark's workloads: their inputs, their operations and the checks
applied to every operation's output.

Inputs come from the price generators of the test suite
(``tests/conftest.py``: ``gbm_prices`` and ``smooth_prices``) and the
workload seed; the program only sees the CSV files written here.  Every
operation is one ``subspace_forecast.cli.main(argv)`` call.

A check returns a list of problems; an empty list means the operation's
output is correct.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

# The seed whose sweep results are pinned in ``reference.json``.
DEFAULT_SEED = 1

SWEEP_DAYS = 5000
SWEEP_N_TEST = 2200
GRID_M = (20, 50, 80, 110, 140, 170, 200)
VALIDATION_M = (20, 50, 80, 110, 140)
CAPS = (1e3, 1e4)

DESK_DAYS = 3000
DESK_M = (20, 40, 60)
DESK_CAP = 1e4
DESK_H = 10
DESK_SERIES = 4  # of each kind, GBM and smooth

VERIFY_N = 100_000

# Invariants of every sweep cell (relative slack for round-off).
ORDER_RTOL = 1e-9
COLLAPSE_RTOL = 1e-9

# Agreement with the default-seed reference.  Selected L must be identical.
# mse_rd may differ by round-off of a better-conditioned formulation.  A
# condition number is compared only where the reference says it is at most
# COND_COMPARE_MAX; above that the value is dominated by round-off and must
# only stay above every cap, so no size changes feasibility.
REF_MSE_RTOL = 1e-8
REF_COND_RTOL = 2e-2
COND_COMPARE_MAX = 1e6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _cap_key(m: int, cap: float) -> str:
    return f"{m}:{cap:g}"


def _rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


class Sweep:
    """One ``sweep`` call over a 5000-day series, report written to a
    directory and read back for checking."""

    def __init__(self, name, kind, m_list, objective):
        self.name = name
        self.kind = kind
        self.m_list = m_list
        self.objective = objective
        self.csv = None
        self.max_cap = max(CAPS)

    @property
    def inputs(self) -> str:
        caps = " ".join(f"{c:g}" for c in CAPS)
        return (f"sweep on a {SWEEP_DAYS}-day {self.kind} series, --m-list "
                f"{' '.join(map(str, self.m_list))}, --caps {caps}, --n-test {SWEEP_N_TEST}, "
                f"objective {self.objective or 'theoretical'}")

    def make_inputs(self, fixtures, seed: int, directory: Path) -> list[Path]:
        gen = fixtures.gbm_prices if self.kind == "gbm" else fixtures.smooth_prices
        path = directory / f"{self.name}.csv"
        fixtures.write_price_csv(path, gen(SWEEP_DAYS, _sub_seed(seed, 0)))
        self.csv = str(path)
        return [path]

    def argv(self, i: int, out_dir: Path) -> list[str]:
        argv = ["sweep", "--csv", self.csv, "--m-list", *map(str, self.m_list),
                "--caps", *map(repr, CAPS), "--n-test", str(SWEEP_N_TEST),
                "--out", str(out_dir)]
        if self.objective is not None:
            argv += ["--objective", self.objective]
        return argv

    def check(self, rc: int, stdout: str, out_dir: Path, reference=None) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            with open(out_dir / "summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"summary.json unreadable: {exc}"]
        problems = check_sweep_summary(summary, self.m_list, CAPS)
        if reference is not None:
            problems += compare_with_reference(summary, reference)
        return problems


def check_sweep_summary(summary: dict, m_list, caps) -> list[str]:
    """Invariants of every (M, cap) cell of a sweep report."""
    problems = []
    cells = {(c["M"], c["cap"]): c for c in summary["cells"]}
    for m in m_list:
        curve = summary["l_curves"].get(str(m))
        for cap in caps:
            where = f"M={m} cap={cap:g}"
            cell = cells.get((m, cap))
            if cell is None or cell["skipped"]:
                problems.append(f"{where}: no result ({cell and cell['reason']})")
                continue
            if not cell["cond_ww"] <= cap:
                problems.append(f"{where}: chosen cond_ww {cell['cond_ww']:.6g} above cap")
            res = cell["results"]
            if "gb" not in res:
                problems.append(f"{where}: gb failed ({cell['gb_error']})")
                continue
            gb, rd, unc = (res[k]["theoretical_mse"] for k in ("gb", "rd", "unc"))
            if gb > rd + ORDER_RTOL * abs(rd) or rd > unc + ORDER_RTOL * abs(unc):
                problems.append(f"{where}: ordering gb<=rd<=unc broken ({gb!r}, {rd!r}, {unc!r})")
            if not curve:
                problems.append(f"{where}: no L-curve")
                continue
            full = curve[-1][2]
            if not _rel_gap(full, gb) <= COLLAPSE_RTOL:
                problems.append(
                    f"{where}: mse_rd at L=m is {full!r}, mse_gb is {gb!r} "
                    f"(rel gap {_rel_gap(full, gb):.3g})"
                )
    return problems


def reference_entry(summary: dict) -> dict:
    """The parts of a sweep report pinned for the default seed."""
    return {
        "selected_L": {
            _cap_key(c["M"], c["cap"]): c["best_L"] for c in summary["cells"]
        },
        "mse_vs_L": summary["l_curves"],
    }


def compare_with_reference(summary: dict, reference: dict) -> list[str]:
    """Selected L identical; L-curves within the REF_* tolerances.

    Where the reference has no value (the size was declared rank deficient,
    mse_rd infinite) a finite value may appear, but it must lie between the
    cell's gb and unc closed-form MSEs.
    """
    problems = []
    got = reference_entry(summary)
    bounds = {
        str(c["M"]): (c["results"]["gb"]["theoretical_mse"], c["results"]["unc"]["theoretical_mse"])
        for c in summary["cells"] if not c["skipped"] and "gb" in c["results"]
    }
    for key, want in reference["selected_L"].items():
        if got["selected_L"].get(key) != want:
            problems.append(f"selected L at {key} is {got['selected_L'].get(key)}, reference {want}")
    for m, ref_curve in reference["mse_vs_L"].items():
        curve = got["mse_vs_L"].get(m)
        if curve is None or len(curve) != len(ref_curve):
            problems.append(f"M={m}: L-curve has {curve and len(curve)} points, "
                            f"reference {len(ref_curve)}")
            continue
        gb, unc = bounds.get(m, (math.nan, math.nan))
        for (l_size, cond, mse), (_, ref_cond, ref_mse) in zip(curve, ref_curve):
            where = f"M={m} L={l_size}"
            if math.isinf(ref_mse):
                agrees = math.isinf(mse) or (
                    gb - ORDER_RTOL * abs(gb) <= mse <= unc + ORDER_RTOL * abs(unc))
            else:
                agrees = _rel_gap(mse, ref_mse) <= REF_MSE_RTOL
            if not agrees:
                problems.append(f"{where}: mse_rd {mse!r}, reference {ref_mse!r}")
            if ref_cond <= COND_COMPARE_MAX:
                if not _rel_gap(cond, ref_cond) <= REF_COND_RTOL:
                    problems.append(f"{where}: cond_ww {cond!r}, reference {ref_cond!r}")
            elif not cond > max(CAPS):
                problems.append(f"{where}: cond_ww {cond!r} now under a cap, "
                                f"reference {ref_cond!r}")
    return problems


class ForecastDesk:
    """A stream of ``forecast --method rd`` requests cycling over eight CSVs
    (four GBM, four smooth) and three window lengths."""

    name = "forecast-desk"
    max_cap = DESK_CAP
    inputs = (f"forecast --method rd --cap {DESK_CAP:g} --h {DESK_H} cycling over "
              f"{DESK_SERIES} gbm and {DESK_SERIES} smooth CSVs of {DESK_DAYS} days "
              f"and M in {', '.join(map(str, DESK_M))}")

    def __init__(self):
        self.csvs: list[str] = []

    def make_inputs(self, fixtures, seed: int, directory: Path) -> list[Path]:
        paths = []
        for k in range(DESK_SERIES):
            for kind, gen in (("gbm", fixtures.gbm_prices), ("smooth", fixtures.smooth_prices)):
                path = directory / f"desk-{kind}-{k}.csv"
                fixtures.write_price_csv(path, gen(DESK_DAYS, _sub_seed(seed, len(paths) + 1)))
                paths.append(path)
        self.csvs = [str(p) for p in paths]
        return paths

    def argv(self, i: int, out_dir: Path) -> list[str]:
        csv = self.csvs[i % len(self.csvs)]
        m = DESK_M[(i // len(self.csvs)) % len(DESK_M)]
        return ["forecast", "--csv", csv, "--m", str(m), "--method", "rd",
                "--cap", repr(DESK_CAP), "--h", str(DESK_H)]

    def check(self, rc: int, stdout: str, out_dir: Path, reference=None) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        return check_forecast_table(stdout, DESK_H, DESK_CAP)


def check_forecast_table(stdout: str, horizon: int, cap: float) -> list[str]:
    problems = []
    rows = []
    cond = None
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("cond_ww:"):
            cond = float(parts[1])
        elif len(parts) == 3 and parts[0].isdigit():
            rows.append((float(parts[1]), float(parts[2])))
    if len(rows) != horizon:
        problems.append(f"{len(rows)} forecast rows, expected {horizon}")
    if not all(math.isfinite(p) and math.isfinite(s) for p, s in rows):
        problems.append("non-finite forecast value")
    if cond is None or not cond <= cap:
        problems.append(f"cond_ww {cond} missing or above cap {cap:g}")
    return problems


class VerifyMc:
    """``verify --n 100000`` on the pinned 30-dimensional Gaussian, with the
    workload seed as its sampling seed."""

    name = "verify-mc"
    max_cap = None
    inputs = f"verify --seed <workload seed> --n {VERIFY_N} on the pinned 30-dimensional Gaussian"

    def __init__(self):
        self.seed = None

    def make_inputs(self, fixtures, seed: int, directory: Path) -> list[Path]:
        self.seed = seed
        return []

    def argv(self, i: int, out_dir: Path) -> list[str]:
        return ["verify", "--seed", str(self.seed), "--n", str(VERIFY_N)]

    def check(self, rc: int, stdout: str, out_dir: Path, reference=None) -> list[str]:
        problems = [f"exit code {rc}"] if rc != 0 else []
        fails = [line for line in stdout.splitlines() if line.startswith("[FAIL]")]
        problems += fails
        if not re.search(r"^verify: \d+ checks, 0 failures ", stdout, re.MULTILINE):
            problems.append("verify summary does not report 0 failures")
        return problems


def make_workloads() -> dict:
    """A fresh instance of every workload, by name."""
    return {
        w.name: w
        for w in (
            Sweep("sweep-grid", "gbm", GRID_M, None),
            Sweep("sweep-validation", "gbm", VALIDATION_M, "validation_mse"),
            ForecastDesk(),
            VerifyMc(),
        )
    }


def load_reference(name: str, seed: int):
    """The pinned sweep results for ``name`` when ``seed`` is the default."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(name)
