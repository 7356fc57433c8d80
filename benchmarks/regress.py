"""Perf-regression gate for the hot-path benchmarks.

Re-runs ``benchmarks/bench_hotpaths.py`` and compares each benchmark's
*speedup ratio* against the committed baseline report
(``benchmarks/reports/bench_hotpaths.json``), then does the same for every
bench module listed in ``GATES`` against its own committed baseline.
Ratios — not wall-clock — are compared, so the gate is machine-independent:
a slower CI runner slows the "before" and "after" sides equally.

A benchmark regresses when its current speedup falls below 80% of its
baseline speedup.  Baselines are capped at 3.0x before applying the
tolerance: some caches (the signature cache on re-verification) give
large speedups whose exact ratio is noise, and we only need to know the
cache still *works*, not that it is precisely 6x.

Usage::

    PYTHONPATH=src python benchmarks/regress.py [--quick] [--baseline PATH]

Exit status 0 = no regression; 1 = regression (CI fails).  The current run
is written next to the baseline as ``regress_latest.json`` so CI can upload
it as an artifact for side-by-side inspection.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # allow `python benchmarks/regress.py`
    sys.path.insert(0, str(HERE))

from bench_hotpaths import REPORT_PATH, run_suite, summary_rows  # noqa: E402
import bench_concurrency  # noqa: E402
import bench_fanout  # noqa: E402
import bench_gem  # noqa: E402
import bench_obs  # noqa: E402
import bench_persistence  # noqa: E402

from repro.bench.reporting import format_table  # noqa: E402

LATEST_PATH = REPORT_PATH.with_name("regress_latest.json")

TOLERANCE = 0.8    # current speedup must stay within 80% of baseline
BASELINE_CAP = 3.0  # very large baseline ratios are clamped before comparing

# Each gate re-runs one bench module's suite and compares its speedup rows
# against that module's committed baseline with the rule above:
# (module, table title, baseline noun for the missing-baseline message).
GATES = (
    # E14: simulated-time utilisation, deterministic — any drop below the
    # floor is a real scheduling regression, not machine noise.
    (bench_concurrency, "concurrency (E14)", "concurrency"),
    # E15: fan-out speedups and the session-delta byte-reduction ratio;
    # exact (simulated clock + exact wire sizes), so fanout_x4 must stay
    # >= 0.8 * min(2.5, 3.0) = 2.0x, above the 1.5x acceptance bar.
    (bench_fanout, "scatter-gather (E15)", "fan-out"),
    # E16: disabled-tracer rows carry speedup 1.0 (pure wall-time
    # baselines); trace_determinism carries 1.0 iff two seeded faulty
    # traces serialised byte-identically, so its 0.8 floor fails the run
    # on any divergence.
    (bench_obs, "observability (E16)", "observability"),
    # E17: store-overhead t_off/t_on wall ratios (near 1.0).
    (bench_persistence, "persistence (E17)", "persistence"),
    # E18: mutual-recursion rows carry 1.0 iff gem produced the exact
    # expected answer relation (0.0 otherwise, which always fails), and the
    # repeat-query row is the first-round/repeat-round byte ratio.
    (bench_gem, "distributed tabling (E18)", "tabling"),
)


def load_baseline(path: Path) -> dict:
    data = json.loads(path.read_text())
    return {row["benchmark"]: row for row in data["benchmarks"]}


def compare(baseline: dict, current: list[dict]) -> tuple[list[dict], list[str]]:
    rows, failures = [], []
    for row in current:
        name = row["benchmark"]
        base = baseline.get(name)
        if base is None:
            rows.append({**row, "baseline_speedup": None, "status": "new"})
            continue
        floor = TOLERANCE * min(base["speedup"], BASELINE_CAP)
        ok = row["speedup"] >= floor
        rows.append({
            "benchmark": name,
            "baseline_speedup": base["speedup"],
            "speedup": row["speedup"],
            "floor": round(floor, 2),
            "status": "ok" if ok else "REGRESSED",
        })
        if not ok:
            failures.append(
                f"{name}: speedup {row['speedup']}x fell below floor "
                f"{floor:.2f}x (baseline {base['speedup']}x)")
    missing = set(baseline) - {row["benchmark"] for row in current}
    for name in sorted(missing):
        failures.append(f"{name}: present in baseline but not measured")
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--baseline", type=Path, default=REPORT_PATH,
                        help=f"baseline report (default {REPORT_PATH})")
    parser.add_argument("--out", type=Path, default=LATEST_PATH,
                        help=f"where to write this run (default {LATEST_PATH})")
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run bench_hotpaths.py first")
        return 1
    baseline = load_baseline(args.baseline)
    current = summary_rows(run_suite(quick=args.quick))
    rows, failures = compare(baseline, current)

    print(format_table(rows, title="hot-path perf regression check"))

    for module, title, noun in GATES:
        if not module.REPORT_PATH.exists():
            failures.append(f"no {noun} baseline at {module.REPORT_PATH}; "
                            f"run {module.__name__}.py first")
            continue
        gate_current = [
            {"benchmark": row["benchmark"], "speedup": row["speedup"]}
            for row in module.run_suite(quick=args.quick)
        ]
        gate_rows, gate_failures = compare(
            load_baseline(module.REPORT_PATH), gate_current)
        print(format_table(gate_rows, title=f"{title} regression check"))
        rows += gate_rows
        failures += gate_failures

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "baseline": str(args.baseline),
        "quick": args.quick,
        "tolerance": TOLERANCE,
        "baseline_cap": BASELINE_CAP,
        "rows": rows,
        "failures": failures,
    }, indent=2) + "\n")
    print(f"JSON report: {args.out}")

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("no perf regression detected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
