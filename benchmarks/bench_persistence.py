"""E17 — Persistence overhead.

A peer's store holds its credential wallet; session state stays in RAM.
Attaching stores must not change the shape of a negotiation's cost.  Two
rows quantify that: scenario-2 free enrollment with no stores vs with
per-peer memory stores vs with durable (journal+snapshot) stores in a
temp directory.  The ``speedup`` is t_off/t_on: 1.0 means free, lower
means the store taxes the negotiation.  The regress gate holds the ratio
against the committed baseline.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_persistence.py
[--quick]``) or under pytest.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.bench.reporting import format_table
from repro.determinism import reset_all
from repro.scenarios.services import build_scenario2, run_free_enrollment

REPORT_PATH = Path(__file__).resolve().parent / "reports" / "bench_persistence.json"
TRAJECTORY = "BENCH_PERSISTENCE_V1"

REPEATS = 5
QUICK_REPEATS = 2
KEY_BITS = 512


# ---------------------------------------------------------------------------
# Store overhead on a live negotiation
# ---------------------------------------------------------------------------

def _timed_enrollment(backend, repeats: int) -> float:
    """Best-of-N wall seconds for a scenario-2 free enrollment, fresh world
    each round, with per-peer stores of the given backend attached (or none
    for ``backend=None``)."""
    best = float("inf")
    for _ in range(repeats):
        reset_all()
        scenario = build_scenario2(key_bits=KEY_BITS)
        state_dir = None
        if backend == "durable":
            state_dir = tempfile.mkdtemp(prefix="peertrust-bench-")
        if backend is not None:
            scenario.world.attach_state_stores(backend, state_dir=state_dir)
        started = time.perf_counter()
        run_free_enrollment(scenario)
        best = min(best, time.perf_counter() - started)
        if backend is not None:
            scenario.world.detach_state_stores()
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)
    return best


def run_store_overhead(repeats: int) -> list[dict]:
    # A single enrollment is ~5 ms, so best-of-N needs a larger N than the
    # heavyweight rows for the off/on ratio to converge on quiet minima.
    repeats = max(repeats * 4, 10)
    off = _timed_enrollment(None, repeats)
    rows = []
    for name, backend in (("memory_store_overhead", "memory"),
                          ("durable_store_overhead", "durable")):
        on = _timed_enrollment(backend, repeats)
        rows.append({
            "benchmark": name,
            "off_ms": round(off * 1000, 3),
            "on_ms": round(on * 1000, 3),
            "speedup": round(off / on, 3) if on else 1.0,
        })
    return rows


def run_suite(quick: bool = False) -> list[dict]:
    repeats = QUICK_REPEATS if quick else REPEATS
    return run_store_overhead(repeats)


def summary_rows(rows: list[dict]) -> list[dict]:
    summary = []
    for row in rows:
        entry = {"benchmark": row["benchmark"]}
        for key in ("off_ms", "on_ms", "speedup"):
            if key in row:
                entry[key] = row[key]
        summary.append(entry)
    return summary


def test_persistence_overhead():
    """Pytest entry: the store-overhead acceptance floors."""
    rows = {row["benchmark"]: row for row in run_suite(quick=True)}
    # Stores must not change the shape of a negotiation's cost (generous
    # floor — CI timing noise, not the steady-state overhead, sets it).
    assert rows["memory_store_overhead"]["speedup"] > 0.3, \
        rows["memory_store_overhead"]
    assert rows["durable_store_overhead"]["speedup"] > 0.2, \
        rows["durable_store_overhead"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing repeats for CI")
    parser.add_argument("--out", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)

    rows = run_suite(quick=args.quick)
    print(format_table(summary_rows(rows),
                       title="E17 - persistence overhead"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "experiment": "E17",
        "trajectory": TRAJECTORY,
        "quick": args.quick,
        "benchmarks": rows,
    }, indent=2) + "\n")
    print(f"JSON report: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
