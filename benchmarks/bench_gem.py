"""E18 — GEM distributed tabling on mutual recursion.

The mutual-membership workload
(:func:`repro.workloads.generator.build_mutual_membership_workload`) chains
``depth + 1`` institution pairs whose membership policies reference each
other, so the opening ``member(X)`` query crosses nested cross-peer cycles.
Every query is answered through GEM goal tables — per-goal tables, cycle
subscriptions, distributed completion detection — and each depth must
return its complete answer relation.  The benchmark reports simulated time
and wire bytes per depth, plus the table-hit payoff of a repeat query in
the same session (served from the completed table, zero re-evaluation).

All numbers are deterministic (simulated clock, exact wire sizes), so the
committed baseline ``benchmarks/reports/bench_gem.json`` is byte-stable and
``benchmarks/regress.py`` gates on it.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_gem.py
[--quick]``) or under pytest.
"""

import json
from pathlib import Path

from repro.bench.reporting import format_table
from repro.determinism import reset_all
from repro.net.message import QueryMessage
from repro.net.transport import constant_latency
from repro.workloads.generator import build_mutual_membership_workload

REPORT_PATH = Path(__file__).resolve().parent / "reports" / "bench_gem.json"
TRAJECTORY = "BENCH_GEM_V1"

DEPTHS = (0, 1, 2)


def _build(depth: int):
    reset_all()  # fresh-variable names, hence bytes, start from fixed counters
    workload = build_mutual_membership_workload(depth)
    # Size-independent latency: session-id string lengths vary with global
    # counters, and the default bandwidth model would let that noise into
    # the simulated timings.
    workload.world.transport.latency = constant_latency(1.0)
    return workload


def _run(workload):
    transport = workload.world.transport
    clock_start = transport.now_ms
    result = workload.run()
    assert result.granted, workload.description
    elapsed_ms = transport.now_ms - clock_start
    stats = workload.world.stats
    return result, elapsed_ms, stats.bytes, stats.messages


def run_depth(depth: int) -> dict:
    """One recursion depth on a fresh world."""
    result, sim_ms, wire_bytes, messages = _run(_build(depth))
    counters = result.session.counters
    return {
        "benchmark": f"mutual_recursion_d{depth}",
        "depth": depth,
        "answers": len(result.answers),
        "sim_ms": round(sim_ms, 3),
        "bytes": wire_bytes,
        "messages": messages,
        "tables_activated": counters.get("tables_activated", 0),
        "table_passes": counters.get("table_passes", 0),
        "fixpoint_rounds": counters.get("table_fixpoint_rounds", 0),
        # Regress-gate indicator (bench_obs idiom): 1.0 iff the answer
        # relation is exactly the expected complete one, 0.0 otherwise —
        # the 0.8x floor then fails the run on any lost or spurious answer.
        "speedup": 1.0 if len(result.answers) == 2 * (depth + 1) else 0.0,
    }


def run_repeat_query(depth: int = 1, rounds: int = 3) -> dict:
    """Repeat the goal inside one session: round 1 builds and completes
    the tables, later rounds are pure table serves."""
    workload = _build(depth)
    transport = workload.world.transport
    session = transport.sessions.get_or_create(
        "gem-repeat", workload.requester.name,
        workload.requester.max_nesting)
    first_bytes = repeat_bytes = 0
    for round_index in range(rounds):
        before = transport.stats.bytes
        reply = transport.request(QueryMessage(
            sender=workload.requester.name,
            receiver=workload.provider_name,
            session_id=session.id, goal=workload.goal))
        assert reply.items, f"round {round_index} denied"
        spent = transport.stats.bytes - before
        if round_index:
            repeat_bytes += spent
        else:
            first_bytes = spent
    repeat_rounds = rounds - 1
    mean_repeat = repeat_bytes / repeat_rounds if repeat_rounds else 0.0
    return {
        "benchmark": f"gem_repeat_query_d{depth}",
        "depth": depth,
        "rounds": rounds,
        "first_round_bytes": first_bytes,
        "mean_repeat_bytes": round(mean_repeat, 1),
        "table_hits": session.counters.get("table_hits", 0),
        "table_passes": session.counters.get("table_passes", 0),
        # A repeat round re-sends query + answer only; the cross-peer
        # table construction traffic is not paid again.
        "repeat_reduction_pct": round(
            100.0 * (1.0 - mean_repeat / first_bytes), 1)
        if first_bytes else 0.0,
        # Ratio form for the regress gate: first-round bytes over the mean
        # repeat round (the table-serve payoff; capped at 3.0 by the gate).
        "speedup": round(first_bytes / mean_repeat, 2) if mean_repeat else 1.0,
    }


def run_suite(quick: bool = False) -> list[dict]:
    del quick  # simulated-clock + exact-wire results are deterministic
    rows = [run_depth(depth) for depth in DEPTHS]
    rows.append(run_repeat_query())
    return rows


def summary_rows(rows: list[dict]) -> list[dict]:
    summary = []
    for row in rows:
        if row["benchmark"].startswith("mutual_recursion"):
            summary.append({
                "benchmark": row["benchmark"],
                "answers": row["answers"],
                "sim_ms": row["sim_ms"],
                "bytes": row["bytes"],
                "messages": row["messages"],
                "fixpoint_rounds": row["fixpoint_rounds"],
            })
        else:
            summary.append({
                "benchmark": row["benchmark"],
                "first_B": row["first_round_bytes"],
                "repeat_B": row["mean_repeat_bytes"],
                "table_hits": row["table_hits"],
                "reduction_pct": row["repeat_reduction_pct"],
            })
    return summary


def test_gem_soundness_and_repeat_payoff():
    """Pytest entry: complete answers at every depth, and a repeat query
    served from the completed tables."""
    rows = {row["benchmark"]: row for row in run_suite(quick=True)}
    for depth in DEPTHS:
        row = rows[f"mutual_recursion_d{depth}"]
        assert row["answers"] == 2 * (depth + 1), row
        assert row["tables_activated"] >= 2, row
    repeat = rows["gem_repeat_query_d1"]
    assert repeat["table_hits"] >= 1, repeat
    assert repeat["repeat_reduction_pct"] >= 30.0, repeat


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="accepted for CI symmetry; the suite is fixed")
    parser.add_argument("--out", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)

    rows = run_suite(quick=args.quick)
    print(format_table(summary_rows(rows),
                       title="E18 - GEM tabling on mutual recursion"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "experiment": "E18",
        "trajectory": TRAJECTORY,
        "quick": args.quick,
        "benchmarks": rows,
    }, indent=2) + "\n")
    print(f"JSON report: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
