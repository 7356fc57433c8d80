"""End-to-end benchmark of the PeerTrust reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One run builds its workload's world (timed as ``setup_s``, cold, in fresh
interpreters), runs an untimed warm-up pass, then runs operations in a
closed loop for ``--seconds`` and checks every outcome.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it reports per-layer
self times from :mod:`layers` and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload, both modes, each
in its own interpreter, and prints one table.

Seed 1009 is held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".perfbench-state"

# Cold world builds per run; ``setup_s`` is their median.  The first is the
# run's own build, the others run in fresh interpreters.
SETUP_SAMPLES = {"fleet": 3, "elearn_churn": 5, "gem_durable": 5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_neg_per_s": "neg/s",
    "latency_p50_ms": "ms",
    "sim_p95_ms": "sim_ms",
    "bytes_per_neg": "B",
    "messages_per_neg": "msg",
    "max_rss_mb": "MB",
}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least ``q`` of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, str(SCRATCH))


def timed_build(workload) -> float:
    start = time.perf_counter()
    workload.build()
    return time.perf_counter() - start


def run_ops(workload, first: int, seconds: float, min_ops: int) -> dict:
    """Closed loop: one operation at a time until ``seconds`` have passed
    and at least ``min_ops`` operations ran."""
    ops, latencies = [], []
    clock = time.perf_counter
    start = clock()
    index = first
    while True:
        before = clock()
        ops.append(workload.step(index))
        after = clock()
        latencies.append(after - before)
        index += 1
        if after - start >= seconds and len(ops) >= min_ops:
            break
    return {"ops": ops, "latencies": latencies,
            "elapsed": clock() - start, "next": index}


def wire_figures(ops) -> dict:
    """The figures that repeat exactly for a seed: simulated time, bytes and
    messages of a fixed run of operations."""
    negotiations = sum(op.negotiations for op in ops)
    return {
        "sim_p95_ms": quantile([ms for op in ops for ms in op.sim_ms], 0.95),
        "bytes_per_neg": sum(op.bytes for op in ops) / negotiations,
        "messages_per_neg": sum(op.messages for op in ops) / negotiations,
    }


def probe(name: str, seed: int, fixed: bool) -> dict:
    """A cold build in this (fresh) interpreter; with ``fixed`` also the
    warm-up and the fixed operations, for the repeatability check."""
    workload = make_workload(name, seed)
    try:
        result = {"setup_s": timed_build(workload), "fixed": None}
        if fixed:
            run_ops(workload, 0, 0.0, workload.warmup_ops)
            fixed_run = run_ops(workload, workload.warmup_ops, 0.0,
                                workload.fixed_ops)
            result["fixed"] = wire_figures(fixed_run["ops"])
        return result
    finally:
        workload.close()


def spawn_probe(name: str, seed: int, fixed: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", name, "--seed", str(seed)]
    if fixed:
        command.append("--fixed")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def outcome_counts(ops) -> tuple[int, int]:
    return len(ops), sum(1 for op in ops if not op.ok)


def good_per_second(run: dict) -> float:
    return sum(op.good for op in run["ops"]) / run["elapsed"]


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload = make_workload(name, seed)
    try:
        setups = [timed_build(workload)]
        first = spawn_probe(name, seed, fixed=True)
        reference = first["fixed"]
        setups.append(first["setup_s"])
        setups += [spawn_probe(name, seed, fixed=False)["setup_s"]
                   for _ in range(SETUP_SAMPLES[name] - 2)]
        warm = run_ops(workload, 0, 0.0, workload.warmup_ops)
        run = run_ops(workload, warm["next"], seconds, workload.fixed_ops)
    finally:
        workload.close()

    ops = run["ops"]
    fixed = wire_figures(ops[:workload.fixed_ops])
    repeats = fixed == reference
    attempted, failed = outcome_counts(warm["ops"] + ops)
    latencies_ms = [latency * 1000 for latency in run["latencies"]]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_neg_per_s": good_per_second(run),
        "latency_p50_ms": quantile(latencies_ms, 0.50),
        **fixed,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{name}: {len(ops)} timed operations in {run['elapsed']:.2f} s; "
          f"failure_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"{name}: latency tail, not bounded: "
          f"p95 {quantile(latencies_ms, 0.95):.3f} ms, "
          f"p99 {quantile(latencies_ms, 0.99):.3f} ms "
          f"of {len(latencies_ms)} operations")
    print(f"{name}: first {workload.fixed_ops} operations repeat in a fresh "
          f"interpreter: {'yes' if repeats else 'NO'} {fixed} vs {reference}")
    return {"correct": failed == 0 and repeats, "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                        for key, value in values.items()}}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _wire_totals(transports) -> dict:
    totals = {"messages": 0, "bytes": 0, "retries": 0, "dropped": 0,
              "duplicates_suppressed": 0, "events": 0}
    for transport in transports:
        stats = transport.stats
        for key in ("messages", "bytes", "retries", "dropped",
                    "duplicates_suppressed"):
            totals[key] += getattr(stats, key)
        totals["events"] += stats.events_processed
    return totals


def _cache_counters() -> dict:
    from repro.crypto.rsa import SIGNATURE_CACHE_STATS
    from repro.obs.metrics import global_registry

    engine = global_registry().counter("peertrust_engine_ops_total",
                                       labels=("op",))
    return {"sig_hits": SIGNATURE_CACHE_STATS.hits,
            "sig_misses": SIGNATURE_CACHE_STATS.misses,
            "table_hits": engine.labels("table_hits").value,
            "table_reuse": engine.labels("table_reuse").value}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Layers that do work while a world is built.
SETUP_LAYERS = ("crypto.keygen", "crypto.sign", "crypto.canonical",
                "datalog.lex", "datalog.parse")


def traced(name: str, seed: int, seconds: float) -> dict:
    from layers import LAYERS, LayerTracer

    tracer = LayerTracer()
    workload = make_workload(name, seed)
    try:
        tracer.install()
        try:
            setup_ms = timed_build(workload) * 1000
        finally:
            tracer.uninstall()
        setup_self, setup_calls = tracer.snapshot()
        warm = run_ops(workload, 0, 0.0, workload.warmup_ops)
        plain = run_ops(workload, warm["next"], seconds / 2, 1)

        transports = workload.transports()
        wire0, caches0 = _wire_totals(transports), _cache_counters()
        journal0 = workload.journal_bytes()
        tracer.reset()
        tracer.install()
        try:
            run = run_ops(workload, plain["next"], seconds / 2, 1)
        finally:
            tracer.uninstall()
        wire1, caches1 = _wire_totals(transports), _cache_counters()
        journal = workload.journal_bytes() - journal0
        queue_depth = max(t.stats.max_queue_depth for t in transports)
    finally:
        workload.close()

    ops = run["ops"]
    negotiations = sum(op.negotiations for op in ops)
    self_ns, calls = tracer.snapshot()
    per_neg_ms = {layer: self_ns.get(layer, 0) / 1e6 / negotiations
                  for layer in LAYERS}
    wall_ms = run["elapsed"] * 1000 / negotiations
    wire = {key: (wire1[key] - wire0[key]) / negotiations for key in wire0}
    caches = {key: caches1[key] - caches0[key] for key in caches0}

    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    for layer in LAYERS:
        if layer != "crypto.keygen":
            put(f"{layer}.self_ms", per_neg_ms[layer], "ms/neg")
    put("unattributed.self_ms", wall_ms - sum(per_neg_ms.values()), "ms/neg")
    put("datalog.parse.calls", calls.get("datalog.parse", 0) / negotiations,
        "1/neg")
    put("datalog.sld.queries", calls.get("datalog.sld", 0) / negotiations,
        "1/neg")
    put("datalog.sld.table_reuse_ratio",
        _ratio(caches["table_reuse"], caches["table_hits"]), "ratio")
    put("crypto.sig_cache_hit_ratio",
        _ratio(caches["sig_hits"], caches["sig_hits"] + caches["sig_misses"]),
        "ratio")
    put("runtime.scheduler.events", wire.pop("events"), "1/neg")
    put("runtime.scheduler.max_queue_depth", queue_depth, "count")
    for key, value in wire.items():
        put(f"net.{key}", value, "B/neg" if key == "bytes" else "1/neg")
    put("storage.put.calls", calls.get("storage.put", 0) / negotiations,
        "1/neg")
    put("storage.journal_bytes", journal / negotiations, "B/neg")
    for layer in SETUP_LAYERS:
        put(f"setup.{layer}.self_ms", setup_self.get(layer, 0) / 1e6, "ms")
    put("setup.unattributed.self_ms",
        setup_ms - sum(setup_self.values()) / 1e6, "ms")
    put("setup.crypto.keygen.calls", setup_calls.get("crypto.keygen", 0),
        "count")
    untraced = good_per_second(plain)
    put("trace.overhead_pct",
        100 * (untraced - good_per_second(run)) / untraced, "%")

    attempted, failed = outcome_counts(warm["ops"] + plain["ops"] + ops)
    print(f"{name}: traced {len(ops)} operations in {run['elapsed']:.2f} s "
          f"after {len(plain['ops'])} untraced; "
          f"failure_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh interpreter."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for key, metric in result["metrics"].items():
                print(f"   {key:40s} {metric['value']:14.4f} {metric['unit']}")
            status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fixed", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import KEY_BITS, WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.probe:
        result = probe(args.workload, args.seed, args.fixed)
    else:
        print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
              f"key_bits={KEY_BITS} seed={args.seed}")
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
