"""E5 — Policy-graph scaling.

Sweeps the depth × branching of the provider's policy tree.  Leaf count is
branching**depth; every leaf demands one client credential, so messages and
disclosures grow linearly in the leaf count while the provider's local
policy evaluation adds the interior-node overhead.
"""

import time

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.determinism import reset_all
from repro.workloads.generator import build_policy_tree
from repro.workloads.metrics import measure_negotiation

CONFIGURATIONS = [(1, 1), (1, 4), (2, 2), (3, 2), (2, 3), (4, 2)]


def test_e5_policy_graph_sweep(benchmark):
    rows = []
    for depth, branching in CONFIGURATIONS:
        reset_all()  # fresh-variable names, hence bytes, start from fixed counters
        workload = build_policy_tree(depth, branching, key_bits=KEY_BITS)
        started = time.perf_counter()
        result, report = measure_negotiation(workload)
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert result.granted
        rows.append({
            "depth": depth,
            "branching": branching,
            "leaves": branching ** depth,
            "messages": report.messages,
            "disclosures": report.disclosures,
            "bytes": report.bytes,
            "wall_ms": round(elapsed_ms, 2),
        })
    print_table(rows, title="E5 - policy-tree scaling (leaves = branching^depth)")

    # Disclosures track the leaf count exactly.
    assert all(row["disclosures"] == row["leaves"] for row in rows)

    def negotiate_tree():
        workload = build_policy_tree(3, 2, key_bits=KEY_BITS)
        result, _ = measure_negotiation(workload)
        assert result.granted

    benchmark(negotiate_tree)
