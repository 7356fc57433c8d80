"""E4 — Delegation-chain scaling.

Sweeps the length of the signed-delegation chain behind one credential
(the §3.1 registrar pattern, stretched to grid proportions) and reports
negotiation cost.  Expected shape: messages stay constant (one query, one
answer carrying the whole chain) while bytes and wall time grow linearly
with chain length — the certified proof is the thing that grows.
"""

import time

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.determinism import reset_all
from repro.workloads.generator import build_delegation_chain
from repro.workloads.metrics import measure_negotiation

CHAIN_LENGTHS = (1, 2, 4, 8, 16, 32)


def test_e4_delegation_chain_sweep(benchmark):
    rows = []
    for length in CHAIN_LENGTHS:
        reset_all()  # fresh-variable names, hence bytes, start from fixed counters
        workload = build_delegation_chain(length, key_bits=KEY_BITS)
        started = time.perf_counter()
        result, report = measure_negotiation(workload)
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert result.granted
        rows.append({
            "chain length": length,
            "granted": result.granted,
            "messages": report.messages,
            "bytes": report.bytes,
            "credentials": report.disclosures,
            "wall_ms": round(elapsed_ms, 2),
        })
    print_table(rows, title="E4 - delegation-chain scaling")

    # Shape assertions: constant messages, linearly growing bytes.
    assert len({row["messages"] for row in rows}) == 1
    byte_counts = [row["bytes"] for row in rows]
    assert all(b1 < b2 for b1, b2 in zip(byte_counts, byte_counts[1:]))

    def negotiate_chain_8():
        workload = build_delegation_chain(8, key_bits=KEY_BITS)
        result, _ = measure_negotiation(workload)
        assert result.granted

    benchmark(negotiate_chain_8)
