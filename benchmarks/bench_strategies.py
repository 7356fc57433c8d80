"""E6 — Strategy comparison: eager vs parsimonious (§5, after Yu et al.).

On alternating release-dependency chains both strategies succeed (the
interoperability property); parsimonious pays ~2x the messages of eager
(request/response per link vs one disclosure push per round) while both
disclose the same minimal credential set on this workload.  On random
bilateral workloads the strategies always agree on the outcome, and eager's
disclosure count dominates parsimonious's.
"""

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.determinism import reset_all
from repro.workloads.generator import (
    build_alternating_chain,
    build_random_bilateral,
)
from repro.workloads.metrics import measure_negotiation

DEPTHS = (1, 2, 4, 8)
SEEDS = range(12)


def test_e6_strategy_chain_comparison(benchmark):
    rows = []
    for depth in DEPTHS:
        for strategy in ("parsimonious", "eager"):
            reset_all()  # fresh-variable names, hence bytes, start from fixed counters
            workload = build_alternating_chain(depth, key_bits=KEY_BITS)
            result, report = measure_negotiation(workload, strategy)
            assert result.granted
            rows.append({
                "chain depth": depth,
                "strategy": strategy,
                "messages": report.messages,
                "bytes": report.bytes,
                "disclosures": report.disclosures,
                "queries": report.queries,
            })
    print_table(rows, title="E6 - eager vs parsimonious on alternating chains")

    # Shape: parsimonious needs more messages at every depth.
    for depth in DEPTHS:
        pars = next(r for r in rows
                    if r["chain depth"] == depth and r["strategy"] == "parsimonious")
        eager = next(r for r in rows
                     if r["chain depth"] == depth and r["strategy"] == "eager")
        assert pars["messages"] > eager["messages"]

    def eager_chain():
        workload = build_alternating_chain(4, key_bits=KEY_BITS)
        result, _ = measure_negotiation(workload, "eager")
        assert result.granted

    benchmark(eager_chain)


def test_e6_interoperability(benchmark):
    agreements = 0
    pars_disclosures = 0
    eager_disclosures = 0
    for seed in SEEDS:
        outcome = {}
        for strategy in ("parsimonious", "eager"):
            reset_all()
            workload = build_random_bilateral(seed, key_bits=KEY_BITS)
            result, report = measure_negotiation(workload, strategy)
            outcome[strategy] = result.granted
            if strategy == "parsimonious":
                pars_disclosures += report.disclosures
            else:
                eager_disclosures += report.disclosures
        agreements += outcome["parsimonious"] == outcome["eager"]

    print_table([{
        "random workloads": len(list(SEEDS)),
        "outcome agreements": agreements,
        "parsimonious disclosures (total)": pars_disclosures,
        "eager disclosures (total)": eager_disclosures,
    }], title="E6 - strategy interoperability on random bilateral workloads")

    assert agreements == len(list(SEEDS))
    assert eager_disclosures >= pars_disclosures

    def parsimonious_random():
        workload = build_random_bilateral(3, key_bits=KEY_BITS)
        measure_negotiation(workload, "parsimonious")

    benchmark(parsimonious_random)
