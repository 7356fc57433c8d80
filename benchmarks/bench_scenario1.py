"""E1 — Scenario 1 (§4.1): Alice & E-Learn.

Paper claim reproduced: "Alice will be able to access the discounted
enrollment service at E-Learn", with the registrar delegation chain and the
BBB-gated bilateral release exercised.  The benchmark times the whole
negotiation (fresh world per round, cached keys); the table reports the
negotiation's message/byte/disclosure profile.
"""

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.determinism import reset_all
from repro.scenarios.elearn import (
    build_scenario1,
    run_discount_negotiation,
    run_free_police_enrollment,
)


def _profile(run, name):
    reset_all()  # fresh-variable names, hence bytes, start from fixed counters
    scenario = build_scenario1(key_bits=KEY_BITS)
    scenario.world.reset_metrics()
    result = run(scenario)
    stats = scenario.world.stats
    counters = result.session.counters
    return {
        "negotiation": name,
        "granted": result.granted,
        "messages": stats.messages,
        "bytes": stats.bytes,
        "sim_ms": round(stats.simulated_ms, 2),
        "queries": counters.get("query", 0),
        "disclosures": counters.get("disclose", 0),
        "release_checks": counters.get("release_checks", 0),
    }


def test_e1_discount_negotiation(benchmark):
    rows = [
        _profile(run_discount_negotiation, "discountEnroll (ELENA preferred)"),
        _profile(run_free_police_enrollment, "freeEnroll (police badge)"),
    ]
    print_table(rows, title="E1 - Scenario 1 negotiation profile")
    assert all(row["granted"] for row in rows)

    def negotiate_once():
        scenario = build_scenario1(key_bits=KEY_BITS)
        result = run_discount_negotiation(scenario)
        assert result.granted
        return result

    benchmark(negotiate_once)


def test_e1_police_enrollment(benchmark):
    def negotiate_once():
        scenario = build_scenario1(key_bits=KEY_BITS)
        result = run_free_police_enrollment(scenario)
        assert result.granted
        return result

    benchmark(negotiate_once)
