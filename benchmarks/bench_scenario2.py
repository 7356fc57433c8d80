"""E2 — Scenario 2 (§4.2): Bob / IBM / E-Learn / VISA.

Paper claims reproduced: IBM employees enroll in free courses; with IBM
outside ELENA the free course fails but the purchase still succeeds; the
revocation check blocks a revoked card; the broker variant works.
"""

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.determinism import reset_all
from repro.scenarios.services import (
    build_scenario2,
    revoke_ibm_card,
    run_free_enrollment,
    run_paid_enrollment,
)


def _profile(name, build_kwargs, run, expect, mutate=None):
    reset_all()  # fresh-variable names, hence bytes, start from fixed counters
    scenario = build_scenario2(key_bits=KEY_BITS, **build_kwargs)
    if mutate:
        mutate(scenario)
    scenario.world.reset_metrics()
    result = run(scenario)
    stats = scenario.world.stats
    return {
        "variant": name,
        "granted": result.granted,
        "expected": expect,
        "messages": stats.messages,
        "bytes": stats.bytes,
        "sim_ms": round(stats.simulated_ms, 2),
    }


def test_e2_enrollment_variants(benchmark):
    rows = [
        _profile("free course (IBM in ELENA)", {}, run_free_enrollment, True),
        _profile("paid course + VISA check", {}, run_paid_enrollment, True),
        _profile("free, IBM not in ELENA", {"ibm_in_elena": False},
                 run_free_enrollment, False),
        _profile("paid, IBM not in ELENA", {"ibm_in_elena": False},
                 run_paid_enrollment, True),
        _profile("paid, card revoked", {}, run_paid_enrollment, False,
                 mutate=revoke_ibm_card),
        _profile("paid via authority broker", {"use_broker": True},
                 run_paid_enrollment, True),
        _profile("paid, no revocation check", {"revocation_check": False},
                 run_paid_enrollment, True),
    ]
    print_table(rows, title="E2 - Scenario 2 variants (granted vs expected)")
    assert all(row["granted"] == row["expected"] for row in rows)

    def paid_once():
        scenario = build_scenario2(key_bits=KEY_BITS)
        result = run_paid_enrollment(scenario)
        assert result.granted
        return result

    benchmark(paid_once)


def test_e2_free_enrollment(benchmark):
    def free_once():
        scenario = build_scenario2(key_bits=KEY_BITS)
        result = run_free_enrollment(scenario)
        assert result.granted
        return result

    benchmark(free_once)
