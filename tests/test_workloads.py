"""Workload-generator structure and metrics tests."""

import pytest

from repro.workloads.generator import (
    build_alternating_chain,
    build_bilateral_fleet,
    build_cyclic_release,
    build_delegation_chain,
    build_divergent_world,
    build_peer_ring,
    build_policy_tree,
    build_random_bilateral,
)
from repro.workloads.metrics import measure_negotiation

KEY_BITS = 512


class TestGeneratorStructure:
    def test_delegation_chain_credential_count(self):
        workload = build_delegation_chain(5, key_bits=KEY_BITS)
        assert len(workload.requester.credentials) == 5  # 4 delegations + leaf

    def test_delegation_chain_length_one(self):
        workload = build_delegation_chain(1, key_bits=KEY_BITS)
        assert len(workload.requester.credentials) == 1
        assert measure_negotiation(workload)[0].granted

    def test_policy_tree_leaf_count(self):
        workload = build_policy_tree(3, 2, key_bits=KEY_BITS)
        assert len(workload.requester.credentials) == 8  # 2^3 leaves

    def test_peer_ring_peer_count(self):
        workload = build_peer_ring(6, key_bits=KEY_BITS)
        assert len(workload.world.peers) == 7  # ring + client

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_delegation_chain(0)
        with pytest.raises(ValueError):
            build_policy_tree(0, 2)
        with pytest.raises(ValueError):
            build_peer_ring(1)
        with pytest.raises(ValueError):
            build_alternating_chain(0)

    def test_random_bilateral_deterministic_per_seed(self):
        first = build_random_bilateral(99, key_bits=KEY_BITS)
        second = build_random_bilateral(99, key_bits=KEY_BITS)
        first_rules = sorted(str(r) for r in first.world.peers["Server"].kb.rules())
        second_rules = sorted(str(r) for r in second.world.peers["Server"].kb.rules())
        assert first_rules == second_rules

    def test_bilateral_fleet_key_rings(self):
        fleet = build_bilateral_fleet(3, key_bits=KEY_BITS)
        world = fleet.world
        principals = sorted(f"{role}{index}" for index in range(3)
                            for role in ("Server", "Client", "CA"))
        for peer in world.peers.values():
            assert peer.keyring.principals() == principals
            for name in principals:
                assert (peer.keyring.get(name).fingerprint
                        == world.keys_for(name).public.fingerprint)

    def test_expect_success_flags(self):
        assert build_delegation_chain(2, key_bits=KEY_BITS).expect_success
        assert not build_cyclic_release(key_bits=KEY_BITS).expect_success
        assert not build_divergent_world(key_bits=KEY_BITS).expect_success


class TestMetrics:
    def test_report_fields(self):
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        result, report = measure_negotiation(workload)
        assert report.granted == result.granted
        assert report.messages >= 2
        assert report.bytes > 0
        assert report.simulated_ms > 0
        assert report.wall_seconds > 0
        assert report.description == workload.description

    def test_row_rendering(self):
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        _, report = measure_negotiation(workload)
        row = report.row()
        assert row["workload"] == workload.description
        assert row["strategy"] == "parsimonious"

    def test_transport_counters_reset_per_measurement(self):
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        _, first = measure_negotiation(workload)
        _, second = measure_negotiation(workload)
        # Second run reuses session caches, so it can only be cheaper.
        assert second.messages <= first.messages

    def test_custom_runner(self):
        from repro.negotiation.strategies import eager_negotiate

        workload = build_alternating_chain(2, key_bits=KEY_BITS)
        result, report = measure_negotiation(
            workload, "eager",
            runner=lambda: eager_negotiate(workload.requester,
                                           workload.provider_name,
                                           workload.goal))
        assert result.granted and report.strategy == "eager"

    def test_capture_registry_delta(self):
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        _, report = measure_negotiation(workload, capture_registry=True)
        delta = report.extra["metrics_delta"]
        assert delta["peertrust_negotiation_sim_ms_count"] == 1
        assert delta["peertrust_negotiation_messages_count"] == 1
        # The delta stays out of the flat benchmark row.
        assert "metrics_delta" not in report.row()

    def test_negotiation_histograms_observed(self):
        from repro.obs.metrics import global_registry

        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        before = global_registry().snapshot()
        measure_negotiation(workload)
        delta = global_registry().delta(before)
        assert delta["peertrust_negotiation_sim_ms_count"] == 1
        assert delta["peertrust_negotiation_sim_ms_sum"] > 0


class TestTableRendering:
    def test_format_table(self):
        from repro.bench.reporting import format_table

        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None, "c": True}]
        text = format_table(rows, title="T")
        assert "T" in text and "22" in text and "yes" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_empty_table(self):
        from repro.bench.reporting import format_table

        assert "(no rows)" in format_table([])
