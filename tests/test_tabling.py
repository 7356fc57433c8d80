"""GEM-style distributed tabling (``--tabling gem``).

The contract under test (ISSUE 8):

- the mutual-membership scenario returns sound, *complete* answers under
  ``gem``, with byte-identical traffic per seed, with and without a fault
  plan;
- the default ``inflight`` strategy is untouched: re-entrant queries still
  prune (``loops_detected``) and no tables appear;
- repeated queries on a completed goal are served from the table;
- tables leaked by an aborted evaluation are demoted, never trusted;
- the session counters surface as the ``peertrust_negotiation_*`` family.
"""

from __future__ import annotations

import pytest

from repro.datalog.parser import parse_literal
from repro.datalog.terms import reset_fresh_variables
from repro.net.faults import uniform_plan
from repro.net.message import QueryMessage, reset_message_ids
from repro.net.transport import RetryPolicy, constant_latency
from repro.negotiation.session import (
    TABLE_COMPLETE,
    TABLE_TENTATIVE,
    reset_session_ids,
)
from repro.runtime import run_negotiation, scheduler_for
from repro.scenarios.mutual_membership import (
    EXPECTED_MEMBERS,
    build_mutual_membership,
    run_membership_query,
)
from repro.workloads.generator import build_mutual_membership_workload

KEY_BITS = 512


def _members(result) -> set[str]:
    return {str(literal.args[0]).strip('"')
            for literal, _ in result.answers}


def _scenario(tabling: str):
    scenario = build_mutual_membership(key_bits=KEY_BITS)
    scenario.transport.tabling = tabling
    scenario.transport.latency = constant_latency(1.0)
    return scenario


class TestGemCompleteness:
    def test_gem_returns_all_members(self):
        result = run_membership_query(_scenario("gem"))
        assert result.granted
        assert _members(result) == set(EXPECTED_MEMBERS)

    def test_gem_matches_inflight_answers(self):
        gem = run_membership_query(_scenario("gem"))
        inflight = run_membership_query(_scenario("inflight"))
        assert _members(gem) == _members(inflight) == set(EXPECTED_MEMBERS)

    def test_gem_exercises_the_table_machinery(self):
        result = run_membership_query(_scenario("gem"))
        counters = result.session.counters
        assert counters["tables_activated"] >= 2
        assert counters["table_subscriptions"] >= 1
        assert counters["tables_completed"] >= 2
        assert counters.get("loops_detected", 0) == 0

    def test_querying_either_institution_is_complete(self):
        for provider in ("StateU", "TechU"):
            result = run_membership_query(_scenario("gem"), provider=provider)
            assert _members(result) == set(EXPECTED_MEMBERS), provider

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_generated_workloads_match_across_strategies(self, depth):
        expected = {f"m{level}{side}"
                    for level in range(depth + 1) for side in "ab"}
        for tabling in ("inflight", "gem"):
            workload = build_mutual_membership_workload(
                depth=depth, key_bits=KEY_BITS)
            workload.world.transport.tabling = tabling
            result = workload.run()
            assert result.granted, tabling
            assert _members(result) == expected, tabling


class TestInflightUnchanged:
    def test_default_strategy_is_inflight(self):
        scenario = build_mutual_membership(key_bits=KEY_BITS)
        assert scenario.transport.tabling == "inflight"

    def test_inflight_still_prunes_loops_without_tables(self):
        result = run_membership_query(_scenario("inflight"))
        counters = result.session.counters
        assert counters["loops_detected"] >= 1
        assert counters.get("tables_activated", 0) == 0
        assert _members(result) == set(EXPECTED_MEMBERS)


def _event_fingerprint(tabling: str, faults: bool):
    """One event-runtime negotiation from a cold, deterministic start:
    identity counters reset, constant latency, optional seeded fault plan.
    Returns everything that must replay byte-identically."""
    reset_message_ids()
    reset_session_ids()
    reset_fresh_variables()
    scenario = _scenario(tabling)
    if faults:
        scenario.world.inject_faults(uniform_plan(
            seed=97, drop=0.05, duplicate=0.05, delay_rate=0.1, delay_ms=2.0))
        scenario.world.set_retry(RetryPolicy(max_attempts=4, jitter_ms=0.0))
    result = run_membership_query(scenario)
    scheduler = scheduler_for(scenario.transport)
    transcript = tuple(
        (event.kind, event.actor, event.counterpart)
        for event in result.session.transcript)
    return {
        "members": frozenset(_members(result)),
        "granted": result.granted,
        "trace": tuple(scheduler.trace),
        "transcript": transcript,
        "messages": scenario.transport.stats.messages,
        "bytes": scenario.transport.stats.bytes,
    }


class TestDeterminism:
    @pytest.mark.parametrize("faults", [False, True])
    def test_gem_event_trace_replays_byte_identically(self, faults):
        first = _event_fingerprint("gem", faults)
        second = _event_fingerprint("gem", faults)
        assert first["trace"]
        assert first == second
        assert first["members"] == EXPECTED_MEMBERS

    def test_inflight_traffic_is_not_perturbed_by_the_flag(self):
        # The gem code paths are dormant unless opted in: an inflight run
        # in a process that has run gem negotiations replays the inflight
        # fingerprint exactly.
        baseline = _event_fingerprint("inflight", faults=False)
        _event_fingerprint("gem", faults=False)
        again = _event_fingerprint("inflight", faults=False)
        assert baseline == again


class TestTableLifecycle:
    def test_repeat_query_is_served_from_the_completed_table(self):
        scenario = _scenario("gem")
        transport = scenario.transport
        session = transport.sessions.get_or_create(
            "repeat-session", "Client", scenario.client.max_nesting)
        goal = parse_literal("member(X)")
        first = transport.request(QueryMessage(
            sender="Client", receiver="StateU", session_id=session.id,
            goal=goal))
        passes_after_first = session.counters["table_passes"]
        second = transport.request(QueryMessage(
            sender="Client", receiver="StateU", session_id=session.id,
            goal=goal))
        assert session.counters["table_hits"] >= 1
        # No re-evaluation: the second answer came from stored solutions.
        assert session.counters["table_passes"] == passes_after_first
        first_answers = {str(i.answered_literal) for i in first.items}
        second_answers = {str(i.answered_literal) for i in second.items}
        assert first_answers == second_answers

    def test_audit_demotes_leaked_active_tables(self):
        scenario = _scenario("gem")
        session = scenario.transport.sessions.get_or_create(
            "leak-session", "Client", scenario.client.max_nesting)
        node = session.activate_table("StateU", ("member", 1))
        assert node.status != TABLE_TENTATIVE
        session.audit_in_flight()
        assert node.status == TABLE_TENTATIVE
        assert session.counters["tables_leaked"] == 1

    def test_complete_tables_respects_the_order_threshold(self):
        scenario = _scenario("gem")
        session = scenario.transport.sessions.get_or_create(
            "threshold-session", "Client", scenario.client.max_nesting)
        low = session.activate_table("StateU", ("a", 1))
        high = session.activate_table("StateU", ("b", 1))
        low.status = TABLE_TENTATIVE
        high.status = TABLE_TENTATIVE
        promoted = session.complete_tables("StateU", high.order)
        assert promoted == 1
        assert high.status == TABLE_COMPLETE
        assert low.status == TABLE_TENTATIVE


class TestCountersMetricFamily:
    def test_session_counters_surface_as_prometheus_family(self):
        from repro.obs.metrics import MetricsRegistry, install_default_collectors

        registry = install_default_collectors(MetricsRegistry())
        run_membership_query(_scenario("gem"))
        text = registry.render_prometheus()
        assert "peertrust_negotiation_counters_total" in text
        assert 'counter="tables_activated"' in text
        assert 'counter="granted"' in text

    def test_tabling_event_family_registered(self):
        from repro.obs.metrics import global_registry

        run_membership_query(_scenario("gem"))
        text = global_registry().render_prometheus()
        assert "peertrust_tabling_events_total" in text
        assert 'event="activations"' in text


class TestGemUnderFaults:
    def test_gem_survives_moderate_chaos(self):
        scenario = _scenario("gem")
        scenario.world.inject_faults(uniform_plan(
            seed=1337, drop=0.1, duplicate=0.1))
        scenario.world.set_retry(RetryPolicy(
            max_attempts=6, base_delay_ms=2.0, multiplier=2.0,
            max_delay_ms=50.0, jitter_ms=0.5))
        result = run_membership_query(scenario)
        assert result.granted
        assert _members(result) == set(EXPECTED_MEMBERS)
