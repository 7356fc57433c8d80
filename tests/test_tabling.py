"""GEM-style distributed tabling: the answering path of every query.

The contract under test:

- the mutual-membership scenario returns sound, *complete* answers, with
  byte-identical traffic per seed, with and without a fault plan;
- a cycle that must be walked twice returns every answer (in-flight
  pruning lost all but the first two);
- repeated queries on a completed goal are served from the table, but
  never across requesters when rules mention ``Requester``, and never
  after an evaluation that lost answers to a failure;
- tables leaked by an aborted evaluation are demoted, never trusted;
- the session counters surface as the ``peertrust_negotiation_*`` family.
"""

from __future__ import annotations

import pytest

from repro import World, negotiate
from repro.datalog.parser import parse_literal
from repro.datalog.terms import reset_fresh_variables
from repro.net.faults import uniform_plan
from repro.net.message import (
    AnswerMessage,
    QueryMessage,
    TableAnswerMessage,
    reset_message_ids,
)
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


def _scenario():
    scenario = build_mutual_membership(key_bits=KEY_BITS)
    scenario.transport.latency = constant_latency(1.0)
    return scenario


class TestGemCompleteness:
    def test_gem_returns_all_members(self):
        result = run_membership_query(_scenario())
        assert result.granted
        assert _members(result) == set(EXPECTED_MEMBERS)

    def test_gem_exercises_the_table_machinery(self):
        result = run_membership_query(_scenario())
        counters = result.session.counters
        assert counters["tables_activated"] >= 2
        assert counters["table_subscriptions"] >= 1
        assert counters["tables_completed"] >= 2
        assert counters.get("loops_detected", 0) == 0

    def test_querying_either_institution_is_complete(self):
        for provider in ("StateU", "TechU"):
            result = run_membership_query(_scenario(), provider=provider)
            assert _members(result) == set(EXPECTED_MEMBERS), provider

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_generated_workloads_match_across_strategies(self, depth):
        # Every depth's complete relation, with no branch lost to a prune.
        expected = {f"m{level}{side}"
                    for level in range(depth + 1) for side in "ab"}
        workload = build_mutual_membership_workload(
            depth=depth, key_bits=KEY_BITS)
        result = workload.run()
        assert result.granted
        assert _members(result) == expected
        assert result.session.counters.get("loops_detected", 0) == 0

    def test_cycle_walked_twice_returns_every_answer(self):
        # A's second clause needs B's answers, which are A's own: each
        # answer A derives feeds the next step.  Pruning the re-entrant
        # query stopped after p("a1"); the table's fixpoint reaches p("a3").
        world = World(key_bits=KEY_BITS)
        world.add_peer("A", """
            p(X) <-{true} start(X).
            p(X) <-{true} q(Y) @ "B", step(Y, X).
            start("a0").
            step("a0", "a1").
            step("a1", "a2").
            step("a2", "a3").
        """, max_answers=8)
        world.add_peer("B", 'q(X) <-{true} p(X) @ "A".', max_answers=8)
        client = world.add_peer("Client", max_answers=8)
        world.distribute_keys()
        result = negotiate(client, "A", parse_literal("p(X)"))
        assert result.granted
        assert {str(literal) for literal, _ in result.answers} == {
            'p("a0")', 'p("a1")', 'p("a2")', 'p("a3")'}
        assert result.session.counters["table_fixpoint_rounds"] >= 1


def _event_fingerprint(faults: bool):
    """One event-runtime negotiation from a cold, deterministic start:
    identity counters reset, constant latency, optional seeded fault plan.
    Returns everything that must replay byte-identically."""
    reset_message_ids()
    reset_session_ids()
    reset_fresh_variables()
    scenario = _scenario()
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
        first = _event_fingerprint(faults)
        second = _event_fingerprint(faults)
        assert first["trace"]
        assert first == second
        assert first["members"] == EXPECTED_MEMBERS


class TestTableLifecycle:
    def test_repeat_query_is_served_from_the_completed_table(self):
        scenario = _scenario()
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

    def test_rules_mentioning_requester_keep_a_table_per_requester(self):
        # p's answers depend on who asks: R2 must not be served the table
        # evaluated for R1 earlier in the same session.
        world = World(key_bits=KEY_BITS)
        world.add_peer("P", """
            p(X) <-{true} grant(Requester, X).
            grant("R1", "x").
        """)
        world.add_peer("R1")
        world.add_peer("R2")
        world.distribute_keys()
        transport = world.transport
        session = transport.sessions.get_or_create("two-requesters", "R1")

        def ask(requester):
            reply = transport.request(QueryMessage(
                sender=requester, receiver="P", session_id=session.id,
                goal=parse_literal("p(X)")))
            return {str(item.answered_literal) for item in reply.items}

        assert ask("R1") == {'p("x")'}
        assert ask("R2") == set()

    def test_tables_without_requester_rules_are_shared(self):
        world = World(key_bits=KEY_BITS)
        provider = world.add_peer("P", 'p(X) <-{true} base(X).\nbase("x").')
        world.add_peer("R1")
        world.add_peer("R2")
        world.distribute_keys()
        transport = world.transport
        session = transport.sessions.get_or_create("shared-table", "R1")

        def ask(requester):
            reply = transport.request(QueryMessage(
                sender=requester, receiver="P", session_id=session.id,
                goal=parse_literal("p(X)")))
            return {str(item.answered_literal) for item in reply.items}

        assert ask("R1") == {'p("x")'}
        assert ask("R2") == {'p("x")'}
        assert session.counters["table_hits"] == 1
        # Once a rule mentions Requester, R2 gets a table of its own.
        provider.load_program(
            'p(X) <-{true} grant(Requester, X).\ngrant("R2", "y").')
        assert ask("R2") == {'p("x")', 'p("y")'}

    def test_evaluation_that_lost_answers_is_not_completed(self):
        # Helper's reply is lost on the first query, so that pass derives
        # p("a") only; the repeat must evaluate again, not serve p("a").
        world = World(key_bits=KEY_BITS)
        world.add_peer("Server", """
            p(X) <-{true} local(X).
            p(X) <-{true} q(X) @ "Helper".
            local("a").
        """)
        world.add_peer("Helper", 'q(X) <-{true} h(X).\nh("b").')
        world.add_peer("Client")
        world.distribute_keys()
        transport = world.transport
        losing = [True]
        transport.drop = lambda message: losing[0] and (
            isinstance(message, AnswerMessage) and message.sender == "Helper")
        session = transport.sessions.get_or_create("lossy", "Client")

        def ask():
            reply = transport.request(QueryMessage(
                sender="Client", receiver="Server", session_id=session.id,
                goal=parse_literal("p(X)")))
            return {str(item.answered_literal) for item in reply.items}

        assert ask() == {'p("a")'}
        assert session.counters["network_failures"] == 1
        assert session.counters["tables_lossy"] == 1
        losing[0] = False
        assert ask() == {'p("a")', 'p("b")'}
        assert session.counters["table_hits"] == 1  # Helper's complete q(X)
        assert ask() == {'p("a")', 'p("b")'}
        assert session.counters["table_hits"] == 2  # Server's, now complete

    def test_lost_reply_that_hid_a_cycle_is_led_again_by_its_table(self):
        # TechU's replies to StateU are lost, so StateU's first evaluation
        # never sees the cycle it leads.  Its table stays tentative under
        # its first activation order, so the repeat leads the SCC as usual
        # instead of TechU electing itself against a newer table.
        scenario = _scenario()
        transport = scenario.transport
        transport.drop = lambda message: (
            isinstance(message, (AnswerMessage, TableAnswerMessage))
            and message.sender == "TechU" and message.receiver == "StateU")
        session = transport.sessions.get_or_create(
            "hidden-cycle", "Client", scenario.client.max_nesting)

        def ask():
            reply = transport.request(QueryMessage(
                sender="Client", receiver="StateU", session_id=session.id,
                goal=parse_literal("member(X)")))
            return {str(item.answered_literal) for item in reply.items}

        assert ask() == {'member("alice")', 'member("bob")'}
        transport.drop = None
        expected = {f'member("{name}")' for name in EXPECTED_MEMBERS}
        assert ask() == expected
        assert session.counters["table_fixpoint_capped"] == 0
        assert ask() == expected
        assert session.counters["table_hits"] == 1

    def test_audit_demotes_leaked_active_tables(self):
        scenario = _scenario()
        session = scenario.transport.sessions.get_or_create(
            "leak-session", "Client", scenario.client.max_nesting)
        node = session.activate_table("StateU", ("member", 1))
        assert node.status != TABLE_TENTATIVE
        session.audit_in_flight()
        assert node.status == TABLE_TENTATIVE
        assert session.counters["tables_leaked"] == 1

    def test_complete_tables_respects_the_order_threshold(self):
        scenario = _scenario()
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
        run_membership_query(_scenario())
        text = registry.render_prometheus()
        assert "peertrust_negotiation_counters_total" in text
        assert 'counter="tables_activated"' in text
        assert 'counter="granted"' in text

    def test_tabling_event_family_registered(self):
        # Every table lifecycle event is a session counter, or a transcript
        # kind that Session.log counts, exported by the negotiation family.
        from repro.net.message import TableCompleteMessage
        from repro.obs.metrics import MetricsRegistry, install_default_collectors

        registry = install_default_collectors(MetricsRegistry())
        scenario = _scenario()
        session = scenario.transport.sessions.get_or_create(
            "events-session", "Client", scenario.client.max_nesting)
        for _ in range(2):  # the repeat is served from the complete table
            scenario.transport.request(QueryMessage(
                sender="Client", receiver="StateU", session_id=session.id,
                goal=parse_literal("member(X)")))
        lossy = _scenario()
        lossy.transport.drop = lambda message: isinstance(
            message, TableCompleteMessage)
        run_membership_query(lossy)
        text = registry.render_prometheus()
        for counter in ("table_hits", "table_subscriptions",
                        "tables_activated", "table_passes",
                        "table_fixpoint_rounds", "table_complete_lost",
                        "table-notify", "table-complete"):
            assert ('peertrust_negotiation_counters_total'
                    f'{{counter="{counter}"}}') in text, counter


class TestGemUnderFaults:
    def test_gem_survives_moderate_chaos(self):
        scenario = _scenario()
        scenario.world.inject_faults(uniform_plan(
            seed=1337, drop=0.1, duplicate=0.1))
        scenario.world.set_retry(RetryPolicy(
            max_attempts=6, base_delay_ms=2.0, multiplier=2.0,
            max_delay_ms=50.0, jitter_ms=0.5))
        result = run_membership_query(scenario)
        assert result.granted
        assert _members(result) == set(EXPECTED_MEMBERS)
