"""Scatter-gather remote evaluation and per-session disclosure deltas.

Covers the ISSUE-4 tentpole: a conjunction of independent remote sub-goals
fans out as one concurrent batch (``Transport.max_in_flight`` > 1) with the
same answers, deterministic traces (with and without a fault plan), and a
strictly smaller simulated makespan; ``max_in_flight=1`` leaves the gather
hook uninstalled so defaults replay the sequential behaviour exactly.
Delta coverage: repeat disclosures inside one session travel as
:class:`~repro.net.message.CredentialRef` entries, the receiver resolves
them from its session cache without re-verifying, unresolvable references
reject the item, and cross-item duplicate payloads are deduped.
"""

from __future__ import annotations

import pytest

from repro.datalog.parser import parse_literal
from repro.datalog.substitution import Substitution
from repro.negotiation.engine import EvalContext
from repro.net.faults import uniform_plan
from repro.net.message import (
    AnswerItem,
    QueryMessage,
    credential_ref,
    dedup_answer_credentials,
    ref_matches,
)
from repro.net.transport import RetryPolicy, constant_latency
from repro.runtime import run_negotiation, scheduler_for
from repro.scenarios.services import build_scenario2
from repro.workloads.generator import build_fanout_workload
from repro.world import World


def _gather_workload(width: int, max_in_flight: int, faults: bool = False):
    workload = build_fanout_workload(width)
    transport = workload.world.transport
    transport.latency = constant_latency(1.0)
    transport.max_in_flight = max_in_flight
    if faults:
        workload.world.inject_faults(
            uniform_plan(seed=29, drop=0.05, duplicate=0.05, delay_rate=0.1,
                         delay_ms=2.0))
        workload.world.set_retry(RetryPolicy(max_attempts=3, jitter_ms=0.0))
    return workload


def _run(workload):
    transport = workload.world.transport
    start = transport.now_ms
    result = run_negotiation(workload.requester, workload.provider_name,
                             workload.goal)
    elapsed = transport.now_ms - start
    trace = tuple(scheduler_for(transport).trace)
    return result, elapsed, trace


class TestScatterGather:
    def test_gather_fires_and_answers_match_sequential(self):
        sequential, seq_elapsed, _ = _run(_gather_workload(4, max_in_flight=1))
        gathered, gat_elapsed, _ = _run(_gather_workload(4, max_in_flight=4))
        assert sequential.granted and gathered.granted
        assert sequential.answers == gathered.answers
        assert gathered.session.counters["gather_batches"] == 1
        assert gathered.session.counters["gather_calls"] == 4
        assert gat_elapsed < seq_elapsed

    def test_sequential_default_has_no_gather_state(self):
        result, _, trace = _run(_gather_workload(4, max_in_flight=1))
        repeat, _, repeat_trace = _run(_gather_workload(4, max_in_flight=1))
        assert result.granted and repeat.granted
        assert "gather_batches" not in result.session.counters
        assert trace == repeat_trace

    @pytest.mark.parametrize("faults", [False, True])
    def test_gathered_trace_is_deterministic(self, faults):
        first, first_ms, first_trace = _run(
            _gather_workload(6, max_in_flight=6, faults=faults))
        second, second_ms, second_trace = _run(
            _gather_workload(6, max_in_flight=6, faults=faults))
        assert first_trace  # populated at all
        assert first_trace == second_trace
        assert first_ms == second_ms
        assert first.granted == second.granted
        assert first.answers == second.answers

    def test_window_smaller_than_fanout_still_succeeds(self):
        gathered, elapsed, _ = _run(_gather_workload(8, max_in_flight=3))
        sequential, seq_elapsed, _ = _run(_gather_workload(8, max_in_flight=1))
        assert gathered.granted
        assert gathered.answers == sequential.answers
        # Window 3 over 8 calls: ceil(8/3) = 3 waves of round-trips instead
        # of 8, plus the enclosing client exchange.
        assert elapsed < seq_elapsed

    def test_faulty_gather_matches_faulty_sequential_outcome(self):
        sequential, _, _ = _run(_gather_workload(4, max_in_flight=1,
                                                 faults=True))
        gathered, _, _ = _run(_gather_workload(4, max_in_flight=4,
                                               faults=True))
        assert sequential.granted == gathered.granted
        assert sorted(map(str, sequential.answers)) == sorted(
            map(str, gathered.answers))


def _repeat_session_replies(deltas: bool, rounds: int = 2):
    scenario = build_scenario2()
    transport = scenario.world.transport
    transport.disclosure_deltas = deltas
    session = transport.sessions.get_or_create(
        "repeat-session", "Bob", scenario.bob.max_nesting)
    goal = parse_literal('enroll(cs101, "Bob", Company, Email, 0)')
    replies = []
    for _ in range(rounds):
        replies.append(transport.request(QueryMessage(
            sender="Bob", receiver="E-Learn", session_id=session.id,
            goal=goal)))
    return replies, session


class TestDisclosureDeltas:
    def test_repeat_answer_travels_as_ref(self):
        replies, session = _repeat_session_replies(deltas=True)
        first_item = replies[0].items[0]
        repeat_item = replies[1].items[0]
        assert first_item.answer_credential is not None
        assert first_item.answer_credential_ref is None
        assert repeat_item.answer_credential is None
        assert repeat_item.answer_credential_ref is not None
        assert ref_matches(repeat_item.answer_credential_ref,
                           first_item.answer_credential)
        assert session.counters["delta_refs_sent"] >= 1
        assert replies[1].wire_size() < replies[0].wire_size()

    def test_without_deltas_repeats_ship_full_payloads(self):
        replies, session = _repeat_session_replies(deltas=False)
        repeat_item = replies[1].items[0]
        assert repeat_item.answer_credential is not None
        assert repeat_item.answer_credential_ref is None
        assert "delta_refs_sent" not in session.counters


def _absorb_fixture():
    """A receiver peer, a session whose overlay caches one credential, and
    an EvalContext positioned to absorb an answer item from peer B."""
    world = World()
    receiver = world.add_peer("A")
    world.add_peer("B")
    world.distribute_keys()
    credential = world.credential('vouch("A") signedBy ["B"].')
    session = world.transport.sessions.get_or_create("s-absorb", "A")
    session.received_for("A").add(credential)
    receiver.require_certified_answers = False
    context = EvalContext(
        peer=receiver, session=session, requester="A", kb=receiver.kb,
        stores=[receiver.credentials, session.received_for("A")])
    return world, receiver, session, credential, context


def _absorb(context, session, item):
    goal = parse_literal('vouch("A")')
    return list(context._absorb_answer_item(
        goal, goal, Substitution.empty(), "B", item))


class TestRefResolution:
    def test_resolved_ref_admits_answer_without_reverification(self):
        _world, _receiver, session, credential, context = _absorb_fixture()
        item = AnswerItem(
            bindings={}, answered_literal=parse_literal('vouch("A")'),
            answer_credential_ref=credential_ref(credential))
        solutions = _absorb(context, session, item)
        assert len(solutions) == 1
        assert session.counters["delta_ref_hits"] == 1

    def test_unresolvable_ref_rejects_item(self):
        world, _receiver, session, _credential, context = _absorb_fixture()
        stranger = world.credential('other("A") signedBy ["B"].')
        item = AnswerItem(
            bindings={}, answered_literal=parse_literal('vouch("A")'),
            answer_credential_ref=credential_ref(stranger))
        assert _absorb(context, session, item) == []
        assert session.counters["unresolved_refs"] == 1


class TestCrossItemDedup:
    def test_duplicate_payloads_collapse_across_items(self):
        world = World()
        world.add_peer("B")
        world.distribute_keys()
        shared = world.credential('vouch("A") signedBy ["B"].')
        other = world.credential('other("A") signedBy ["B"].')
        items = (
            AnswerItem(bindings={}, credentials=(shared,),
                       answer_credential=other),
            AnswerItem(bindings={}, credentials=(shared, other)),
            AnswerItem(bindings={}, credentials=(shared, shared)),
        )
        deduped = dedup_answer_credentials(items)
        assert deduped[0].credentials == (shared,)
        # The second item re-shipped both: one as a sibling's payload, one
        # as a sibling's answer credential.
        assert deduped[1].credentials == ()
        assert deduped[2].credentials == ()
        serials = [c.serial for item in deduped for c in item.credentials]
        assert len(serials) == len(set(serials))

    def test_negotiation_answers_carry_no_duplicate_payloads(self):
        workload = _gather_workload(4, max_in_flight=4)
        transport = workload.world.transport
        answers = []
        original = transport.begin_transmission

        def spying(message):
            if hasattr(message, "items"):
                answers.append(message)
            return original(message)

        transport.begin_transmission = spying
        result = run_negotiation(workload.requester, workload.provider_name,
                                 workload.goal)
        assert result.granted
        assert answers
        # No AnswerMessage on the wire may ship the same payload twice.
        for reply in answers:
            serials = [c.serial for item in reply.items
                       for c in item.credentials]
            assert len(serials) == len(set(serials)), reply
