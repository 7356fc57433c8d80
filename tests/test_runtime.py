"""Event-driven runtime: scheduler determinism, interleaving, continuation
protocol, and session-cache hygiene.

Covers the ISSUE-3 satellites: same seed + same workload must replay an
identical event trace and identical results (with and without an active
fault plan); ``run_many`` interleaves dozens of negotiations on one
scheduler; an ``AnswerMessage`` for an unknown or already-resumed
continuation raises :class:`ProtocolError`; and evicting a session drops
the transport's per-session dedup caches.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.net.message import AnswerMessage, QueryMessage
from repro.net.faults import uniform_plan
from repro.net.transport import RetryPolicy, Transport, constant_latency
from repro.runtime import run_many, run_negotiation, scheduler_for
from repro.workloads.generator import build_bilateral_fleet


def _constant_fleet(pair_count: int, faults: bool):
    """A fleet with size-independent latency (session-id strings vary in
    length across runs inside one process, so the default bandwidth model
    would perturb timings between otherwise identical runs)."""
    fleet = build_bilateral_fleet(pair_count)
    fleet.world.transport.latency = constant_latency(1.0)
    if faults:
        fleet.world.inject_faults(
            uniform_plan(seed=71, drop=0.08, duplicate=0.08, delay_rate=0.1,
                         delay_ms=3.0))
        fleet.world.set_retry(RetryPolicy(max_attempts=3, jitter_ms=0.0))
    return fleet


def _fingerprint(report):
    """Everything that must replay identically: outcomes, per-session
    counters, spans, and the scheduler's alias-labelled event trace.
    ``sig_cache_hits`` is excluded — it reflects the warmth of the
    process-global signature cache, not scheduler behaviour."""
    return (
        [(result.granted, result.failure_kind,
          sorted(item for item in result.session.counters.items()
                 if item[0] != "sig_cache_hits"))
         for result in report.results],
        report.spans,
        report.events,
        report.trace,
    )


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("faults", [False, True])
    def test_same_seed_same_trace(self, faults):
        first = _constant_fleet(6, faults).run_interleaved()
        second = _constant_fleet(6, faults).run_interleaved()
        assert first.trace  # the trace is populated at all
        assert _fingerprint(first) == _fingerprint(second)

    def test_fault_plan_changes_the_trace_but_stays_deterministic(self):
        clean = _constant_fleet(6, faults=False).run_interleaved()
        chaotic = _constant_fleet(6, faults=True).run_interleaved()
        assert clean.trace != chaotic.trace
        again = _constant_fleet(6, faults=True).run_interleaved()
        assert _fingerprint(chaotic) == _fingerprint(again)


class TestRunMany:
    def test_thirty_two_interleaved_negotiations(self):
        fleet = _constant_fleet(32, faults=False)
        report = fleet.run_interleaved()
        assert len(report.results) == 32
        assert report.granted == 32
        # Genuinely interleaved on one scheduler: the opening queries are
        # all in flight together, and the batch finishes in far less
        # simulated time than the negotiations laid end to end.
        assert report.max_queue_depth >= 32
        assert report.makespan_ms < report.serial_ms
        assert report.events > 0

    def test_interleaved_matches_serial_outcomes(self):
        serial = _constant_fleet(8, faults=False).run_serial()
        interleaved = _constant_fleet(8, faults=False).run_interleaved()
        assert [r.granted for r in serial] == \
               [r.granted for r in interleaved.results]
        assert all(r.granted for r in serial)

    def test_stagger_spaces_the_starts(self):
        report = _constant_fleet(4, faults=False).run_interleaved(
            stagger_ms=50.0)
        starts = [start for start, _end in report.spans]
        assert starts == sorted(starts)
        assert starts[-1] - starts[0] >= 150.0

    def test_facade_single_negotiation(self):
        fleet = _constant_fleet(1, faults=False)
        spec = fleet.specs[0]
        result = run_negotiation(spec.requester, spec.provider, spec.goal)
        assert result.granted
        assert fleet.world.stats.events_processed > 0


class TestContinuationProtocol:
    def test_answer_for_unknown_query_raises_protocol_error(self):
        fleet = _constant_fleet(1, faults=False)
        scheduler = scheduler_for(fleet.world.transport)
        forged = AnswerMessage(sender="ServerX", receiver="Client0",
                               session_id="no-such-session", query_id=987654)
        with pytest.raises(ProtocolError):
            scheduler.deliver_answer(forged)

    def test_answer_for_already_resumed_query_raises(self):
        fleet = _constant_fleet(1, faults=False)
        transport = fleet.world.transport
        spec = fleet.specs[0]
        captured = {}
        original_deliver = None

        scheduler = scheduler_for(transport)
        original_deliver = scheduler.deliver_answer

        def capture(message):
            captured.setdefault("answer", message)
            return original_deliver(message)

        scheduler.deliver_answer = capture
        result = run_negotiation(spec.requester, spec.provider, spec.goal)
        scheduler.deliver_answer = original_deliver
        assert result.granted
        replay = captured["answer"]
        with pytest.raises(ProtocolError):
            scheduler.deliver_answer(replay)

    def test_purged_session_orphans_continuations(self):
        fleet = _constant_fleet(1, faults=False)
        transport = fleet.world.transport
        scheduler = scheduler_for(transport)
        query = QueryMessage(sender="a", receiver="b", session_id="s-gone",
                             goal=fleet.specs[0].goal)

        class _Exchange:
            message = query
            completed = False

        scheduler._pending[query.message_id] = _Exchange()
        scheduler.purge_session("s-gone")
        late = AnswerMessage(sender="b", receiver="a", session_id="s-gone",
                             query_id=query.message_id)
        with pytest.raises(ProtocolError):
            scheduler.deliver_answer(late)


class TestSessionCacheHygiene:
    def test_negotiation_leaves_no_per_session_state(self):
        fleet = _constant_fleet(4, faults=False)
        transport = fleet.world.transport
        fleet.run_interleaved()
        assert transport._reply_cache == {}
        assert transport._delivered_oneway == {}
        assert len(transport.sessions) == 0
        assert scheduler_for(transport)._pending == {}

    def test_negotiation_leaves_no_cyclic_garbage(self):
        # Evaluation contexts, sessions and transcripts are freed by
        # reference counting alone: nothing waits for the cyclic collector.
        import gc

        from repro.scenarios.elearn import (
            build_scenario1,
            run_discount_negotiation,
        )

        scenario = build_scenario1(key_bits=512)
        gc.collect()
        gc.disable()
        try:
            result = run_discount_negotiation(scenario)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert result.granted
        assert garbage == 0

    def test_capacity_bound_evicts_oldest_and_purges_caches(self):
        transport = Transport(max_sessions=2)
        for index in range(4):
            transport.sessions.get_or_create(f"cap-{index}", "x")
            transport._reply_cache[f"cap-{index}"] = {("x", "y", index): None}
        assert len(transport.sessions) == 2
        assert transport.sessions.evictions == 2
        assert set(transport._reply_cache) == {"cap-2", "cap-3"}

    def test_forget_fires_evict_hook(self):
        transport = Transport()
        transport.sessions.get_or_create("h-1", "x")
        transport._reply_cache["h-1"] = {("a", "b", 1): None}
        transport._delivered_oneway["h-1"] = {("a", "b", 2)}
        transport.sessions.forget("h-1")
        assert "h-1" not in transport._reply_cache
        assert "h-1" not in transport._delivered_oneway


class TestStatsSurface:
    def test_snapshot_reports_per_kind_and_queue_depth(self):
        fleet = _constant_fleet(4, faults=False)
        fleet.run_interleaved()
        snapshot = fleet.world.stats.snapshot()
        assert snapshot["by_kind"].get("QueryMessage", 0) > 0
        assert snapshot["bytes_by_kind"].get("QueryMessage", 0) > 0
        assert snapshot["max_queue_depth"] >= 4
        assert snapshot["events_processed"] == fleet.world.stats.events_processed
        assert "duplicates_suppressed" in snapshot


class TestSynchronousEntryPoints:
    def test_request_from_inside_an_event_raises(self):
        """A synchronous call made while the scheduler dispatches an event
        must refuse to run rather than pump other negotiations' events and
        move the shared clock mid-event."""
        fleet = _constant_fleet(2, faults=False)
        transport = fleet.world.transport
        scheduler = scheduler_for(transport)
        other = fleet.specs[1]
        seen = {}

        def probe():
            before = (transport.stats.events_processed, transport.now_ms,
                      transport.stats.messages)
            try:
                transport.request(QueryMessage(
                    sender=other.requester.name, receiver=other.provider,
                    session_id="probe", goal=other.goal))
            except RuntimeError as error:
                seen["error"] = error
            seen["moved"] = (transport.stats.events_processed,
                             transport.now_ms,
                             transport.stats.messages) != before

        # Queued between the first pair's opening query and its delivery.
        scheduler.schedule(0.5, "probe", probe)
        report = run_many([fleet.specs[0]])
        assert isinstance(seen.get("error"), RuntimeError)
        assert seen["moved"] is False
        assert report.results[0].granted
        assert not scheduler.running

    def test_transport_request_runs_on_the_event_loop(self):
        fleet = _constant_fleet(1, faults=False)
        transport = fleet.world.transport
        spec = fleet.specs[0]
        before = transport.stats.events_processed
        reply = transport.request(QueryMessage(
            sender=spec.requester.name, receiver=spec.provider,
            session_id="sync-request", goal=spec.goal))
        assert isinstance(reply, AnswerMessage) and reply.items
        assert transport.stats.events_processed > before
        assert scheduler_for(transport)._pending == {}
