"""Fault-plan and transport-resilience tests.

Covers the deterministic fault model (seeded drop/duplicate/corrupt/delay,
crash windows, payload tampering), the retry policy (backoff charged to the
simulated clock, idempotent redelivery, exactly-once handler execution),
per-session deadlines, session-table lifecycle, and the failure counters
the negotiation engine records under faults.
"""

import pytest

from repro import World
from repro.credentials.credential import issue_credential, verify_credential
from repro.crypto.keys import KeyRing, keypair_for
from repro.datalog.parser import parse_literal, parse_rule
from repro.errors import (
    DeadlineExceeded,
    MessageTooLargeError,
    PeerUnavailableError,
    SignatureError,
    TransientNetworkError,
)
from repro.net.faults import (
    FaultPlan,
    FaultRule,
    tamper_message,
    tampered_credential,
    uniform_plan,
)
from repro.net.message import AnswerItem, AnswerMessage, QueryMessage
from repro.net.transport import (
    RetryPolicy,
    Transport,
    constant_latency,
    jittered_latency,
)

KEY_BITS = 512


class EchoPeer:
    """Minimal handler that counts how many times it actually executes."""

    def __init__(self, name):
        self.name = name
        self.handled = 0

    def handle(self, message):
        self.handled += 1
        return AnswerMessage(sender=self.name, receiver=message.sender,
                             session_id=message.session_id,
                             query_id=message.message_id, items=())


def query(sender="a", receiver="b", session_id="s1", text="ping"):
    return QueryMessage(sender=sender, receiver=receiver,
                        session_id=session_id, goal=parse_literal(text))


def make_transport(**kwargs):
    transport = Transport(latency=constant_latency(1.0), **kwargs)
    a, b = EchoPeer("a"), EchoPeer("b")
    transport.register(a)
    transport.register(b)
    return transport, a, b


def sample_credential(issuer="FaultCA"):
    keys = keypair_for(issuer, KEY_BITS)
    return keys, issue_credential(
        parse_rule(f'c("X") signedBy ["{issuer}"].'), keys)


# ---------------------------------------------------------------------------
# FaultPlan semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def _decisions(self, plan, messages):
        return [(d.drop, d.duplicate, d.corrupt, d.extra_delay_ms)
                for d in (plan.decide(m, 0.0) for m in messages)]

    def test_same_seed_replays_identically(self):
        messages = [query(text=f"p({i})") for i in range(20)]
        first = uniform_plan(seed=42, drop=0.3, duplicate=0.3, corrupt=0.2,
                             delay_rate=0.5, delay_ms=4.0)
        second = uniform_plan(seed=42, drop=0.3, duplicate=0.3, corrupt=0.2,
                              delay_rate=0.5, delay_ms=4.0)
        assert self._decisions(first, messages) == self._decisions(second, messages)

    def test_different_seeds_diverge(self):
        messages = [query(text=f"p({i})") for i in range(40)]
        first = uniform_plan(seed=1, drop=0.5)
        second = uniform_plan(seed=2, drop=0.5)
        assert self._decisions(first, messages) != self._decisions(second, messages)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(sender="a", drop=1.0),
            FaultRule(drop=0.0),
        ))
        assert plan.decide(query(sender="a"), 0.0).drop
        assert not plan.decide(query(sender="c", receiver="b"), 0.0).drop

    def test_kind_selector(self):
        plan = FaultPlan(seed=0, rules=(FaultRule(kind="AnswerMessage", drop=1.0),))
        assert not plan.decide(query(), 0.0).drop
        reply = AnswerMessage(sender="b", receiver="a", session_id="s1")
        assert plan.decide(reply, 0.0).drop

    def test_unmatched_message_is_untouched(self):
        plan = FaultPlan(seed=0, rules=(FaultRule(receiver="z", drop=1.0),))
        decision = plan.decide(query(), 0.0)
        assert not (decision.drop or decision.duplicate or decision.corrupt)

    def test_crash_window_boundaries(self):
        plan = FaultPlan().crash("b", 10.0, 20.0)
        assert not plan.is_down("b", 9.9)
        assert plan.is_down("b", 10.0)
        assert plan.is_down("b", 19.9)
        assert not plan.is_down("b", 20.0)  # restarted
        assert not plan.is_down("a", 15.0)

    def test_crash_overrides_rules(self):
        plan = uniform_plan(seed=0).crash("b", 0.0, 5.0)
        decision = plan.decide(query(), 1.0)
        assert decision.drop and decision.crashed
        assert plan.stats["crash_drops"] == 1

    def test_stats_count_injections(self):
        plan = uniform_plan(seed=0, drop=1.0)
        for _ in range(5):
            plan.decide(query(), 0.0)
        assert plan.stats["drops"] == 5

    def test_delay_bounded_by_rule(self):
        plan = uniform_plan(seed=7, delay_rate=1.0, delay_ms=3.0)
        for _ in range(30):
            decision = plan.decide(query(), 0.0)
            assert 0.0 <= decision.extra_delay_ms <= 3.0


class TestTampering:
    def test_tampered_credential_fails_verification(self):
        keys, credential = sample_credential()
        keyring = KeyRing()
        keyring.add(keys.public)
        verify_credential(credential, keyring)  # intact: verifies
        with pytest.raises(SignatureError):
            verify_credential(tampered_credential(credential), keyring)

    def test_tamper_answer_message_damages_one_credential(self):
        keys, credential = sample_credential()
        keyring = KeyRing()
        keyring.add(keys.public)
        reply = AnswerMessage(
            sender="b", receiver="a", session_id="s1",
            items=(AnswerItem(bindings={}, credentials=(credential,)),))
        damaged = tamper_message(reply)
        assert damaged is not None and damaged is not reply
        with pytest.raises(SignatureError):
            verify_credential(damaged.items[0].credentials[0], keyring)
        # The original message is untouched (frozen dataclasses, new copies).
        verify_credential(reply.items[0].credentials[0], keyring)

    def test_untamperable_payloads_return_none(self):
        assert tamper_message(query()) is None
        failure = AnswerMessage(sender="b", receiver="a", session_id="s1")
        assert tamper_message(failure) is None


class TestRetryPolicy:
    def test_backoff_exponential_and_capped(self):
        import random

        policy = RetryPolicy(base_delay_ms=5.0, multiplier=2.0,
                             max_delay_ms=200.0, jitter_ms=0.0)
        rng = random.Random(0)
        assert policy.backoff_ms(1, rng) == 5.0
        assert policy.backoff_ms(2, rng) == 10.0
        assert policy.backoff_ms(3, rng) == 20.0
        assert policy.backoff_ms(10, rng) == 200.0  # capped


# ---------------------------------------------------------------------------
# Transport resilience
# ---------------------------------------------------------------------------


class TestTransportRetries:
    def _drop_first_queries(self, count):
        seen = {"n": 0}

        def drop(message):
            if message.kind == "QueryMessage":
                seen["n"] += 1
                return seen["n"] <= count
            return False

        return drop

    def test_retry_recovers_from_transient_drops(self):
        transport, _, b = make_transport(
            retry=RetryPolicy(max_attempts=3, jitter_ms=0.0),
            drop=self._drop_first_queries(2))
        reply = transport.request(query())
        assert isinstance(reply, AnswerMessage)
        assert b.handled == 1
        assert transport.stats.retries == 2
        assert transport.stats.dropped == 2

    def test_backoff_charged_to_simulated_clock(self):
        transport, _, _ = make_transport(
            retry=RetryPolicy(max_attempts=3, base_delay_ms=5.0,
                              multiplier=2.0, jitter_ms=0.0),
            drop=self._drop_first_queries(2))
        transport.request(query())
        # 1ms dropped + 5ms backoff + 1ms dropped + 10ms backoff
        # + 1ms query + 1ms reply
        assert transport.stats.simulated_ms == pytest.approx(19.0)
        assert transport.now_ms == pytest.approx(19.0)

    def test_retries_exhausted_reraise_transient(self):
        transport, _, b = make_transport(
            retry=RetryPolicy(max_attempts=2, jitter_ms=0.0),
            drop=lambda m: m.kind == "QueryMessage")
        session = transport.sessions.get_or_create("s1", "a")
        with pytest.raises(TransientNetworkError):
            transport.request(query())
        assert b.handled == 0
        assert transport.stats.retries == 1
        assert session.counters["gave_up"] == 1

    def test_no_retry_without_policy(self):
        transport, _, _ = make_transport(drop=lambda m: True)
        with pytest.raises(TransientNetworkError):
            transport.request(query())
        assert transport.stats.retries == 0

    def test_oversize_is_never_retried(self):
        transport, _, _ = make_transport(
            retry=RetryPolicy(max_attempts=5, jitter_ms=0.0))
        transport.max_message_bytes = 10
        with pytest.raises(MessageTooLargeError):
            transport.request(query())
        assert transport.stats.retries == 0

    def test_corrupt_query_detected_not_retried(self):
        # A query carries no credentials to tamper, so corruption surfaces
        # as a deterministic checksum failure at the edge: no retry.
        transport, _, b = make_transport(
            faults=uniform_plan(seed=0, corrupt=1.0),
            retry=RetryPolicy(max_attempts=5, jitter_ms=0.0))
        with pytest.raises(SignatureError):
            transport.request(query())
        assert transport.stats.retries == 0
        assert b.handled == 0


class TestExactlyOnceExecution:
    def test_duplicate_delivery_runs_handler_once(self):
        transport, _, b = make_transport(
            faults=uniform_plan(seed=0, duplicate=1.0))
        reply = transport.request(query())
        assert isinstance(reply, AnswerMessage)
        assert b.handled == 1
        assert transport.stats.duplicates_suppressed >= 1
        assert transport.faults.stats["duplicates"] >= 1

    def test_lost_reply_retry_hits_reply_cache(self):
        state = {"dropped": False}

        def drop_first_reply(message):
            if message.kind == "AnswerMessage" and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        transport, _, b = make_transport(
            retry=RetryPolicy(max_attempts=2, jitter_ms=0.0),
            drop=drop_first_reply)
        reply = transport.request(query())
        assert isinstance(reply, AnswerMessage)
        # The handler ran for the first attempt; the retry after the lost
        # reply was served from the reply cache — exactly-once execution.
        assert b.handled == 1
        assert transport.stats.retries == 1
        assert transport.stats.duplicates_suppressed == 1

    def test_release_session_evicts_reply_cache(self):
        transport, _, b = make_transport()
        message = query()
        transport.request(message)
        transport.request(message)  # same id: deduped
        assert b.handled == 1
        transport.release_session("s1")
        transport.request(message)  # cache gone: handler executes again
        assert b.handled == 2


class TestCrashWindows:
    def test_patient_retry_outlasts_outage(self):
        plan = FaultPlan(seed=1).crash("b", 0.0, 10.0)
        transport, _, b = make_transport(
            faults=plan,
            retry=RetryPolicy(max_attempts=3, base_delay_ms=6.0,
                              multiplier=2.0, jitter_ms=0.0))
        transport.latency = constant_latency(2.0)
        # t=0 down, t=8 still down, t=22 (after 12ms backoff) restarted.
        reply = transport.request(query())
        assert isinstance(reply, AnswerMessage)
        assert b.handled == 1
        assert plan.stats["crash_drops"] == 2
        assert transport.stats.retries == 2

    def test_impatient_caller_fails_during_outage(self):
        plan = FaultPlan(seed=1).crash("b", 0.0, 10.0)
        transport, _, _ = make_transport(faults=plan)
        with pytest.raises(PeerUnavailableError):
            transport.request(query())

    def test_registry_liveness_marks(self):
        transport, _, _ = make_transport()
        transport.registry.mark_down("b")
        with pytest.raises(PeerUnavailableError):
            transport.request(query())
        transport.registry.mark_up("b")
        assert isinstance(transport.request(query()), AnswerMessage)


class TestDeadlines:
    def test_expired_deadline_raises(self):
        transport, _, _ = make_transport()
        session = transport.sessions.get_or_create("s1", "a")
        session.set_deadline(transport.now_ms)  # zero budget
        with pytest.raises(DeadlineExceeded):
            transport.request(query())
        assert session.counters["deadline_exceeded"] == 1
        assert any(e.kind == "deadline" for e in session.transcript)

    def test_deadline_checked_between_retries(self):
        transport, _, _ = make_transport(
            retry=RetryPolicy(max_attempts=5, base_delay_ms=10.0,
                              jitter_ms=0.0),
            drop=lambda m: m.kind == "QueryMessage")
        session = transport.sessions.get_or_create("s1", "a")
        session.set_deadline(transport.now_ms + 5.0)
        # Attempt 1 fits the budget; the 10ms backoff blows it before
        # attempt 2 — the deadline wins over further retries.
        with pytest.raises(DeadlineExceeded):
            transport.request(query())
        assert session.counters["retries"] == 1
        assert session.counters["gave_up"] == 0

    def test_set_deadline_only_tightens(self):
        session_table_free = Transport().sessions
        session = session_table_free.get_or_create("s", "a")
        session.set_deadline(100.0)
        session.set_deadline(500.0)
        assert session.deadline_at_ms == 100.0
        session.set_deadline(50.0)
        assert session.deadline_at_ms == 50.0


class TestSessionLifecycle:
    def test_release_session_forgets_by_default(self):
        transport, _, _ = make_transport()
        transport.sessions.get_or_create("s1", "a")
        assert len(transport.sessions) == 1
        transport.release_session("s1")
        assert len(transport.sessions) == 0

    def test_negotiations_do_not_grow_session_table(self):
        from repro import negotiate

        world = World(key_bits=KEY_BITS)
        world.add_peer("Server", "open(1) <-{true} true.")
        client = world.add_peer("Client")
        world.distribute_keys()
        for _ in range(5):
            assert negotiate(client, "Server", parse_literal("open(1)")).granted
        assert len(world.transport.sessions) == 0

    def test_audit_clears_stranded_in_flight(self):
        session = Transport().sessions.get_or_create("s", "a")
        session.enter_remote("a", "b", ("p", 1))
        assert session.audit_in_flight() == 1
        assert not session.in_flight
        assert session.counters["in_flight_leaked"] == 1


class TestJitteredLatency:
    def test_deterministic_per_args_not_call_order(self):
        model = jittered_latency(seed=3)
        first = model("a", "b", 10)
        model("x", "y", 99)  # unrelated call must not perturb the link
        model("a", "c", 10)
        assert model("a", "b", 10) == first

    def test_varies_across_links_and_sizes(self):
        model = jittered_latency(seed=3, jitter_ms=5.0)
        samples = {model("a", "b", 10), model("a", "c", 10),
                   model("a", "b", 11), model("b", "a", 10)}
        assert len(samples) > 1


# ---------------------------------------------------------------------------
# Engine failure counters under faults (satellite: counter coverage)
# ---------------------------------------------------------------------------


class ScriptedProvider:
    """A transport-registered handler answering every query with a fixed
    item list — lets tests inject malformed answers a real Peer never sends."""

    def __init__(self, name, items):
        self.name = name
        self.items = tuple(items)

    def handle(self, message):
        return AnswerMessage(sender=self.name, receiver=message.sender,
                             session_id=message.session_id,
                             query_id=message.message_id, items=self.items)


class TestFailureCounters:
    def _client_world(self):
        world = World(key_bits=KEY_BITS)
        client = world.add_peer("Client")
        world.distribute_keys()
        return world, client

    def test_unknown_target_counted(self):
        world, client = self._client_world()
        session = world.transport.sessions.get_or_create("s-unknown", "Client")
        solutions = client.local_query(parse_literal('p("a") @ "Ghost"'),
                                       session=session)
        assert not solutions
        assert session.counters["unknown_targets"] == 1

    def test_nesting_exhausted_counted(self):
        world, client = self._client_world()
        world.add_peer("Server")
        session = world.transport.sessions.get_or_create(
            "s-nest", "Client", max_nesting=0)
        solutions = client.local_query(parse_literal('p("a") @ "Server"'),
                                       session=session)
        assert not solutions
        assert session.counters["nesting_exhausted"] == 1

    def test_bad_credentials_counted_and_not_admitted(self):
        world, client = self._client_world()
        stranger = keypair_for("Stranger", KEY_BITS)  # key unknown to Client
        credential = issue_credential(
            parse_rule('thing("a") signedBy ["Stranger"].'), stranger)
        world.transport.register(ScriptedProvider("Faker", [AnswerItem(
            bindings={}, credentials=(credential,),
            answered_literal=parse_literal('thing("a")'))]))
        session = world.transport.sessions.get_or_create("s-bad", "Client")
        solutions = client.local_query(parse_literal('thing("a") @ "Faker"'),
                                       session=session)
        assert not solutions
        assert session.counters["bad_credentials"] == 1
        # The unverifiable credential never reached the session overlay.
        assert len(session.received_for("Client")) == 0

    def test_mismatched_answer_counted(self):
        world, client = self._client_world()
        world.transport.register(ScriptedProvider("Faker", [AnswerItem(
            bindings={}, answered_literal=parse_literal('other("b")'))]))
        session = world.transport.sessions.get_or_create("s-mismatch", "Client")
        solutions = client.local_query(parse_literal('thing("a") @ "Faker"'),
                                       session=session)
        assert not solutions
        assert session.counters["mismatched_answers"] == 1

    def test_provider_degrades_when_third_party_unreachable(self):
        # Provider needs a third party that is unreachable: the lost branch
        # is recorded and the provider answers with a denial instead of
        # propagating the outage to its requester.
        world = World(key_bits=KEY_BITS)
        world.add_peer("Provider",
                       'open(X) <-{true} vouch(X) @ "Third".')
        world.add_peer("Third", "vouch(1).")
        client = world.add_peer("Client")
        world.distribute_keys()
        world.transport.drop = (
            lambda m: m.kind == "QueryMessage" and m.receiver == "Third")
        from repro import negotiate

        result = negotiate(client, "Provider", parse_literal("open(1)"))
        assert not result.granted
        assert result.failure_kind == "denied"
        assert result.session.counters["network_failures"] >= 1
        assert any(e.kind == "gave-up" for e in result.session.transcript)
