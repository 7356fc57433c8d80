"""Chaos suite: full negotiations under seeded network faults.

Runs the paper's scenarios over a transport with a deterministic
:class:`repro.net.faults.FaultPlan` and checks the robustness contract:

- moderate chaos (drops + duplicates) is absorbed by retries and the paper
  outcomes still hold;
- total chaos (100% drop) terminates with a clean, classified failure —
  no hang, no escaping exception, no stranded ``in_flight`` entries;
- corruption never admits an unverified credential into any session
  overlay;
- scheduled crash windows are outlasted by patient retry policies;
- deadline budgets convert exhaustion into a clean "deadline" outcome.

``CHAOS_SEED`` (env, default 1337) selects the replayable fault stream, so
CI can pin a seed while local runs can explore others.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import World, negotiate, parse_literal
from repro.credentials.credential import verify_credential
from repro.errors import SignatureError
from repro.net.faults import FaultPlan, uniform_plan
from repro.net.transport import RetryPolicy
from repro.scenarios.elena_network import build_elena_network

KEY_BITS = 512
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))

PATIENT = RetryPolicy(max_attempts=6, base_delay_ms=2.0, multiplier=2.0,
                      max_delay_ms=50.0, jitter_ms=0.5)


def overlay_credentials_all_verify(session, world):
    """Every credential in every per-peer overlay of ``session`` verifies
    against that peer's keyring — the no-unverified-material invariant."""
    for peer_name, peer in world.peers.items():
        for credential in session.received_for(peer_name).credentials():
            verify_credential(credential, peer.keyring)  # raises on tamper
    return True


@pytest.fixture()
def network():
    return build_elena_network(key_bits=KEY_BITS)


class TestModerateChaos:
    """10% drop + 10% duplication: retries absorb the weather and the
    paper's §3/§4 outcomes still hold."""

    def test_alice_free_enrollment_survives(self, network):
        network.world.inject_faults(
            uniform_plan(seed=CHAOS_SEED, drop=0.1, duplicate=0.1))
        network.world.set_retry(PATIENT)
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'))
        assert result.granted
        assert not result.session.in_flight
        assert overlay_credentials_all_verify(result.session, network.world)

    def test_bob_brokered_enrollment_survives(self, network):
        network.world.inject_faults(
            uniform_plan(seed=CHAOS_SEED, drop=0.1, duplicate=0.1))
        network.world.set_retry(PATIENT)
        result = negotiate(network.bob, "E-Learn",
                           parse_literal('enroll(cs411, "Bob")'))
        assert result.granted
        assert not result.session.in_flight

    def test_chaos_was_actually_injected(self, network):
        plan = uniform_plan(seed=CHAOS_SEED, drop=0.1, duplicate=0.1)
        network.world.inject_faults(plan)
        network.world.set_retry(PATIENT)
        negotiate(network.alice, "E-Learn",
                  parse_literal('enroll(spanish205, "Alice")'))
        negotiate(network.bob, "E-Learn", parse_literal('enroll(cs411, "Bob")'))
        # The runs above must have seen real faults, or the suite proves
        # nothing: the plan's own stats disambiguate.
        assert plan.stats["drops"] + plan.stats["duplicates"] >= 1

    def test_same_seed_replays_same_traffic(self):
        costs = []
        for _ in range(2):
            net = build_elena_network(key_bits=KEY_BITS)
            net.world.inject_faults(
                uniform_plan(seed=CHAOS_SEED, drop=0.15, duplicate=0.1))
            net.world.set_retry(PATIENT)
            result = negotiate(net.alice, "E-Learn",
                               parse_literal('enroll(spanish205, "Alice")'))
            costs.append((result.granted, net.world.stats.messages,
                          net.world.stats.dropped,
                          round(net.world.stats.simulated_ms, 6)))
        assert costs[0] == costs[1]


class TestTotalChaos:
    """100% drop: the negotiation must terminate promptly and cleanly."""

    def test_clean_failure_no_exception_no_leak(self, network):
        network.world.inject_faults(uniform_plan(seed=CHAOS_SEED, drop=1.0))
        network.world.set_retry(RetryPolicy(max_attempts=3, jitter_ms=0.0))
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'))
        assert not result.granted
        assert result.failure_kind == "network"
        assert "retries" in result.failure_reason
        assert not result.session.in_flight
        assert result.session.counters["in_flight_leaked"] == 0
        # The session was evicted from the transport table.
        assert network.world.transport.sessions.get(result.session.id) is None

    def test_eager_strategy_also_terminates(self, network):
        network.world.inject_faults(uniform_plan(seed=CHAOS_SEED, drop=1.0))
        network.world.set_retry(RetryPolicy(max_attempts=2, jitter_ms=0.0))
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'),
                           strategy="eager")
        assert not result.granted
        assert result.failure_kind in ("denied", "network")
        assert result.session.counters["lost_disclosures"] >= 1
        assert not result.session.in_flight


class TestCorruption:
    """Tampered payloads are rejected by verification; nothing unverified
    ever enters a session overlay (the answer set can only shrink)."""

    def test_no_unverified_credential_admitted(self, network):
        from repro.net.faults import FaultRule

        # Corrupt every *reply*: queries still flow, so the negotiation
        # actually exchanges (tampered) credentials before failing.
        network.world.inject_faults(FaultPlan(
            seed=CHAOS_SEED,
            rules=(FaultRule(kind="AnswerMessage", corrupt=1.0),)))
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'))
        # Alice's student/membership disclosures arrive with flipped
        # signature bytes, fail verification at E-Learn, and the free-course
        # path cannot hold.
        assert not result.granted
        assert result.session.counters["bad_credentials"] >= 1
        assert overlay_credentials_all_verify(result.session, network.world)
        assert not result.session.in_flight

    def test_fully_corrupt_link_aborts_cleanly(self, network):
        # Even the initial query is damaged: the edge detects it and the
        # driver converts the deterministic failure into a clean outcome.
        network.world.inject_faults(uniform_plan(seed=CHAOS_SEED, corrupt=1.0))
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'))
        assert not result.granted
        assert result.failure_kind == "corrupt"
        assert not result.session.in_flight

    def test_partial_corruption_still_only_shrinks(self, network):
        network.world.inject_faults(uniform_plan(seed=CHAOS_SEED, corrupt=0.3))
        network.world.set_retry(PATIENT)
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'))
        # Whatever the outcome at this corruption rate, the invariants hold.
        assert overlay_credentials_all_verify(result.session, network.world)
        assert not result.session.in_flight


class TestCrashRestart:
    def _quickstart(self):
        world = World(key_bits=KEY_BITS)
        world.add_peer("Server",
                       'hello(Requester) $ true <- '
                       'friend(Requester) @ "CA" @ Requester.')
        client = world.add_peer(
            "Client", 'friend(X) @ Y $ true <-{true} friend(X) @ Y.')
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Client", 'friend("Client") signedBy ["CA"].')
        return world, client

    def test_patient_retry_outlasts_server_outage(self):
        world, client = self._quickstart()
        world.inject_faults(FaultPlan(seed=CHAOS_SEED).crash("Server", 0.0, 20.0))
        world.set_retry(RetryPolicy(max_attempts=5, base_delay_ms=10.0,
                                    multiplier=2.0, jitter_ms=0.0))
        result = negotiate(client, "Server", parse_literal('hello("Client")'))
        assert result.granted
        assert world.stats.retries >= 1
        assert world.transport.faults.stats["crash_drops"] >= 1

    def test_impatient_client_fails_during_outage(self):
        world, client = self._quickstart()
        world.inject_faults(FaultPlan(seed=CHAOS_SEED).crash("Server", 0.0, 20.0))
        result = negotiate(client, "Server", parse_literal('hello("Client")'))
        assert not result.granted
        assert result.failure_kind == "network"
        assert not result.session.in_flight


class TestCrashRecoveryWindows:
    """Crash windows are *survivable* when the peer has a state store: the
    fleet converges to the same outcomes as a fault-free run, and restarted
    peers come back with their wallets and continue live sessions cold."""

    STAGGER_MS = 5.0
    # Client1's negotiation spans [5.0, ~9.5) simulated ms at this stagger;
    # the window kills it mid-negotiation and restarts at 7.0.
    CRASH_AT, CRASH_UNTIL = 5.0, 7.0

    def _fleet_outcomes(self, attach=None):
        from repro.storage.recovery import schedule_crash_restart
        from repro.workloads.generator import build_bilateral_fleet

        fleet = build_bilateral_fleet(3, key_bits=KEY_BITS)
        if attach is not None:
            attach(fleet.world)
        fleet.world.set_retry(PATIENT)
        schedule_crash_restart(fleet.world.transport, "Client1",
                               self.CRASH_AT, self.CRASH_UNTIL)
        report = fleet.run_interleaved(stagger_ms=self.STAGGER_MS)
        return fleet, report

    def test_baseline_fleet_grants_everything(self):
        from repro.workloads.generator import build_bilateral_fleet

        fleet = build_bilateral_fleet(3, key_bits=KEY_BITS)
        report = fleet.run_interleaved(stagger_ms=self.STAGGER_MS)
        assert [r.granted for r in report.results] == [True, True, True]

    def test_warm_restart_converges_to_fault_free_outcomes(self, attach_stores):
        fleet, report = self._fleet_outcomes(attach=attach_stores)
        # Same outcomes as the no-crash run: the mid-fleet outage was
        # absorbed by patient retries + restart-from-store.
        assert [r.granted for r in report.results] == [True, True, True]
        assert fleet.world.transport.faults.stats["crash_drops"] >= 1
        crashed = report.results[1]
        assert crashed.session.counters["retries"] >= 1

    def test_cold_restart_loses_the_crashed_negotiation(self):
        _, report = self._fleet_outcomes(attach=None)
        # Without a store the restarted client's wallet is gone, so its
        # negotiation fails while the uninvolved pairs are untouched —
        # proving the teardown is real, not cosmetic.
        assert [r.granted for r in report.results] == [True, False, True]

    def _delta_rounds(self, warm: bool, attach=None):
        from repro.datalog.parser import parse_literal
        from repro.net.message import QueryMessage
        from repro.scenarios.services import build_scenario2
        from repro.storage.recovery import restart_peer

        scenario = build_scenario2(key_bits=KEY_BITS)
        transport = scenario.world.transport
        transport.disclosure_deltas = True
        if warm:
            attach(scenario.world)
        session = transport.sessions.get_or_create(
            "repeat-session", "Bob", scenario.bob.max_nesting)
        goal = parse_literal('enroll(cs101, "Bob", Company, Email, 0)')
        replies = []
        for round_index in range(2):
            if round_index == 1:
                restart_peer(transport, "E-Learn")
            replies.append(transport.request(QueryMessage(
                sender="Bob", receiver="E-Learn", session_id=session.id,
                goal=goal)))
        return replies, session

    def test_restarted_peer_reships_disclosures_warm_or_cold(
            self, attach_stores):
        warm_replies, warm_session = self._delta_rounds(
            warm=True, attach=attach_stores)
        cold_replies, _ = self._delta_rounds(warm=False)
        # The wire ledger lives in RAM only, so a store does not change the
        # repeat answer: either way the restarted peer re-ships the full
        # payload instead of a hash reference.
        for replies in (warm_replies, cold_replies):
            assert replies[1].items[0].answer_credential_ref is None
        assert warm_replies[1].wire_size() == cold_replies[1].wire_size()
        assert warm_session.counters["delta_refs_sent"] == 0


class TestRecoveryLoopState:
    """A restarted peer has no suspended evaluations, so restart must not
    resurrect the dead process's loop-detection or tabling residue: phantom
    ``in_flight`` markers would make the peer's next query on the same goal
    look re-entrant (silently pruned), and phantom ACTIVE tables would serve
    subscriptions nothing is evaluating."""

    def _session_with_residue(self, attach=None):
        from repro.workloads.generator import build_bilateral_fleet

        fleet = build_bilateral_fleet(2, key_bits=KEY_BITS)
        if attach is not None:
            attach(fleet.world)
        transport = fleet.world.transport
        session = transport.sessions.get_or_create(
            "residue-session", "Client0", 30)
        goal_key = ("member", 1)
        session.enter_remote("Client0", "Server0", goal_key)
        session.enter_remote("Server0", "Server1", goal_key)
        session.activate_table("Client0", goal_key)
        session.activate_table("Server0", goal_key)
        return transport, session, goal_key

    def test_crash_discards_phantom_in_flight_and_tables(self):
        from repro.storage.recovery import crash_peer

        transport, session, goal_key = self._session_with_residue()
        crash_peer(transport, "Client0")
        # The crashed asker's marker and table are gone; an unrelated
        # peer's survive (its evaluation is still genuinely suspended).
        assert ("Client0", "Server0", goal_key) not in session.in_flight
        assert ("Server0", "Server1", goal_key) in session.in_flight
        assert session.table_for("Client0", goal_key) is None
        assert session.table_for("Server0", goal_key) is not None
        # The goal is queryable again, not phantom-pruned.
        assert session.enter_remote("Client0", "Server0", goal_key)
        assert session.counters.get("loops_detected", 0) == 0

    def test_warm_recovery_does_not_restore_residue(self, attach_stores):
        from repro.storage.recovery import restart_peer

        transport, session, goal_key = self._session_with_residue(
            attach=attach_stores)
        report = restart_peer(transport, "Client0")
        assert report.warm
        assert ("Client0", "Server0", goal_key) not in session.in_flight
        assert session.table_for("Client0", goal_key) is None


class TestDeadlines:
    def test_deadline_exhaustion_is_a_clean_outcome(self, network):
        # A tiny budget expires partway into the nested counter-queries.
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'),
                           deadline_ms=2.5)
        assert not result.granted
        assert result.failure_kind == "deadline"
        assert result.session.counters["deadline_exceeded"] >= 1
        assert any(e.kind == "deadline" for e in result.session.transcript)
        assert not result.session.in_flight

    def test_generous_deadline_does_not_interfere(self, network):
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'),
                           deadline_ms=100000.0)
        assert result.granted

    def test_peer_default_deadline_applies(self):
        world = World(key_bits=KEY_BITS)
        world.add_peer("Server", "open(1) <-{true} true.")
        client = world.add_peer("Client", deadline_ms=0.0)
        world.distribute_keys()
        result = negotiate(client, "Server", parse_literal("open(1)"))
        assert not result.granted
        assert result.failure_kind == "deadline"


# ---------------------------------------------------------------------------
# Property: negotiations never strand in-flight state or admit unverified
# material, whatever the weather.
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=100_000)
DROPS = st.sampled_from([0.0, 0.2, 0.5, 1.0])


class TestChaosProperties:
    @given(seed=SEEDS, drop=DROPS)
    @settings(max_examples=12, deadline=None)
    def test_in_flight_always_empty_and_overlays_verified(self, seed, drop):
        from repro.workloads.generator import build_random_bilateral

        workload = build_random_bilateral(seed, key_bits=KEY_BITS)
        workload.world.inject_faults(
            uniform_plan(seed=seed, drop=drop, duplicate=0.2, corrupt=0.1))
        workload.world.set_retry(RetryPolicy(max_attempts=3, jitter_ms=0.5))
        result = workload.run()
        assert not result.session.in_flight
        assert result.session.counters["in_flight_leaked"] == 0
        assert overlay_credentials_all_verify(result.session, workload.world)
        # Clean classification: granted XOR a failure kind is recorded.
        assert result.granted == (result.failure_kind == "")

    @given(seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_zero_deadline_never_escapes(self, seed):
        from repro.workloads.generator import build_random_bilateral

        workload = build_random_bilateral(seed, key_bits=KEY_BITS)
        result = negotiate(
            workload.requester, workload.provider_name, workload.goal,
            deadline_ms=0.0)
        assert not result.granted
        assert result.failure_kind == "deadline"
        assert not result.session.in_flight
