"""Cross-cutting integration tests: caching, key mismatches, world
building, and the public API."""

import pytest

from repro import (
    World,
    negotiate,
    parse_literal,
    proof_from_tree,
    verify_proof,
)
from repro.scenarios.elearn import build_scenario1, run_discount_negotiation

KEY_BITS = 512


class TestPublicAPI:
    def test_quickstart_flow(self):
        world = World(key_bits=KEY_BITS)
        world.add_peer(
            "Server",
            'hello(Requester) $ true <- friend(Requester) @ "CA" @ Requester.')
        client = world.add_peer(
            "Client", 'friend(X) @ Y $ true <-{true} friend(X) @ Y.')
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Client", 'friend("Client") signedBy ["CA"].')
        result = negotiate(client, "Server", parse_literal('hello("Client")'))
        assert result.granted

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_world_rejects_duplicate_peers(self):
        world = World(key_bits=KEY_BITS)
        world.add_peer("X")
        with pytest.raises(ValueError):
            world.add_peer("X")

    def test_world_credential_requires_signer(self):
        from repro.errors import CredentialError

        world = World(key_bits=KEY_BITS)
        with pytest.raises(CredentialError):
            world.credential("a(1).")


class TestCredentialCaching:
    def test_second_negotiation_cheaper_after_adoption(self):
        """§4.2: peers cache signed rules 'to speed up negotiation'."""
        scenario = build_scenario1(key_bits=KEY_BITS)
        first = run_discount_negotiation(scenario)
        assert first.granted
        # E-Learn adopts what it learned (Alice's student credentials).
        scenario.elearn.adopt_session_credentials(first.session)
        scenario.world.reset_metrics()
        second = run_discount_negotiation(scenario)
        assert second.granted
        # No student query to Alice is needed any more.
        queries = [e for e in second.session.events("query")
                   if "student" in e.detail]
        assert not queries


class TestKeyMismatch:
    def test_untrusted_issuer_blocks_verification(self):
        """If E-Learn does not know UIUC's key, Alice's proof can't verify."""
        from repro.crypto.keys import KeyRing

        scenario = build_scenario1(key_bits=KEY_BITS)
        fresh_ring = KeyRing()
        fresh_ring.add(scenario.elearn.keys.public)
        fresh_ring.add(scenario.world.keys_for("ELENA").public)
        fresh_ring.add(scenario.world.keys_for("BBB").public)
        fresh_ring.add(scenario.alice.keys.public)
        scenario.elearn.keyring = fresh_ring  # no UIUC / Registrar keys
        assert not run_discount_negotiation(scenario).granted


class TestEndToEndProofPackaging:
    def test_proof_travels_and_verifies_independently(self):
        """Build a certified proof at one peer and verify it with nothing
        but the credentials and a key ring (a third party could do this)."""
        world = World(key_bits=KEY_BITS)
        holder = world.add_peer("Holder")
        world.issuer("UIUC")
        world.issuer("Registrar")
        world.distribute_keys()
        world.give_credentials("Holder", '''
            student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "Registrar".
            student("Alice") @ "Registrar" signedBy ["Registrar"].
        ''')
        goal = parse_literal('student("Alice") @ "UIUC"')
        solution = holder.local_query(goal, allow_remote=False)[0]
        package = proof_from_tree(goal, solution.proofs[0], "Holder")
        tree = verify_proof(package, holder.keyring)
        assert tree is not None

    def test_negotiation_result_credentials_form_proof(self):
        scenario = build_scenario1(key_bits=KEY_BITS)
        result = run_discount_negotiation(scenario)
        assert result.granted
        # E-Learn received Alice's credentials; they re-derive her status.
        from repro.negotiation.proof import CertifiedProof

        # Completed sessions are evicted from the transport table; the
        # result keeps the Session object for post-hoc inspection.
        received = result.session.received_for("E-Learn")
        package = CertifiedProof(
            parse_literal('student("Alice") @ "UIUC"'),
            tuple(c for c in received.credentials()
                  if c.rule.head.predicate == "student"),
            assembled_by="E-Learn")
        assert verify_proof(package, scenario.elearn.keyring) is not None


class TestMessageSizeLimits:
    def test_oversized_negotiation_fails_cleanly(self):
        from repro.errors import MessageTooLargeError
        from repro.net.transport import Transport

        world = World(key_bits=KEY_BITS)
        world.transport.max_message_bytes = 40
        world.add_peer("Server", "open(1) <-{true} true.")
        client = world.add_peer("Client")
        world.distribute_keys()
        # Deterministic transport failures no longer escape the driver: the
        # negotiation terminates with a clean, classified failure result.
        result = negotiate(client, "Server", parse_literal("open(1)"))
        assert not result.granted
        assert result.failure_kind == "protocol"
        assert "exceeds limit" in result.failure_reason
        assert not result.session.in_flight


class TestNetworkFailureInjection:
    def test_dropped_subquery_fails_branch_not_process(self):
        """A dropped counter-query surfaces as negotiation failure, not an
        unhandled exception."""
        scenario = build_scenario1(key_bits=KEY_BITS)
        dropped = {"count": 0}

        def drop(message):
            if (message.kind == "QueryMessage"
                    and "BBB" in str(getattr(message, "goal", ""))):
                dropped["count"] += 1
                return True
            return False

        scenario.world.transport.drop = drop
        result = run_discount_negotiation(scenario)
        assert not result.granted
        assert dropped["count"] >= 1
        assert result.session.counters["network_failures"] >= 1
