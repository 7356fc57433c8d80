"""Peer query handling: grants, denials, release filtering, knobs."""

import pytest

from repro.datalog.parser import parse_literal
from repro.net.message import PolicyRequestMessage, QueryMessage
from repro.world import World

KEY_BITS = 512


def make_query(goal_text, sender="Client", receiver="Server", session="s-peer"):
    return QueryMessage(sender=sender, receiver=receiver,
                        session_id=session, goal=parse_literal(goal_text))


def simple_world(server_program, client_program="", **server_options):
    world = World(key_bits=KEY_BITS)
    server = world.add_peer("Server", server_program, **server_options)
    client = world.add_peer("Client", client_program)
    world.distribute_keys()
    return world, server, client


class TestQueryHandling:
    def test_public_rule_answers(self):
        world, server, _ = simple_world("hello(X) <-{true} name(X). name(world).")
        reply = server.handle(make_query("hello(W)"))
        assert not reply.is_failure
        assert str(reply.items[0].bindings["W"]) == "world"

    def test_private_rule_denied(self):
        world, server, _ = simple_world("secret(42).")
        reply = server.handle(make_query("secret(X)"))
        assert reply.is_failure

    def test_release_policy_grants_pure_resource(self):
        world, server, _ = simple_world(
            "resource(Requester) $ true <- good(Requester). good(\"Client\").")
        reply = server.handle(make_query('resource("Client")'))
        assert not reply.is_failure

    def test_release_policy_requester_mismatch(self):
        world, server, _ = simple_world(
            "d(C, P) $ Requester = P <- d(C, P). d(cs101, \"Other\").")
        reply = server.handle(make_query('d(C, "Other")'))
        assert reply.is_failure  # Client is not "Other"

    def test_answer_credential_attached_for_ground_answers(self):
        world, server, _ = simple_world("hello(X) <-{true} name(X). name(world).")
        reply = server.handle(make_query("hello(W)"))
        item = reply.items[0]
        assert item.answer_credential is not None
        assert item.answer_credential.primary_issuer == "Server"

    def test_ground_goal_single_answer(self):
        world, server, _ = simple_world(
            "n(X) <-{true} m(X). m(1). m(2). m(3).")
        reply = server.handle(make_query("n(1)"))
        assert len(reply.items) == 1

    def test_open_goal_multiple_answers(self):
        world, server, _ = simple_world("n(X) <-{true} m(X). m(1). m(2).")
        reply = server.handle(make_query("n(X)"))
        assert len(reply.items) == 2

    def test_max_answers_cap(self):
        world, server, _ = simple_world(
            "n(X) <-{true} m(X). m(1). m(2). m(3). m(4). m(5).",
            max_answers=2)
        reply = server.handle(make_query("n(X)"))
        assert len(reply.items) == 2

    def test_max_answers_caps_grants(self):
        # p(a) is derived and released; the resource policy could grant
        # p(c) as well, but the reply is already full.
        world, server, _ = simple_world(
            "p(a). p(a) $ true <-{true} p(a). p(X) $ true <- q(X). q(c).",
            max_answers=1)
        reply = server.handle(make_query("p(X)"))
        assert [str(item.answered_literal) for item in reply.items] == ["p(a)"]

    def test_max_answers_caps_query_hooks(self):
        world, server, _ = simple_world(
            "p(X) $ true <- q(X). q(a). q(b).", max_answers=1)
        calls = []

        def hook(goal, requester, session):
            calls.append(str(goal))
            return []
            yield  # a step generator that never suspends

        server.query_hooks.append(hook)
        reply = server.handle(make_query("p(X)"))
        assert len(reply.items) == 1
        assert calls == []  # the reply was full before the hooks ran


class TestPolicyKnobs:
    def test_answers_queries_off(self):
        world, server, _ = simple_world("open(1) <-{true} true.",
                                        answers_queries=False)
        assert server.handle(make_query("open(1)")).is_failure

    def test_query_filter(self):
        world, server, _ = simple_world(
            "a(1) <-{true} true. b(1) <-{true} true.")
        server.query_filter = lambda goal, requester: goal.predicate == "a"
        assert not server.handle(make_query("a(1)")).is_failure
        assert server.handle(make_query("b(1)")).is_failure

    def test_nesting_budget_enforced(self):
        world, server, _ = simple_world("open(1) <-{true} true.", max_nesting=0)
        session = world.transport.sessions.get_or_create("s-nest", "Client", 0)
        reply = server.handle(make_query("open(1)", session="s-nest"))
        assert reply.is_failure


class TestCredentialDisclosure:
    def build(self):
        world = World(key_bits=KEY_BITS)
        server = world.add_peer("Server", """
            vouched(X) <-{true} cert(X) @ "CA".
            cert(X) @ Y $ true <-{true} cert(X) @ Y.
        """)
        client = world.add_peer("Client")
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Server", 'cert("v1") signedBy ["CA"].')
        return world, server, client

    def test_proof_credentials_disclosed_when_releasable(self):
        world, server, _ = self.build()
        reply = server.handle(make_query("vouched(X)"))
        assert reply.items[0].credentials

    def test_unreleasable_credential_withheld_answer_still_sent(self):
        world, server, _ = self.build()
        # Remove the release policy: credential becomes private.
        from repro.datalog.parser import parse_rule

        server.kb.remove(parse_rule('cert(X) @ Y $ true <-{true} cert(X) @ Y.'))
        reply = server.handle(make_query("vouched(X)"))
        assert not reply.is_failure
        assert not reply.items[0].credentials  # withheld

    def test_already_held_credentials_not_resent(self):
        world, server, client = self.build()
        session = world.transport.sessions.get_or_create("s-held", "Client")
        reply = server.handle(make_query("vouched(X)", session="s-held"))
        first_count = len(reply.items[0].credentials)
        reply2 = server.handle(make_query("vouched(X)", session="s-held"))
        assert first_count == 1 and len(reply2.items[0].credentials) == 0


class TestLocalQuery:
    def test_local_query_ignores_release(self):
        world, server, _ = simple_world("secret(42).")
        solutions = server.local_query(parse_literal("secret(X)"))
        assert solutions

    def test_local_query_without_transport(self):
        from repro.negotiation.peer import Peer

        peer = Peer("Loner", program="a(1).", key_bits=KEY_BITS)
        assert peer.local_query(parse_literal("a(X)"), allow_remote=False)


class TestUniProHandling:
    def build(self):
        world = World(key_bits=KEY_BITS)
        server = world.add_peer("Server", """
            freebie(X) <- member(X).
            member("Client").
        """)
        client = world.add_peer("Client", 'ok("Client").\nok(X) $ true <-{true} ok(X).')
        world.distribute_keys()
        from repro.datalog.parser import parse_goals

        server.unipro.register_from_kb(
            server.kb, "freebie", 1,
            protection=parse_goals('ok(Requester) @ Requester'))
        return world, server, client

    def test_policy_disclosed_when_protection_met(self):
        world, server, client = self.build()
        request = PolicyRequestMessage(sender="Client", receiver="Server",
                                       session_id="s-up", policy_name="freebie")
        reply = server.handle(request)
        assert reply.granted and reply.rules

    def test_unknown_policy_refused(self):
        world, server, client = self.build()
        request = PolicyRequestMessage(sender="Client", receiver="Server",
                                       session_id="s-up2", policy_name="ghost")
        assert not server.handle(request).granted

    def test_undisclosable_policy_refused(self):
        world, server, client = self.build()
        server.unipro.register("hidden",
                               server.kb.load("hidden(1)."), protection=None)
        request = PolicyRequestMessage(sender="Client", receiver="Server",
                                       session_id="s-up3", policy_name="hidden")
        assert not server.handle(request).granted

    def test_unsatisfied_protection_refused(self):
        world = World(key_bits=KEY_BITS)
        server = world.add_peer("Server", "freebie(X) <- member(X). member(\"C\").")
        world.add_peer("Mallory")
        world.distribute_keys()
        from repro.datalog.parser import parse_goals

        server.unipro.register_from_kb(
            server.kb, "freebie", 1,
            protection=parse_goals('ok(Requester) @ Requester'))
        request = PolicyRequestMessage(sender="Mallory", receiver="Server",
                                       session_id="s-up4", policy_name="freebie")
        assert not server.handle(request).granted


class TestSessionAdoption:
    def test_adopt_session_credentials(self):
        from repro.negotiation.strategies import parsimonious_negotiate

        world = World(key_bits=KEY_BITS)
        server = world.add_peer("Server", """
            vouched(X) <-{true} cert(X) @ "CA".
            cert(X) @ Y $ true <-{true} cert(X) @ Y.
        """)
        client = world.add_peer("Client")
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Server", 'cert("v1") signedBy ["CA"].')
        result = parsimonious_negotiate(client, "Server", parse_literal("vouched(X)"))
        assert result.granted
        added = client.adopt_session_credentials(result.session)
        assert added >= 1
        assert len(client.credentials) >= 1
