"""Autonomy and information-leak analysis tests (§6 extension)."""

import pytest

from repro.datalog.parser import parse_literal
from repro.negotiation.analysis import (
    behaviour_leak_probe,
    critical_credentials,
    refusal_analysis,
)
from repro.workloads.generator import (
    Workload,
    build_alternating_chain,
    build_delegation_chain,
    build_peer_ring,
)
from repro.world import World

KEY_BITS = 512


def two_path_workload() -> Workload:
    """A resource reachable through either of two independent credentials —
    each alone is non-critical."""
    world = World(key_bits=KEY_BITS)
    server = world.add_peer("Server", """
        resource(Requester) $ true <- cA(Requester) @ "CAA" @ Requester.
        resource(Requester) $ true <- cB(Requester) @ "CAB" @ Requester.
    """)
    client = world.add_peer("Client", """
        cA(X) @ Y $ true <-{true} cA(X) @ Y.
        cB(X) @ Y $ true <-{true} cB(X) @ Y.
    """)
    world.issuer("CAA")
    world.issuer("CAB")
    world.distribute_keys()
    world.give_credentials("Client", '''
        cA("Client") signedBy ["CAA"].
        cB("Client") signedBy ["CAB"].
    ''')
    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description="two independent paths")


class TestCriticalCredentials:
    def test_chain_credentials_all_critical(self):
        reports = critical_credentials(
            lambda: build_delegation_chain(3, key_bits=KEY_BITS))
        assert len(reports) == 3
        assert all(r.critical for r in reports)

    def test_redundant_paths_are_slack(self):
        reports = critical_credentials(two_path_workload)
        assert len(reports) == 2
        assert not any(r.critical for r in reports)

    def test_failing_baseline_rejected(self):
        from repro.workloads.generator import build_cyclic_release

        with pytest.raises(ValueError):
            critical_credentials(lambda: build_cyclic_release(key_bits=KEY_BITS))

    def test_provider_side_analysis(self):
        """The server's counter-credentials in an alternating chain are all
        critical too."""
        reports = critical_credentials(
            lambda: build_alternating_chain(3, key_bits=KEY_BITS),
            peer_name="Server")
        assert len(reports) == 2  # s1, s2
        assert all(r.critical for r in reports)

    def test_report_fields(self):
        [report, *_] = critical_credentials(
            lambda: build_delegation_chain(2, key_bits=KEY_BITS))
        assert report.head and report.issuer and report.serial


class TestRefusalAnalysis:
    def test_ring_members_are_all_obligatory(self):
        impacts = refusal_analysis(
            lambda: build_peer_ring(4, key_bits=KEY_BITS))
        breaking = [i for i in impacts if i.breaks_negotiation]
        assert breaking  # every hop's vouch is needed
        assert all(i.peer.startswith("P") for i in breaking)

    def test_chain_refusals(self):
        impacts = refusal_analysis(
            lambda: build_alternating_chain(2, key_bits=KEY_BITS))
        assert impacts
        # The client's refusal to answer credential queries breaks things.
        assert any(i.breaks_negotiation for i in impacts)

    def test_impact_fields(self):
        impacts = refusal_analysis(
            lambda: build_delegation_chain(2, key_bits=KEY_BITS))
        assert all(i.predicate and i.arity >= 0 for i in impacts)

    def test_arity_counts_arguments_not_commas(self):
        """A compound argument's commas do not add to the arity."""
        def build() -> Workload:
            world = World(key_bits=KEY_BITS)
            world.add_peer("Server",
                           'open(X) <-{true} vouch(f(X, b)) @ "Client".')
            client = world.add_peer(
                "Client", "vouch(f(a, b)) $ true <- true. vouch(f(a, b)).")
            world.distribute_keys()
            return Workload(world, client, "Server", parse_literal("open(a)"),
                            description="compound argument")

        impacts = refusal_analysis(build)
        vouch = [i for i in impacts if i.predicate == "vouch"]
        assert [(i.peer, i.arity, i.breaks_negotiation) for i in vouch] == [
            ("Client", 1, True)]


class TestBehaviourLeakProbe:
    def _cannot(self) -> Workload:
        """Provider genuinely cannot derive (client lacks the credential)."""
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        for credential in list(workload.requester.credentials.credentials()):
            workload.requester.credentials.remove(credential.serial)
        workload.expect_success = False
        return workload

    def _willnot(self) -> Workload:
        """Client has the credential but refuses to release it."""
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        from repro.datalog.parser import parse_rule

        workload.requester.kb.remove(
            parse_rule('member(X) @ Y $ true <-{true} member(X) @ Y.'))
        workload.expect_success = False
        return workload

    def _willnot_with_counterquery(self) -> Workload:
        """Client has the credential but its release guard triggers a
        counter-query to the server before failing — behaviour the server
        can distinguish from a flat denial."""
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        from repro.datalog.parser import parse_rule

        client = workload.requester
        client.kb.remove(
            parse_rule('member(X) @ Y $ true <-{true} member(X) @ Y.'))
        client.kb.load(
            'member(X) @ Y $ vip(Requester) @ "NoSuchCA" @ Requester '
            '<-{true} member(X) @ Y.')
        workload.expect_success = False
        return workload

    def test_flat_denial_does_not_leak(self):
        """An empty failure answer is deliberately ambiguous: 'cannot
        derive' and 'will not release' look identical on the wire."""
        report = behaviour_leak_probe(self._cannot, self._willnot,
                                      observer="Server")
        assert not report.leaks

    def test_counterquery_behaviour_leaks(self):
        """A release guard that fires counter-queries is observable: the
        server can tell this failure apart from a flat denial (the leak the
        paper wants analysed)."""
        report = behaviour_leak_probe(
            self._cannot, self._willnot_with_counterquery, observer="Server")
        assert report.leaks
        assert "event sequence" in report.leaking_channels or \
            "message count" in report.leaking_channels

    def test_identical_failures_do_not_leak(self):
        report = behaviour_leak_probe(self._cannot, self._cannot)
        assert not report.leaks

    def test_probe_requires_failures(self):
        good = lambda: build_delegation_chain(2, key_bits=KEY_BITS)
        with pytest.raises(ValueError):
            behaviour_leak_probe(good, self._cannot)
