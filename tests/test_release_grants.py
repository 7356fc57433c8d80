"""The answering path grants only through resource policies.

A ``$`` rule whose body restates its head (``p $ guard <- p``) is a release
policy: the answers it covers are derived by the content rules and released
once each by ``Peer._answer_releasable_steps``.  Only the other ``$`` rules
— resource policies such as §3.1's freeEnroll — grant on the answering
path.  The eager strategy's offline check still proves both kinds.

The A/B tests run each negotiation twice in one process: as shipped, and
with :func:`restates_head` patched to ``False`` in the peer module, which
makes the answering path prove every ``$`` rule as a grant again.
"""

import pytest

from repro.determinism import reset_all
from repro.datalog.parser import parse_literal, parse_rule
from repro.negotiation import peer as peer_module
from repro.negotiation.forward import distributed_fixpoint
from repro.negotiation.strategies import (
    eager_multiparty_negotiate,
    eager_negotiate,
    parsimonious_negotiate,
)
from repro.policy.release import restates_head
from repro.scenarios.elearn import (
    build_scenario1,
    run_discount_negotiation,
    run_free_police_enrollment,
)
from repro.scenarios.services import (
    build_scenario2,
    revoke_ibm_card,
    run_free_enrollment,
    run_paid_enrollment,
)
from repro.workloads.generator import (
    build_alternating_chain,
    build_bilateral_fleet,
    build_cyclic_release,
    build_delegation_chain,
    build_random_bilateral,
    build_third_party_endorsement,
)
from repro.workloads.metrics import measure_negotiation

KEY_BITS = 512


@pytest.fixture
def grant_every_policy(monkeypatch):
    """Switch the answering path back to proving every ``$`` rule."""
    def enable():
        monkeypatch.setattr(peer_module, "restates_head", lambda policy: False)
    return enable


def _release_policy(peer, predicate):
    [policy] = [rule for rule in peer.kb.release_policies()
                if rule.head.predicate == predicate]
    return policy


class TestRestatesHead:
    @pytest.mark.parametrize("text", [
        "p(X) $ g(Requester) <- p(X).",
        "p(X) $ g(Requester) <- p(X), q(X).",
        "p(X) $ g(Requester) <- q(X), p(X).",
        "p(Requester) $ g(Requester) <- p(Requester).",
        'student(X) @ Y $ member(Requester) @ "BBB" @ Requester '
        "<-{true} student(X) @ Y.",
    ])
    def test_release_policies(self, text):
        assert restates_head(parse_rule(text))

    @pytest.mark.parametrize("text", [
        "p(X, Y) $ g(Requester) <- p(Y, X).",
        "p(X) $ g(Requester) <- p(Y).",
        'p(X) @ "A" $ g(Requester) <- p(X).',
        "p(X) $ g(Requester) <- q(X).",
        "p(X) $ g(Requester) <- not p(X).",
    ])
    def test_resource_policies(self, text):
        assert not restates_head(parse_rule(text))

    def test_free_enroll_is_a_resource_policy(self):
        scenario = build_scenario1(key_bits=KEY_BITS)
        assert not restates_head(_release_policy(scenario.elearn, "freeEnroll"))
        assert restates_head(_release_policy(scenario.elearn, "discountEnroll"))

    def test_fleet_hello_is_a_resource_policy(self):
        fleet = build_bilateral_fleet(1, key_bits=KEY_BITS)
        peers = fleet.world.peers
        assert not restates_head(_release_policy(peers["Server0"], "hello0"))
        assert restates_head(_release_policy(peers["Client0"], "friend0"))

    def test_delegation_chain_resource_is_a_resource_policy(self):
        workload = build_delegation_chain(2, key_bits=KEY_BITS)
        server = workload.world.peers["Server"]
        assert not restates_head(_release_policy(server, "resource"))
        assert restates_head(_release_policy(workload.requester, "member"))


def _fingerprint(world, result):
    session = result.session
    return {
        "granted": result.granted,
        "answers": sorted(str(literal) for literal, _ in result.answers),
        "disclosed": {
            name: sorted(credential.serial for credential
                         in session.received_for(name).credentials())
            for name in sorted(world.peers)},
        "messages": world.stats.messages,
        "bytes": world.stats.bytes,
    }


def _scenario1(run):
    reset_all()  # variable names, hence bytes, start from fixed counters
    scenario = build_scenario1(key_bits=KEY_BITS)
    scenario.world.reset_metrics()
    result = run(scenario)
    return (_fingerprint(scenario.world, result),
            result.session.counters.get("release_checks", 0))


def _scenario2(run, revoked=False):
    reset_all()
    scenario = build_scenario2(key_bits=KEY_BITS)
    if revoked:
        revoke_ibm_card(scenario)
    scenario.world.reset_metrics()
    return _fingerprint(scenario.world, run(scenario)), None


class TestGrantedNegotiationsKeepTheirTraffic:
    @pytest.mark.parametrize("run, messages, size, checks, checks_before", [
        (run_discount_negotiation, 6, 2205, 3, 6),
        (run_free_police_enrollment, 6, 1603, 3, 5),
    ])
    def test_scenario1(self, grant_every_policy, run, messages, size,
                       checks, checks_before):
        fingerprint, release_checks = _scenario1(run)
        assert fingerprint["granted"]
        assert (fingerprint["messages"], fingerprint["bytes"]) == (messages, size)
        assert release_checks == checks
        grant_every_policy()
        assert _scenario1(run) == (fingerprint, checks_before)

    # Bytes count from reset id counters, as every E2 table row does; a run
    # after other negotiations in the same process draws longer variable
    # names.
    @pytest.mark.parametrize("run, revoked, granted, messages, size", [
        (run_free_enrollment, False, True, 6, 1717),
        (run_paid_enrollment, False, True, 12, 3377),
        (run_paid_enrollment, True, False, 10, 2179),
    ])
    def test_scenario2(self, grant_every_policy, run, revoked, granted,
                       messages, size):
        fingerprint, _ = _scenario2(run, revoked)
        assert fingerprint["granted"] is granted
        assert (fingerprint["messages"], fingerprint["bytes"]) == (messages, size)
        grant_every_policy()
        assert _scenario2(run, revoked)[0] == fingerprint

    def test_fleet_fully_granted(self):
        fleet = build_bilateral_fleet(4, key_bits=KEY_BITS)
        results = fleet.run_interleaved().results
        assert len(results) == 4
        assert all(result.granted for result in results)


def _cyclic_release():
    workload = build_cyclic_release(key_bits=KEY_BITS)
    result, report = measure_negotiation(workload, "parsimonious")
    saturation = distributed_fixpoint(workload.world)
    return (result.granted, report.messages, report.loops_detected,
            saturation.derivable("Server", parse_literal('resource("Client")')))


class TestDenials:
    def test_cyclic_release_deadlock(self, grant_every_policy):
        # Still denied, and the saturation semantics agrees; the grant path
        # no longer repeats the guard's counter-queries.
        assert _cyclic_release() == (False, 6, 1, False)
        grant_every_policy()
        assert _cyclic_release() == (False, 8, 3, False)

    def test_cyclic_release_asks_for_sb_once(self):
        # The server's sB answer is one credential whose head spellings are
        # the candidates its answer release check just tried; proving those
        # $ rules again as a credential release re-sent the client's query.
        workload = build_cyclic_release(key_bits=KEY_BITS)
        result, _ = measure_negotiation(workload, "parsimonious")
        queries = [event.detail for event in result.session.events("query")]
        assert queries == ['cA("Client") @ "CCA"', 'sB("Server") @ "SCA"']

    def test_third_party_dependency_two_party(self, grant_every_policy):
        def run():
            workload = build_third_party_endorsement(key_bits=KEY_BITS)
            result, report = measure_negotiation(
                workload, "parsimonious", runner=lambda: parsimonious_negotiate(
                    workload.requester, "Server", workload.goal))
            return result.granted, report.messages, report.disclosures

        assert run() == (False, 6, 0)
        grant_every_policy()
        assert run() == (False, 8, 0)


def _third_party_rows():
    rows = []
    for label, hint, runner in [
        ("eager", False, lambda w: eager_negotiate(w.requester, "Server", w.goal)),
        ("eager multiparty", False, lambda w: eager_multiparty_negotiate(
            w.requester, "Server", w.goal, participants=["Endorser"])),
        ("parsimonious hint", True, lambda w: parsimonious_negotiate(
            w.requester, "Server", w.goal)),
    ]:
        workload = build_third_party_endorsement(provider_hint=hint,
                                                 key_bits=KEY_BITS)
        result, report = measure_negotiation(
            workload, label, runner=lambda: runner(workload))
        rows.append((label, result.granted, report.messages,
                     report.disclosures))
    return rows


class TestEagerUnchanged:
    EXPECTED_THIRD_PARTY = [
        ("eager", False, 0, 0),
        ("eager multiparty", True, 3, 3),
        ("parsimonious hint", True, 8, 3),
    ]

    def test_third_party_rows(self, grant_every_policy):
        assert _third_party_rows() == self.EXPECTED_THIRD_PARTY
        grant_every_policy()
        assert _third_party_rows() == self.EXPECTED_THIRD_PARTY

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_alternating_chain(self, depth):
        workload = build_alternating_chain(depth, key_bits=KEY_BITS)
        result, report = measure_negotiation(workload, "eager")
        assert (result.granted, report.messages, report.disclosures) == (
            True, 2 * depth - 1, 2 * depth - 1)

    def test_random_bilateral_agreement(self):
        eager_rows = []
        for seed in range(12):
            granted = {}
            for strategy in ("parsimonious", "eager"):
                workload = build_random_bilateral(seed, key_bits=KEY_BITS)
                result, report = measure_negotiation(workload, strategy)
                granted[strategy] = result.granted
                if strategy == "eager":
                    eager_rows.append((report.messages, report.disclosures))
            assert granted == {"parsimonious": True, "eager": True}, seed
        assert eager_rows == [(5, 7), (5, 7), (3, 5), (3, 5), (3, 4), (3, 5),
                              (1, 3), (5, 7), (5, 7), (5, 6), (1, 3), (3, 6)]
