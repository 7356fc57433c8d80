"""Multiparty negotiation tests (§6 n-peer strategy extension)."""

import pytest

from repro.negotiation.strategies import (
    eager_multiparty_negotiate,
    eager_negotiate,
    parsimonious_negotiate,
)
from repro.workloads.generator import (
    build_alternating_chain,
    build_cyclic_release,
    build_third_party_endorsement,
)

KEY_BITS = 512


class TestThirdPartyEndorsement:
    def test_bilateral_strategies_deadlock(self):
        """Without the endorser in the loop neither two-party strategy can
        unlock the client's credential."""
        workload = build_third_party_endorsement(key_bits=KEY_BITS)
        assert not parsimonious_negotiate(
            workload.requester, "Server", workload.goal).granted
        workload = build_third_party_endorsement(key_bits=KEY_BITS)
        assert not eager_negotiate(
            workload.requester, "Server", workload.goal).granted

    def test_multiparty_succeeds(self):
        workload = build_third_party_endorsement(key_bits=KEY_BITS)
        result = eager_multiparty_negotiate(
            workload.requester, "Server", workload.goal,
            participants=["Endorser"])
        assert result.granted

    def test_multiparty_disclosure_flow(self):
        """The endorsement reaches the client before the client's credential
        reaches the server."""
        workload = build_third_party_endorsement(key_bits=KEY_BITS)
        result = eager_multiparty_negotiate(
            workload.requester, "Server", workload.goal,
            participants=["Endorser"])
        events = list(result.session.transcript)
        endorsement_at = next(
            i for i, e in enumerate(events)
            if e.kind == "disclose" and "endorsement" in e.detail
            and e.counterpart == "Client")
        credential_at = next(
            i for i, e in enumerate(events)
            if e.kind == "disclose" and "c0" in e.detail)
        assert endorsement_at < credential_at

    def test_multiparty_without_endorser_fails(self):
        """The multiparty strategy adds nothing by itself: excluding the
        third peer reproduces the bilateral deadlock."""
        workload = build_third_party_endorsement(key_bits=KEY_BITS)
        result = eager_multiparty_negotiate(
            workload.requester, "Server", workload.goal, participants=[])
        assert not result.granted

    def test_provider_hint_gives_parsimonious_a_path(self):
        """With a (public) delegation-hint rule the provider fetches the
        endorsement itself, so even request-driven evaluation succeeds —
        the paper's broker/hint idiom in action."""
        workload = build_third_party_endorsement(provider_hint=True,
                                                 key_bits=KEY_BITS)
        result = parsimonious_negotiate(
            workload.requester, "Server", workload.goal)
        assert result.granted


class TestMultipartyGeneralBehaviour:
    def test_two_party_case_degenerates_to_eager(self):
        """With no extra participants the driver behaves like eager."""
        multiparty = eager_multiparty_negotiate(
            build_alternating_chain(3, key_bits=KEY_BITS).requester,
            "Server",
            build_alternating_chain(3, key_bits=KEY_BITS).goal)
        eager = eager_negotiate(
            build_alternating_chain(3, key_bits=KEY_BITS).requester,
            "Server",
            build_alternating_chain(3, key_bits=KEY_BITS).goal)
        assert multiparty.granted == eager.granted is True

    def test_cyclic_deadlock_still_fails(self):
        workload = build_cyclic_release(key_bits=KEY_BITS)
        result = eager_multiparty_negotiate(
            workload.requester, "Server", workload.goal)
        assert not result.granted

    def test_duplicate_participants_tolerated(self):
        workload = build_third_party_endorsement(key_bits=KEY_BITS)
        result = eager_multiparty_negotiate(
            workload.requester, "Server", workload.goal,
            participants=["Endorser", "Endorser", "Client", "Server"])
        assert result.granted

    def test_detached_requester_raises(self):
        from repro.negotiation.peer import Peer
        from repro.datalog.parser import parse_literal

        loner = Peer("Loner", key_bits=KEY_BITS)
        with pytest.raises(RuntimeError):
            eager_multiparty_negotiate(loner, "X", parse_literal("g(1)"))
