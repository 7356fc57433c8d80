"""Mutual-membership federation: mutually recursive cross-peer policies.

Two institutions recognise each other's members:

- **StateU** counts someone as a member if they are a local member *or*
  TechU vouches for them;
- **TechU** does the same, pointing back at StateU.

Querying either institution for ``member(X)`` therefore crosses the wire
in both directions on the *same* goal — the canonical mutual-recursion
shape, which GEM-style distributed tabling evaluates with per-goal tables,
a subscription at the back edge, and completion detection.  The answer
set must be sound and complete: every local member of either institution
is a member of both.

The membership conclusions are public (``$ true``), so the scenario
isolates the tabling machinery from release-policy effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.parser import parse_literal
from repro.negotiation.peer import Peer
from repro.negotiation.result import NegotiationResult
from repro.negotiation.strategies import negotiate
from repro.world import World

STATEU_PROGRAM = """
% A StateU member is a local member, or anyone TechU recognises.
% ``<-{true}`` makes the conclusions public (releasable to any requester).
member(X) <-{true} localMember(X).
member(X) <-{true} member(X) @ "TechU".
localMember("alice").
localMember("bob").
"""

TECHU_PROGRAM = """
% A TechU member is a local member, or anyone StateU recognises.
member(X) <-{true} localMember(X).
member(X) <-{true} member(X) @ "StateU".
localMember("carol").
"""

# Every local member of either institution, by mutual recognition.
EXPECTED_MEMBERS = frozenset({"alice", "bob", "carol"})


@dataclass
class MutualMembership:
    """The built federation plus its named participants."""

    world: World
    client: Peer
    stateu: Peer
    techu: Peer

    @property
    def transport(self):
        return self.world.transport


def build_mutual_membership(key_bits: int = 512,
                            **peer_options) -> MutualMembership:
    """Construct the two-institution federation and a querying client."""
    peer_options.setdefault("max_answers", 8)
    world = World(key_bits=key_bits)
    stateu = world.add_peer("StateU", STATEU_PROGRAM, **peer_options)
    techu = world.add_peer("TechU", TECHU_PROGRAM, **peer_options)
    client = world.add_peer("Client", **peer_options)
    world.distribute_keys()
    return MutualMembership(world, client, stateu, techu)


def run_membership_query(scenario: MutualMembership,
                         provider: str = "StateU",
                         strategy: str = "parsimonious") -> NegotiationResult:
    """The client asks one institution for the full membership relation."""
    goal = parse_literal("member(X)")
    return negotiate(scenario.client, provider, goal, strategy=strategy)
