"""Grid scenario: delegated negotiation and delegation chains.

Two ingredients the paper sketches without full programs:

1. **Negotiation by a trusted peer** (§4.2, last paragraph): "handheld
   devices may not have enough power to carry out trust negotiation
   directly.  In this case, Bob's device can forward any queries it
   receives to another peer that Bob trusts, such as his home or office
   computer... If desired, this can be implemented in a manner that allows
   Bob's private keys to reside only on his handheld device."  Here
   :class:`DelegatingPeer` ("Bob") forwards every query to "Bob-Home",
   which holds the credentials and policies and signs the answers — the
   handheld never touches the credential store.

2. **A grid resource behind a delegation chain** (the SemPGRID scenario of
   reference [1]): a cluster admits members of a virtual organisation
   ("VO"), which delegates membership certification through a chain of
   registrars of configurable length — the knob the delegation-scaling
   experiment (E4) turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datalog.parser import parse_literal
from repro.datalog.sld import Suspension
from repro.negotiation.engine import RemoteCall
from repro.negotiation.peer import Peer
from repro.negotiation.result import NegotiationResult
from repro.negotiation.strategies import negotiate
from repro.net.message import AnswerMessage, QueryMessage
from repro.world import World

CLUSTER_PROGRAM = """
% The grid resource: shell access for VO members.
clusterAccess(Requester) $ true <- gridMember(Requester) @ "VO" @ Requester.
"""

HOME_RELEASE_POLICY = """
% Bob's home machine releases his grid credentials only to his own devices
% and to the cluster itself.
gridMember(X) @ Y $ trustedRequester(Requester) <-{true} gridMember(X) @ Y.
trustedRequester("Bob").
trustedRequester("Cluster").
"""


class DelegatingPeer(Peer):
    """A resource-constrained device that forwards all queries to a
    trusted delegate and relays the answers."""

    def __init__(self, name: str, delegate: str, **options) -> None:
        super().__init__(name, **options)
        self.delegate = delegate

    def answer_query_steps(self, message: QueryMessage):
        """Relay the query to the delegate and its answer back, as a step
        generator: the forwarded query suspends like any remote call."""
        session = self._session(message.session_id, message.sender)
        session.log("forward", self.name, self.delegate, str(message.goal))
        reply = yield Suspension(RemoteCall(QueryMessage(
            sender=self.name,
            receiver=self.delegate,
            session_id=message.session_id,
            goal=message.goal,
            depth=message.depth + 1,
        ), session))
        if isinstance(reply, BaseException):
            raise reply
        items = getattr(reply, "items", ())
        return AnswerMessage(
            sender=self.name,
            receiver=message.sender,
            session_id=message.session_id,
            query_id=message.message_id,
            items=items,
        )


@dataclass
class GridScenario:
    world: World
    handheld: DelegatingPeer
    home: Peer
    cluster: Peer
    chain_length: int

    @property
    def transport(self):
        return self.world.transport


def _chain_authority(level: int, chain_length: int) -> str:
    """Authority names along the delegation chain: VO, VO-L1, ..., VO-L(k-1)."""
    return "VO" if level == 0 else f"VO-L{level}"


def build_grid_scenario(chain_length: int = 2, key_bits: int = 512,
                        **peer_options) -> GridScenario:
    """Build the cluster / handheld / home world.

    ``chain_length`` is the number of signed rules between the VO root and
    Bob's membership credential: 1 means the VO signs memberships directly,
    2 adds one registrar (the paper's UIUC shape), and so on.
    """
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    world = World(key_bits=key_bits)
    cluster = world.add_peer("Cluster", CLUSTER_PROGRAM, **peer_options)
    home = world.add_peer("Bob-Home", HOME_RELEASE_POLICY, **peer_options)
    handheld = DelegatingPeer("Bob", delegate="Bob-Home",
                              keys=world.keys_for("Bob"), **peer_options)
    world.peers["Bob"] = handheld
    world.transport.register(handheld)

    for level in range(chain_length):
        world.issuer(_chain_authority(level, chain_length))
    world.distribute_keys()

    # Delegation rules: VO -> VO-L1 -> ... -> VO-L(k-1); the last authority
    # signs the membership fact itself.
    credential_lines = []
    for level in range(chain_length - 1):
        upper = _chain_authority(level, chain_length)
        lower = _chain_authority(level + 1, chain_length)
        credential_lines.append(
            f'gridMember(X) @ "{upper}" <- signedBy ["{upper}"] '
            f'gridMember(X) @ "{lower}".')
    leaf = _chain_authority(chain_length - 1, chain_length)
    credential_lines.append(
        f'gridMember("Bob") @ "{leaf}" signedBy ["{leaf}"].')
    world.give_credentials("Bob-Home", "\n".join(credential_lines))

    return GridScenario(world, handheld, home, cluster, chain_length)


def run_cluster_access(scenario: GridScenario,
                       strategy: str = "parsimonious") -> NegotiationResult:
    """Bob's handheld requests cluster access; the home machine negotiates."""
    goal = parse_literal('clusterAccess("Bob")')
    return negotiate(scenario.handheld, "Cluster", goal, strategy=strategy)
