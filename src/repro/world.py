"""World builder: wire peers, issuers, keys, and credentials together.

Every scenario, test, and benchmark needs the same scaffolding — a
transport, a set of peers with key pairs, a set of pure *issuers*
(authorities like "UIUC" or "VISA" that sign credentials but may not be
live peers), key distribution, and credential issuance from PeerTrust
source text.  :class:`World` packages those steps.

Key handling: 512-bit keys by default (fast; the protocol code paths are
identical to larger keys), cached process-wide per principal so repeated
scenario builds in a test session or benchmark loop do not regenerate keys.
Trust in those keys is bootstrapped out of band: :meth:`World.distribute_keys`
hands every peer every principal's public key, standing in for the paper's
X.509 certificates.
"""

from __future__ import annotations

from typing import Optional

from repro.credentials.credential import Credential, issue_credential
from repro.crypto.keys import KeyPair, keypair_for
from repro.datalog.ast import Rule
from repro.datalog.parser import parse_program, parse_rule
from repro.errors import CredentialError
from repro.negotiation.peer import Peer
from repro.net.faults import FaultPlan
from repro.net.transport import LatencyModel, RetryPolicy, Transport


class World:
    """A closed universe of peers, issuers, and their keys."""

    def __init__(self, key_bits: int = 512,
                 latency: Optional[LatencyModel] = None,
                 use_key_cache: bool = True,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.key_bits = key_bits
        self.use_key_cache = use_key_cache
        self.transport = Transport(latency=latency, faults=faults, retry=retry)
        self.peers: dict[str, Peer] = {}
        self.issuers: dict[str, KeyPair] = {}

    # -- fault tolerance knobs --------------------------------------------------

    def inject_faults(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear, with ``None``) a fault plan on the transport."""
        self.transport.faults = plan

    def set_retry(self, policy: Optional[RetryPolicy]) -> None:
        self.transport.retry = policy

    # -- principals -----------------------------------------------------------

    def keys_for(self, principal: str) -> KeyPair:
        """The key pair of any principal (peer or issuer), creating an
        issuer entry on first use."""
        peer = self.peers.get(principal)
        if peer is not None:
            return peer.keys
        keys = self.issuers.get(principal)
        if keys is None:
            keys = self.issuers[principal] = keypair_for(
                principal, self.key_bits, use_cache=self.use_key_cache)
        return keys

    def issuer(self, name: str) -> KeyPair:
        """Declare (or fetch) a pure issuer — an authority that signs
        credentials but does not answer queries."""
        return self.keys_for(name)

    def add_peer(self, name: str, program: str = "", **peer_options) -> Peer:
        """Create, register, and return a peer."""
        if name in self.peers:
            raise ValueError(f"peer {name!r} already exists in this world")
        keys = keypair_for(name, self.key_bits, use_cache=self.use_key_cache)
        peer = Peer(name, keys=keys, program=program, **peer_options)
        self.peers[name] = peer
        self.transport.register(peer)
        return peer

    def peer(self, name: str) -> Peer:
        return self.peers[name]

    # -- trust distribution ----------------------------------------------------

    def distribute_keys(self) -> None:
        """Give every peer the public key of every principal in the world —
        the out-of-band key bootstrap every scenario uses."""
        publics = [keys.public for keys in self.issuers.values()]
        publics += [peer.keys.public for peer in self.peers.values()]
        for peer in self.peers.values():
            for public in publics:
                peer.trust_key(public)

    # -- credential issuance ------------------------------------------------------

    def credential(self, rule: Rule | str,
                   not_before: Optional[float] = None,
                   not_after: Optional[float] = None) -> Credential:
        """Issue a credential for a ``signedBy`` rule, signing with the keys
        of every principal named in its signer list."""
        if isinstance(rule, str):
            rule = parse_rule(rule)
        if not rule.signers:
            raise CredentialError(f"rule has no signedBy annotation: {rule}")
        issuer_keys = []
        for signer in rule.signers:
            value = getattr(signer, "value", None)
            if not isinstance(value, str):
                raise CredentialError(f"signer {signer} is not a principal name")
            issuer_keys.append(self.keys_for(value))
        return issue_credential(rule, issuer_keys, not_before, not_after)

    def give_credentials(self, peer_name: str, program: str) -> list[Credential]:
        """Parse ``program`` (every rule must be signed), issue each rule as
        a credential, and place them in the peer's wallet."""
        peer = self.peers[peer_name]
        issued = []
        for rule in parse_program(program):
            credential = self.credential(rule)
            peer.hold_credential(credential, verify=False)
            issued.append(credential)
        return issued

    # -- durable state -----------------------------------------------------------------

    def attach_state_stores(self, backend: str = "memory",
                            state_dir=None, peers=None) -> dict:
        """Open one :func:`repro.storage.open_store` per peer (all of them
        by default) and attach each to the transport, enabling
        crash/restart recovery.  Returns ``{peer_name: store}``."""
        from repro.storage import open_store

        names = list(peers) if peers is not None else sorted(self.peers)
        stores = {}
        for name in names:
            store = open_store(backend, state_dir=state_dir, name=name)
            self.transport.attach_state_store(name, store)
            stores[name] = store
        return stores

    def detach_state_stores(self) -> list:
        """Checkpoint and close every attached store (see
        :meth:`Transport.detach_state_stores`)."""
        return self.transport.detach_state_stores()

    # -- metrics ----------------------------------------------------------------------

    def reset_metrics(self):
        return self.transport.reset_stats()

    @property
    def stats(self):
        return self.transport.stats
