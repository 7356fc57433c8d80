"""PeerTrust: automated trust negotiation for peers on the Semantic Web.

A from-scratch reproduction of Nejdl, Olmedilla & Winslett's PeerTrust
(2004): a policy and trust-negotiation language built on distributed logic
programs, together with every substrate it needs — a Datalog engine with
authority chains and release contexts, an RSA credential layer, an
in-process peer-to-peer network, negotiation strategies, and certified
proofs.

Quickstart::

    from repro import World, negotiate, parse_literal

    world = World()
    server = world.add_peer("Server",
        'hello(Requester) $ true <- friend(Requester) @ "CA" @ Requester.')
    client = world.add_peer("Client",
        'friend(X) @ Y $ true <-{true} friend(X) @ Y.')
    world.issuer("CA")
    world.distribute_keys()
    world.give_credentials("Client", 'friend("Client") signedBy ["CA"].')

    result = negotiate(client, "Server", parse_literal('hello("Client")'))
    assert result.granted

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.datalog` — terms, unification, parser, SLD with tabling,
  semi-naive fixpoint, stratification;
- :mod:`repro.policy` — release contexts, pseudo-variables, UniPro;
- :mod:`repro.crypto` / :mod:`repro.credentials` — RSA, canonical
  serialisation, signed-rule credentials;
- :mod:`repro.net` — messages, transport, registry, broker programs;
- :mod:`repro.negotiation` — peers, the distributed evaluation engine,
  sessions, strategies, certified proofs, tokens;
- :mod:`repro.scenarios` — the paper's worked examples (§4.1, §4.2, grid);
- :mod:`repro.workloads` — parametric benchmark workloads;
- :mod:`repro.rdf` — N-Triples and RDF↔facts mapping.
"""

from repro.datalog.ast import Literal, Rule, fact
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.parser import (
    parse_goals,
    parse_literal,
    parse_program,
    parse_rule,
    parse_term,
)
from repro.datalog.sld import SLDEngine, Solution
from repro.credentials import (
    Credential,
    CredentialStore,
    issue_credential,
    verify_credential,
)
from repro.crypto import KeyPair, KeyRing
from repro.errors import (
    NegotiationFailure,
    ParseError,
    PeerTrustError,
    ReleaseDenied,
    SignatureError,
)
from repro.negotiation import (
    CertifiedProof,
    NegotiationResult,
    Peer,
    Session,
    eager_negotiate,
    negotiate,
    parsimonious_negotiate,
    proof_from_tree,
    verify_proof,
)
from repro.world import World

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # language
    "Literal",
    "Rule",
    "fact",
    "KnowledgeBase",
    "parse_program",
    "parse_rule",
    "parse_literal",
    "parse_goals",
    "parse_term",
    "SLDEngine",
    "Solution",
    # credentials & crypto
    "Credential",
    "CredentialStore",
    "issue_credential",
    "verify_credential",
    "KeyPair",
    "KeyRing",
    # negotiation
    "Peer",
    "World",
    "Session",
    "NegotiationResult",
    "negotiate",
    "parsimonious_negotiate",
    "eager_negotiate",
    "CertifiedProof",
    "proof_from_tree",
    "verify_proof",
    # errors
    "PeerTrustError",
    "ParseError",
    "SignatureError",
    "NegotiationFailure",
    "ReleaseDenied",
]
