"""The PeerTrust negotiation runtime.

The paper's core: peers that evaluate distributed logic programs against
each other, exchanging queries, counter-queries, and signed rules until
trust is established (or provably cannot be).

- :mod:`repro.negotiation.peer` — the security agents (§2)
- :mod:`repro.negotiation.engine` — authority-chain dispatch (§3)
- :mod:`repro.negotiation.session` — loop detection, transcripts, metrics
- :mod:`repro.negotiation.strategies` — parsimonious and eager drivers (§5)
- :mod:`repro.negotiation.proof` — certified proofs (§6)
- :mod:`repro.negotiation.tokens` — the §3.1 access mechanism
"""

from repro.negotiation.engine import EvalContext, evidence_context
from repro.negotiation.peer import Peer
from repro.negotiation.proof import CertifiedProof, proof_from_tree, verify_proof
from repro.negotiation.result import NegotiationResult
from repro.negotiation.session import Session, SessionTable, next_session_id
from repro.negotiation.analysis import (
    behaviour_leak_probe,
    critical_credentials,
    refusal_analysis,
)
from repro.negotiation.forward import distributed_fixpoint
from repro.negotiation.strategies import (
    eager_multiparty_negotiate,
    eager_negotiate,
    negotiate,
    parsimonious_negotiate,
)
from repro.negotiation.tokens import AccessToken, issue_token, verify_token

__all__ = [
    "Peer",
    "EvalContext",
    "evidence_context",
    "Session",
    "SessionTable",
    "next_session_id",
    "NegotiationResult",
    "negotiate",
    "parsimonious_negotiate",
    "eager_negotiate",
    "eager_multiparty_negotiate",
    "distributed_fixpoint",
    "critical_credentials",
    "refusal_analysis",
    "behaviour_leak_probe",
    "CertifiedProof",
    "proof_from_tree",
    "verify_proof",
    "AccessToken",
    "issue_token",
    "verify_token",
]
