"""Certified proofs: portable, independently verifiable derivations.

§6: PeerTrust "harnesses a network of semi-cooperative peers to
automatically create, in a distributed fashion, a certified proof that a
party is entitled to access a particular resource".  A
:class:`CertifiedProof` is that artefact: the goal, the set of credentials
(signed rules) the derivation bottomed out in, and the name of the peer
that assembled it.

Crucially, verification does not trust the assembler: :func:`verify_proof`
re-checks every signature against the verifier's own key ring and re-derives
the goal from the credentials alone (evidence-mode evaluation — no local
rules, no network).  A proof that only holds because of the assembler's
unsigned private rules does not verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.credentials.credential import Credential, verify_credential
from repro.credentials.store import CredentialStore
from repro.crypto.keys import KeyRing
from repro.datalog.ast import Literal
from repro.datalog.sld import ProofNode
from repro.errors import CredentialError, KeyError_, ProofError, SignatureError


@dataclass(frozen=True, slots=True)
class CertifiedProof:
    """A self-contained proof package."""

    goal: Literal
    credentials: tuple[Credential, ...]
    assembled_by: str
    vouching_peer: str = ""

    def serials(self) -> set[str]:
        return {credential.serial for credential in self.credentials}

    def __repr__(self) -> str:
        return (f"CertifiedProof({self.goal}, {len(self.credentials)} "
                f"credential(s), by {self.assembled_by!r})")


def proof_from_tree(
    goal: Literal,
    tree: ProofNode,
    assembled_by: str,
    vouching_peer: str = "",
) -> CertifiedProof:
    """Package the credentials used in a proof tree."""
    credentials = tuple(
        c for c in tree.credentials() if isinstance(c, Credential)
    )
    return CertifiedProof(goal, credentials, assembled_by, vouching_peer)


def verify_proof(
    proof: CertifiedProof,
    keyring: KeyRing,
    builtins=None,
    now: Optional[float] = None,
) -> ProofNode:
    """Independently verify a certified proof; returns the re-derivation.

    Raises :class:`ProofError` when any credential fails verification or
    when the goal cannot be re-derived from the credentials alone.
    """
    store = CredentialStore()
    for credential in proof.credentials:
        try:
            verify_credential(credential, keyring, now=now)
        except (CredentialError, SignatureError, KeyError_) as error:
            raise ProofError(
                f"credential {credential.rule.head} in proof of {proof.goal} "
                f"is invalid: {error}") from error
        store.add(credential)

    tree = _derive_from_credentials(proof.goal, store, builtins,
                                    proof.vouching_peer)
    if tree is None:
        raise ProofError(
            f"goal {proof.goal} is not derivable from the proof's credentials")
    return tree


def _derive_from_credentials(
    goal: Literal,
    store: CredentialStore,
    builtins,
    vouching_peer: str,
) -> Optional[ProofNode]:
    """Standalone evidence evaluation (no Peer object required)."""
    from repro.datalog.builtins import BuiltinRegistry
    from repro.negotiation.engine import EvalContext
    from repro.negotiation.session import Session, next_session_id

    class _Verifier:
        """A minimal stand-in peer for evidence evaluation."""

        def __init__(self) -> None:
            self.name = "__verifier__"
            self.builtins = builtins if builtins is not None else BuiltinRegistry()
            self.max_depth = 200
            self.credentials = CredentialStore()
            self.keyring = KeyRing()
            self.require_certified_answers = True
            self.transport = None

    verifier = _Verifier()
    session = Session(next_session_id("verify"), verifier.name)
    drop = frozenset({vouching_peer}) if vouching_peer else frozenset()
    context = EvalContext(
        peer=verifier,  # type: ignore[arg-type]
        session=session,
        requester=vouching_peer or verifier.name,
        kb=None,
        stores=[store],
        allow_remote=False,
        drop_peers=drop,
    )
    return context.derive_evidence(goal)
