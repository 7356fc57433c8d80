"""Credential layer: signed rules and the wallets that hold them.

The paper's negotiation exchanges *signed rules* — a student ID is the
signed fact ``student("Alice") @ "UIUC Registrar"``, a delegation is the
signed rule ``student(X) @ "UIUC" <- student(X) @ "UIUC Registrar"``.
:class:`repro.credentials.credential.Credential` wraps a rule with its RSA
signature and validity window; :class:`repro.credentials.store.CredentialStore`
indexes a peer's credentials.

A credential verifies against the verifier's key ring, which
:meth:`repro.world.World.distribute_keys` fills out of band.  §4.2's card
revocation is a policy, not a credential-layer list: VISA's
``not revokedCard(Company)`` (:data:`repro.scenarios.services.POLICY49_REVOCATION`).
"""

from repro.credentials.credential import Credential, issue_credential, verify_credential
from repro.credentials.store import CredentialStore

__all__ = [
    "Credential",
    "issue_credential",
    "verify_credential",
    "CredentialStore",
]
