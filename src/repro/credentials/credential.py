"""Signed-rule credentials.

A :class:`Credential` is the wire form of a ``signedBy`` rule: the rule
(context-stripped), the issuer principals named in its ``signedBy`` list,
one RSA signature per issuer over the rule's canonical bytes, and an
optional validity window.

The paper (§3.1) notes that "the cryptographic signature itself is not
included in the logic program" — the engine reasons over the
``signedBy [..]`` annotation while this layer carries and checks the actual
bytes.  :func:`verify_credential` is the boundary: a rule only enters a
peer's knowledge base after its credential verifies against the peer's key
ring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.crypto.canonical import rule_signing_bytes
from repro.crypto.keys import KeyPair, KeyRing
from repro.datalog.ast import Literal, Rule
from repro.datalog.terms import Constant
from repro.errors import (
    CredentialError,
    ExpiredCredentialError,
    SignatureError,
)


def rule_signer_names(rule: Rule) -> list[str]:
    """The issuer principal names from a rule's ``signedBy`` annotation.

    Signer terms must be ground constants at issuance time — one cannot sign
    as an unbound variable.
    """
    names: list[str] = []
    for term in rule.signers:
        if not isinstance(term, Constant) or not isinstance(term.value, str):
            raise CredentialError(
                f"signer {term} is not a ground principal name")
        names.append(term.value)
    return names


@dataclass(frozen=True, slots=True)
class Credential:
    """A rule plus the signatures that make it believable.

    ``signatures`` is ordered to match ``rule.signers``.  ``serial`` is a
    content hash used for deduplication and disclosure-delta references.
    """

    rule: Rule
    signatures: tuple[bytes, ...]
    serial: str
    not_before: Optional[float] = None
    not_after: Optional[float] = None
    # Sticky-policy metadata (paper 3.1): the origin's release guard, left
    # attached so downstream holders can honour it when re-disseminating.
    # Holder-side only - not covered by the signature or the serial.
    sticky_guard: Optional[tuple] = None
    # Derived from the immutable rule, excluded from eq/hash/repr like
    # Literal._variables: the statement the signature vouches for (set on
    # construction) and the wire size (set by repro.net.message).
    statement: Optional[Rule] = field(
        default=None, init=False, repr=False, compare=False)
    _wire_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "statement", vouched_statement(self.rule))

    @property
    def issuers(self) -> list[str]:
        return rule_signer_names(self.rule)

    @property
    def primary_issuer(self) -> str:
        issuers = self.issuers
        if not issuers:
            raise CredentialError("credential has no signers")
        return issuers[0]

    def __repr__(self) -> str:
        # Render the signer terms, not ``issuers``: a repr must not raise
        # for a rule whose signers are not ground principal names.
        signers = ", ".join(str(term) for term in self.rule.signers)
        return (f"Credential({self.rule.head}, signers=[{signers}], "
                f"serial={self.serial[:12]})")


def vouched_statement(rule: Rule) -> Optional[Rule]:
    """The ``signedBy [A] => @ A`` axiom (§3.2): ``rule`` with its head
    attributed to the primary issuer, or ``None`` when the signature cannot
    vouch for it (no valid signer, or a foreign authority in the head)."""
    try:
        issuer = rule_signer_names(rule)[0]
    except (CredentialError, IndexError):
        return None
    head = rule.head
    if not head.authority:
        # Bare head (e.g. visaCard("IBM") signedBy ["VISA"]): the signature
        # makes it an @-issuer statement.
        return replace(rule, head=Literal(head.predicate, head.args,
                                          (Constant(issuer, quoted=True),)))
    innermost = head.authority[0]
    if isinstance(innermost, Constant) and innermost.value == issuer:
        return rule
    return None


def compute_serial(rule: Rule, not_before: Optional[float], not_after: Optional[float]) -> str:
    material = rule_signing_bytes(rule)
    window = f"|{not_before}|{not_after}".encode("ascii")
    return hashlib.sha256(material + window).hexdigest()


def issue_credential(
    rule: Rule,
    issuer_keys: Sequence[KeyPair] | KeyPair,
    not_before: Optional[float] = None,
    not_after: Optional[float] = None,
) -> Credential:
    """Sign ``rule`` with every issuer named in its ``signedBy`` list.

    ``issuer_keys`` must supply one key pair per signer, in order (a single
    key pair is accepted for the common single-signer case).  Issuing with
    keys whose principal does not match the ``signedBy`` names is an error:
    that is exactly the forgery the credential layer exists to prevent.
    """
    if isinstance(issuer_keys, KeyPair):
        issuer_keys = [issuer_keys]
    signer_names = rule_signer_names(rule)
    if not signer_names:
        raise CredentialError(f"rule has no signedBy annotation: {rule}")
    if len(issuer_keys) != len(signer_names):
        raise CredentialError(
            f"rule names {len(signer_names)} signer(s) but "
            f"{len(issuer_keys)} key(s) were provided")
    for key, name in zip(issuer_keys, signer_names):
        if key.principal != name:
            raise CredentialError(
                f"key principal {key.principal!r} does not match signer {name!r}")
    message = rule_signing_bytes(rule)
    signatures = tuple(key.sign(message) for key in issuer_keys)
    serial = compute_serial(rule, not_before, not_after)
    return Credential(rule, signatures, serial, not_before, not_after)


def verify_credential(
    credential: Credential,
    keyring: KeyRing,
    now: Optional[float] = None,
) -> None:
    """Verify a credential or raise.

    Checks, in order: structural sanity, every signature against the key
    ring, and the validity window.  ``now`` defaults to skipping time checks
    when the credential has no window (simulated-clock friendly).
    """
    signer_names = rule_signer_names(credential.rule)
    if len(signer_names) != len(credential.signatures):
        raise CredentialError(
            f"credential carries {len(credential.signatures)} signature(s) "
            f"for {len(signer_names)} signer(s)")
    expected_serial = compute_serial(
        credential.rule, credential.not_before, credential.not_after)
    if credential.serial != expected_serial:
        raise CredentialError("credential serial does not match its content")

    message = rule_signing_bytes(credential.rule)
    for name, signature in zip(signer_names, credential.signatures):
        key = keyring.get(name)
        if not key.verify(message, signature):
            raise SignatureError(
                f"signature by {name!r} on {credential.rule.head} failed")

    if credential.not_before is not None or credential.not_after is not None:
        if now is None:
            import time

            now = time.time()
        if credential.not_before is not None and now < credential.not_before:
            raise ExpiredCredentialError(
                f"credential not yet valid (starts {credential.not_before})")
        if credential.not_after is not None and now > credential.not_after:
            raise ExpiredCredentialError(
                f"credential expired at {credential.not_after}")


def tampered_with(credential: Credential, keyring: KeyRing) -> bool:
    """Convenience for tests: True when verification fails for any reason."""
    try:
        verify_credential(credential, keyring)
        return False
    except (CredentialError, SignatureError):
        return True
