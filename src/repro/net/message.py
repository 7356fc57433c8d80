"""Typed messages exchanged during trust negotiation.

Four message kinds cover the protocol:

- :class:`QueryMessage` — "prove this literal for me" (possibly a
  counter-query triggered by a release guard);
- :class:`AnswerMessage` — zero or more :class:`AnswerItem` solutions, each
  carrying variable bindings plus the credentials disclosed to support the
  answer — either in full or, under per-session disclosure deltas, as
  compact :class:`CredentialRef` hash references the receiver resolves from
  its session cache;
- :class:`DisclosureMessage` — an unsolicited batch of credentials (the
  eager strategy's round payload);
- :class:`PolicyRequestMessage` / :class:`PolicyMessage` — UniPro policy
  definition exchange (§2 "Sensitive policies").

Wire size is *exact*: every message kind has an :meth:`Message.encode`
producing its canonical serialized payload, and ``wire_size()`` equals
``len(encode())`` byte for byte (property-tested), so transports account
precisely what a real serialisation would put on the wire.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence

from repro.credentials.credential import Credential
from repro.crypto.canonical import canonical_bytes
from repro.datalog.ast import Literal, Rule
from repro.datalog.terms import Term

_message_counter = itertools.count(1)


def next_message_id() -> int:
    return next(_message_counter)


def reset_message_ids() -> None:
    """Restart the process-wide message-id counter.

    For determinism tests that compare two traced runs *in one process*:
    message ids feed wire sizes (and thus simulated time), so both runs
    must start from the same counter value."""
    global _message_counter
    _message_counter = itertools.count(1)


def _utf8(text: str) -> bytes:
    return text.encode("utf-8")


@dataclass(frozen=True, slots=True)
class Message:
    """Common envelope fields; concrete messages subclass this.

    ``message_id`` doubles as the transport's *idempotency key*: a retried
    request reuses the same message object (and id), so the receiver-side
    reply cache can recognise redelivery — whether caused by a retry after a
    lost reply or by a fault-injected duplicate — and serve the cached reply
    instead of re-executing the handler.
    """

    sender: str
    receiver: str
    session_id: str
    message_id: int = field(default_factory=next_message_id)

    def encode(self) -> bytes:
        """Canonical serialized payload (envelope only); subclasses append
        their own fields.  ``wire_size`` must equal ``len(encode())``."""
        return (_utf8(self.sender) + _utf8(self.receiver)
                + _utf8(self.session_id)
                + (self.message_id & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))

    def wire_size(self) -> int:
        """Exact serialised size in bytes (envelope only)."""
        return (len(_utf8(self.sender)) + len(_utf8(self.receiver))
                + len(_utf8(self.session_id)) + 8)

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def dedup_key(self) -> tuple[str, str, int]:
        """Receiver-side deduplication key for exactly-once execution."""
        return (self.sender, self.receiver, self.message_id)


def _credential_bytes(credential: Credential) -> bytes:
    return (canonical_bytes(credential.rule)
            + b"".join(credential.signatures)
            + _utf8(credential.serial))


def _credential_size(credential: Credential) -> int:
    """``len(_credential_bytes(credential))``, once per (immutable) credential."""
    size = credential._wire_size
    if size is None:
        size = len(_credential_bytes(credential))
        object.__setattr__(credential, "_wire_size", size)
    return size


@dataclass(frozen=True, slots=True)
class CredentialRef:
    """A compact hash reference to a credential already disclosed in this
    session (the per-session disclosure-delta wire form).

    ``serial`` is the credential's content hash (rule + validity window);
    ``digest`` additionally pins the exact signature bytes, so a receiver
    resolving the reference from its session cache can detect substitution
    of a differently-signed credential with the same serial."""

    serial: str
    digest: str

    def encode(self) -> bytes:
        return _utf8(self.serial) + _utf8(self.digest)

    def wire_size(self) -> int:
        return len(_utf8(self.serial)) + len(_utf8(self.digest))


@lru_cache(maxsize=4096)
def credential_ref(credential: Credential) -> CredentialRef:
    """The delta reference for ``credential`` (memoised — credentials are
    immutable and re-referenced on every repeat disclosure)."""
    digest = hashlib.sha256(b"".join(credential.signatures)).hexdigest()[:16]
    return CredentialRef(serial=credential.serial, digest=digest)


def ref_matches(ref: CredentialRef, credential: Credential) -> bool:
    """True when ``credential`` is exactly the one ``ref`` points at."""
    return credential_ref(credential) == ref


@dataclass(frozen=True, slots=True)
class QueryMessage(Message):
    """A request to prove ``goal``; ``depth`` tracks nesting for loop/debug
    purposes (authoritative loop detection lives in the session)."""

    goal: Literal = None  # type: ignore[assignment]
    depth: int = 0

    def encode(self) -> bytes:
        return (Message.encode(self) + canonical_bytes(self.goal)
                + (self.depth & 0xFFFFFFFF).to_bytes(4, "big"))

    def wire_size(self) -> int:
        return Message.wire_size(self) + len(canonical_bytes(self.goal)) + 4


@dataclass(frozen=True, slots=True)
class AnswerItem:
    """One solution to a query.

    ``bindings`` maps the query's variable names to ground terms;
    ``credentials`` are the signed rules disclosed so the asker can rebuild
    a certified proof; ``answer_credential`` is the answering peer's own
    signature over the answered literal (what makes "Q says φ" believable
    when Q is itself the authority).  Under per-session disclosure deltas,
    credentials the requester already received in this session travel as
    :class:`CredentialRef` entries (``credential_refs`` /
    ``answer_credential_ref``) instead of full payloads."""

    bindings: dict[str, Term]
    credentials: tuple[Credential, ...] = ()
    answer_credential: Optional[Credential] = None
    answered_literal: Optional[Literal] = None
    credential_refs: tuple[CredentialRef, ...] = ()
    answer_credential_ref: Optional[CredentialRef] = None

    def encode(self) -> bytes:
        payload = b"".join(
            _utf8(name) + canonical_bytes(term)
            for name, term in self.bindings.items())
        payload += b"".join(_credential_bytes(c) for c in self.credentials)
        if self.answer_credential is not None:
            payload += _credential_bytes(self.answer_credential)
        payload += b"".join(ref.encode() for ref in self.credential_refs)
        if self.answer_credential_ref is not None:
            payload += self.answer_credential_ref.encode()
        return payload

    def wire_size(self) -> int:
        size = sum(len(_utf8(name)) + len(canonical_bytes(term))
                   for name, term in self.bindings.items())
        size += sum(_credential_size(c) for c in self.credentials)
        if self.answer_credential is not None:
            size += _credential_size(self.answer_credential)
        size += sum(ref.wire_size() for ref in self.credential_refs)
        if self.answer_credential_ref is not None:
            size += self.answer_credential_ref.wire_size()
        return size


@dataclass(frozen=True, slots=True)
class AnswerMessage(Message):
    """Response to a :class:`QueryMessage`.

    ``items`` empty means failure — deliberately indistinguishable between
    "I cannot derive this" and "I will not tell you" (the information-leak
    surface the paper's §6 wants analysed; see experiment E10)."""

    query_id: int = 0
    items: tuple[AnswerItem, ...] = ()

    @property
    def is_failure(self) -> bool:
        return not self.items

    def encode(self) -> bytes:
        return (Message.encode(self)
                + (self.query_id & 0xFFFFFFFF).to_bytes(4, "big")
                + b"".join(item.encode() for item in self.items))

    def wire_size(self) -> int:
        return Message.wire_size(self) + 4 + sum(item.wire_size() for item in self.items)


def dedup_answer_credentials(
    items: Sequence[AnswerItem],
) -> tuple[AnswerItem, ...]:
    """Drop duplicate credential payloads *across* the items of one
    :class:`AnswerMessage`.

    Per-item deduplication alone still lets the same credential ride in two
    sibling items (query hooks and grants build their items independently);
    the receiver absorbs every item's credentials into one session overlay,
    so any repeat after the first is pure wire waste.  First occurrence
    wins; ``answer_credential`` payloads count as carried, so a later item's
    ``credentials`` never re-ships an earlier item's answer credential."""
    carried: set[str] = set()
    deduped: list[AnswerItem] = []
    for item in items:
        kept = tuple(c for c in dict.fromkeys(item.credentials)
                     if c.serial not in carried)
        if len(kept) != len(item.credentials):
            item = replace(item, credentials=kept)
        deduped.append(item)
        carried.update(c.serial for c in kept)
        if item.answer_credential is not None:
            carried.add(item.answer_credential.serial)
    return tuple(deduped)


@dataclass(frozen=True, slots=True)
class TableAnswerMessage(AnswerMessage):
    """Incremental reply from a goal table that is not yet complete
    (GEM-style distributed tabling, the answering path of every query).

    ``items`` carries the table's *entire current* answer set — replaying
    the full set (rather than per-subscriber deltas) keeps join goals sound
    without semi-naive bookkeeping.  ``complete=False`` tells the asker the
    table may still grow; ``min_order`` is the lowest goal-activation order
    reachable from the answering table (GEM's higher/lower-goal ordering:
    the SCC member holding that order is the completion leader); ``grew``
    reports whether the answering pass produced any answer the table had
    not seen before (the leader's fixpoint test)."""

    complete: bool = False
    min_order: int = 0
    grew: bool = False

    def encode(self) -> bytes:
        return (AnswerMessage.encode(self)
                + (b"\x01" if self.complete else b"\x00")
                + (self.min_order & 0xFFFFFFFF).to_bytes(4, "big")
                + (b"\x01" if self.grew else b"\x00"))

    def wire_size(self) -> int:
        return AnswerMessage.wire_size(self) + 1 + 4 + 1


@dataclass(frozen=True, slots=True)
class TableCompleteMessage(Message):
    """One-way notification that an SCC of goal tables is complete.

    Sent by the SCC's completion leader once a fixpoint round produced no
    new answers anywhere in the component.  The receiver promotes every
    tentative table of this session whose activation order is ``>=
    threshold`` (the leader's own order) to complete, after which queries
    against those tables are served from storage without re-evaluation."""

    threshold: int = 0

    def encode(self) -> bytes:
        return (Message.encode(self)
                + (self.threshold & 0xFFFFFFFF).to_bytes(4, "big"))

    def wire_size(self) -> int:
        return Message.wire_size(self) + 4


@dataclass(frozen=True, slots=True)
class DisclosureMessage(Message):
    """Unsolicited credential batch (eager strategy round)."""

    credentials: tuple[Credential, ...] = ()
    final: bool = False  # sender has nothing further to disclose

    def encode(self) -> bytes:
        return (Message.encode(self) + (b"\x01" if self.final else b"\x00")
                + b"".join(_credential_bytes(c) for c in self.credentials))

    def wire_size(self) -> int:
        return Message.wire_size(self) + 1 + sum(
            _credential_size(c) for c in self.credentials)


@dataclass(frozen=True, slots=True)
class PolicyRequestMessage(Message):
    """Request for the definition of a named (UniPro) policy."""

    policy_name: str = ""

    def encode(self) -> bytes:
        return Message.encode(self) + _utf8(self.policy_name)

    def wire_size(self) -> int:
        return Message.wire_size(self) + len(_utf8(self.policy_name))


@dataclass(frozen=True, slots=True)
class PolicyMessage(Message):
    """Disclosure of a named policy's defining rules (contexts stripped)."""

    policy_name: str = ""
    rules: tuple[Rule, ...] = ()
    granted: bool = False

    def encode(self) -> bytes:
        return (Message.encode(self) + _utf8(self.policy_name)
                + (b"\x01" if self.granted else b"\x00")
                + b"".join(canonical_bytes(rule) for rule in self.rules))

    def wire_size(self) -> int:
        return Message.wire_size(self) + len(_utf8(self.policy_name)) + 1 + sum(
            len(canonical_bytes(rule)) for rule in self.rules)
