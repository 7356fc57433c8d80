"""Plain-data codecs between domain objects and store values.

Everything round-trips through the same stable textual forms the
serialisation layer uses (``str(rule)`` / ``parse_rule``, ``str(literal)``
/ ``parse_literal``, ``str(term)`` / ``parse_term`` — all property-tested
in the parser suite), so store contents are inspectable JSON and survive
process restarts regardless of hash seeds or object identities.

Covered: credentials (delegated to :mod:`repro.serialize`) and reply-cache
messages (:class:`AnswerMessage` / :class:`PolicyMessage`).

Import discipline: this module pulls in :mod:`repro.serialize` (which
imports the peer layer), so the low-level modules it serves —
``credentials/store.py``, ``negotiation/session.py`` — must import it
lazily, inside the persistence paths only.
"""

from __future__ import annotations

from repro.datalog.parser import parse_literal, parse_rule, parse_term
from repro.errors import StorageError
from repro.net.message import (
    AnswerItem,
    AnswerMessage,
    CredentialRef,
    Message,
    PolicyMessage,
)
from repro.serialize import credential_from_dict, credential_to_dict

__all__ = [
    "credential_from_dict", "credential_to_dict",
    "message_to_dict", "message_from_dict",
]


# ---------------------------------------------------------------------------
# Reply-cache messages
# ---------------------------------------------------------------------------

def _ref_to_dict(ref: CredentialRef) -> dict:
    return {"serial": ref.serial, "digest": ref.digest}


def _ref_from_dict(data: dict) -> CredentialRef:
    return CredentialRef(serial=data["serial"], digest=data["digest"])


def _item_to_dict(item: AnswerItem) -> dict:
    return {
        "bindings": {name: str(term) for name, term in item.bindings.items()},
        "credentials": [credential_to_dict(c) for c in item.credentials],
        "answer_credential": (credential_to_dict(item.answer_credential)
                              if item.answer_credential is not None else None),
        "answered_literal": (str(item.answered_literal)
                             if item.answered_literal is not None else None),
        "credential_refs": [_ref_to_dict(r) for r in item.credential_refs],
        "answer_credential_ref": (
            _ref_to_dict(item.answer_credential_ref)
            if item.answer_credential_ref is not None else None),
    }


def _item_from_dict(data: dict) -> AnswerItem:
    answer_credential = data.get("answer_credential")
    answer_ref = data.get("answer_credential_ref")
    answered = data.get("answered_literal")
    return AnswerItem(
        bindings={name: parse_term(text)
                  for name, text in data.get("bindings", {}).items()},
        credentials=tuple(credential_from_dict(c)
                          for c in data.get("credentials", ())),
        answer_credential=(credential_from_dict(answer_credential)
                           if answer_credential is not None else None),
        answered_literal=(parse_literal(answered)
                          if answered is not None else None),
        credential_refs=tuple(_ref_from_dict(r)
                              for r in data.get("credential_refs", ())),
        answer_credential_ref=(_ref_from_dict(answer_ref)
                               if answer_ref is not None else None),
    )


def message_to_dict(message: Message) -> dict:
    """Serialise a cached reply.  Only the two reply kinds the transport's
    idempotent reply cache holds are supported."""
    envelope = {
        "kind": message.kind,
        "sender": message.sender,
        "receiver": message.receiver,
        "session_id": message.session_id,
        "message_id": message.message_id,
    }
    if isinstance(message, AnswerMessage):
        envelope["query_id"] = message.query_id
        envelope["items"] = [_item_to_dict(item) for item in message.items]
        return envelope
    if isinstance(message, PolicyMessage):
        envelope["policy_name"] = message.policy_name
        envelope["rules"] = [str(rule) for rule in message.rules]
        envelope["granted"] = message.granted
        return envelope
    raise StorageError(f"cannot persist a {message.kind} reply")


def message_from_dict(data: dict) -> Message:
    kind = data.get("kind")
    envelope = {
        "sender": data["sender"],
        "receiver": data["receiver"],
        "session_id": data["session_id"],
        "message_id": data["message_id"],
    }
    if kind == "AnswerMessage":
        return AnswerMessage(
            **envelope,
            query_id=data.get("query_id", 0),
            items=tuple(_item_from_dict(item)
                        for item in data.get("items", ())),
        )
    if kind == "PolicyMessage":
        return PolicyMessage(
            **envelope,
            policy_name=data.get("policy_name", ""),
            rules=tuple(parse_rule(text) for text in data.get("rules", ())),
            granted=data.get("granted", False),
        )
    raise StorageError(f"cannot restore a {kind!r} reply")
