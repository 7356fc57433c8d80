"""Peer directory.

Maps peer names to live peer objects.  The only contract a registered peer
must satisfy is the :class:`MessageHandler` protocol — a ``handle(message)``
method returning an optional reply — so the transport stays decoupled from
the negotiation package.  A peer may also offer ``handle_steps(message)``,
the same work as a step generator; the event runtime prefers it, so the
peer's own remote sub-queries suspend instead of blocking.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, runtime_checkable

from repro.errors import UnknownPeerError
from repro.net.message import Message


@runtime_checkable
class MessageHandler(Protocol):
    """What the transport needs from a registered peer."""

    name: str

    def handle(self, message: Message) -> Optional[Message]:
        """Process one inbound message, optionally returning a reply."""
        ...


class PeerRegistry:
    """Name → peer lookup with strict registration semantics.

    Registration is identity; *liveness* is separate: ``mark_down`` models a
    crashed or partitioned peer without forgetting who it is, so traffic to
    it fails transiently (retryable) rather than as an addressing error, and
    ``mark_up`` models the restart.  Scheduled churn lives in
    :class:`repro.net.faults.FaultPlan` crash windows; this is the manual
    control tests and drivers use.
    """

    def __init__(self) -> None:
        self._peers: dict[str, MessageHandler] = {}
        self._down: set[str] = set()

    def register(self, peer: MessageHandler) -> None:
        existing = self._peers.get(peer.name)
        if existing is not None and existing is not peer:
            raise UnknownPeerError(
                f"a different peer is already registered as {peer.name!r}")
        self._peers[peer.name] = peer

    def unregister(self, name: str) -> None:
        self._peers.pop(name, None)
        self._down.discard(name)

    # -- liveness (peer churn) ------------------------------------------------

    def mark_down(self, name: str) -> None:
        """The peer is crashed/partitioned: keep its registration, fail its
        traffic transiently until :meth:`mark_up`."""
        self._down.add(name)

    def mark_up(self, name: str) -> None:
        self._down.discard(name)

    def is_up(self, name: str) -> bool:
        return name not in self._down

    def get(self, name: str) -> MessageHandler:
        peer = self._peers.get(name)
        if peer is None:
            raise UnknownPeerError(f"no peer registered as {name!r}")
        return peer

    def knows(self, name: str) -> bool:
        return name in self._peers

    def names(self) -> list[str]:
        return sorted(self._peers)

    def __iter__(self) -> Iterator[MessageHandler]:
        return iter(self._peers.values())

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, name: str) -> bool:
        return name in self._peers
