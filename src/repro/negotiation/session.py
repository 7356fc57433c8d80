"""Negotiation sessions: shared state, loop detection, transcript, metrics.

A :class:`Session` spans one negotiation — the initial query plus every
nested counter-query, disclosure, and release check it triggers.  It owns:

- **goal tables** — one per answered ``(peer, goal)``: a query that
  re-enters an active table subscribes to its answers so far, and the
  cycle's leader iterates to a fixpoint (GEM), which (together with the
  nesting bound) gives the termination guarantee the paper lists as future
  work (§6, tested in E10 and E18);
- **loop detection** for evaluations with no table (release guards,
  ``$``-policy grants, local queries) — the set of in-flight
  ``(asker, askee, goal-pattern)`` triples; re-entering one fails that
  proof branch;
- **per-peer received-credential overlays** — statements disclosed during
  this session, kept apart from each peer's long-term stores;
- **the transcript** — an ordered log of every observable event, which the
  policy-protection experiment (E3) scans to prove that private rule text
  never crossed the wire;
- **counters** — queries, answers, denials, disclosures, loop hits.

In a real deployment each peer would track only its own view; this
in-process object is the union of those views, which is exactly what the
experiments need to observe.  All of it lives in RAM: a peer's state store
holds only its wallet, so a restarted peer continues a live session cold.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.credentials.store import CredentialStore

_session_counter = itertools.count(1)

# Process-wide aggregate of every session's counters.  Sessions are evicted
# or forgotten long before ``--metrics-out`` renders, so the obs registry
# reads this survivor (as the ``peertrust_negotiation_*`` family) instead of
# walking live sessions.
NEGOTIATION_COUNTERS: Counter = Counter()


class SessionCounters(Counter):
    """Per-session :class:`Counter` mirroring every increment into the
    process-wide :data:`NEGOTIATION_COUNTERS` aggregate.

    All session accounting goes through ``counters[key] += n`` (which the
    ``Counter`` machinery routes via ``__setitem__``), so intercepting the
    single mutation point keeps the mirror exact without touching callers."""

    def __setitem__(self, key: str, value: int) -> None:
        NEGOTIATION_COUNTERS[key] += value - self.get(key, 0)
        super().__setitem__(key, value)


def next_session_id(prefix: str = "session") -> str:
    return f"{prefix}-{next(_session_counter)}"


def reset_session_ids() -> None:
    """Restart the process-wide session-id counter (see
    :func:`repro.net.message.reset_message_ids` for why determinism tests
    need this)."""
    global _session_counter
    _session_counter = itertools.count(1)


# Goal-table lifecycle (GEM-style distributed tabling, the answering path
# of every query): ACTIVE while an evaluation pass over the goal is in
# progress, TENTATIVE once a pass finished but the table's SCC may still
# grow (or the evaluation lost answers to a failure), COMPLETE once the
# SCC's completion leader has detected a fixpoint.
TABLE_ACTIVE = "active"
TABLE_TENTATIVE = "tentative"
TABLE_COMPLETE = "complete"


class TableNode:
    """One per-goal answer table (GEM-style distributed tabling).

    ``order`` is the session-global activation order: lower order = "higher"
    goal in GEM's goal ordering.  An SCC's completion leader is the member
    with the lowest order reachable from the cycle; it alone runs fixpoint
    rounds and broadcasts completion.  ``answers`` accumulates solutions
    monotonically across passes, keyed by the canonical form of the answered
    literal; each serve builds its wire items from them for the asking
    requester."""

    __slots__ = ("owner", "goal_key", "order", "status", "answers",
                 "min_dep", "grew", "passes")

    def __init__(self, owner: str, goal_key: tuple, order: int) -> None:
        self.owner = owner
        self.goal_key = goal_key
        self.order = order
        self.status = TABLE_ACTIVE
        self.answers: dict[tuple, object] = {}
        # Per-pass bookkeeping, reset by begin_pass():
        self.min_dep: Optional[int] = None   # lowest incomplete dep order seen
        self.grew = False                    # did this pass add any answer?
        self.passes = 0

    def begin_pass(self) -> None:
        self.status = TABLE_ACTIVE
        self.min_dep = None
        self.grew = False
        self.passes += 1

    def note_dependency(self, min_order: int, dep_grew: bool) -> None:
        """Record that this pass consumed an *incomplete* table whose
        reachable-order floor is ``min_order``."""
        if self.min_dep is None or min_order < self.min_dep:
            self.min_dep = min_order
        if dep_grew:
            self.grew = True

    def add_answer(self, answer_key: tuple, solution: object) -> bool:
        """Fold one solution in; True when it is new to the table."""
        if answer_key in self.answers:
            return False
        self.answers[answer_key] = solution
        self.grew = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TableNode({self.owner!r}, order={self.order}, "
                f"{self.status}, {len(self.answers)} answers)")


@dataclass(frozen=True, slots=True)
class TranscriptEvent:
    """One observable step of a negotiation."""

    sequence: int
    kind: str          # query / answer / deny / disclose / release-check / loop / ...
    actor: str         # the peer performing the step
    counterpart: str   # the other side of the step ("" when not applicable)
    detail: str        # human-readable payload (goal text, credential head, ...)

    def __str__(self) -> str:
        arrow = f" -> {self.counterpart}" if self.counterpart else ""
        return f"[{self.sequence:04d}] {self.actor}{arrow}: {self.kind} {self.detail}"


class Session:
    """Shared state of one negotiation."""

    def __init__(
        self,
        session_id: str,
        initiator: str,
        max_nesting: int = 30,
        deadline_at_ms: Optional[float] = None,
    ) -> None:
        self.id = session_id
        self.initiator = initiator
        self.max_nesting = max_nesting
        self.depth = 0
        # Absolute simulated-clock instant after which the transport refuses
        # further work for this session (None = no deadline).
        self.deadline_at_ms = deadline_at_ms
        self._deadline_noted = False
        self.in_flight: set[tuple[str, str, tuple]] = set()
        # Goal-table registry (GEM tabling): (owner, goal_key) -> TableNode.
        # In a real deployment each peer holds only its own tables; this
        # shared dict is the union of those views (like the overlays above).
        self.tables: dict[tuple[str, tuple], TableNode] = {}
        self._table_order = itertools.count(1)
        self.counters: Counter = SessionCounters()
        self.transcript: list[TranscriptEvent] = []
        self._received: dict[str, CredentialStore] = {}
        self._release_cache: dict[tuple, bool] = {}
        # Certified remote answers: (receiving peer, requester, answering
        # peer, ground answered goal) -> evidence proof.
        self._certified: dict[tuple, object] = {}
        self._holders: dict[str, set[str]] = {}
        # Disclosure-delta wire ledger: (sender, receiver) -> serials whose
        # full payload already crossed that directed link in this session.
        # Lives and dies with the session, so session close/evict invalidates
        # every outstanding delta reference for free.
        self._wire_ledger: dict[tuple[str, str], set[str]] = {}
        self._sequence = itertools.count(1)

    # -- transcript --------------------------------------------------------------

    def log(self, kind: str, actor: str, counterpart: str = "", detail: str = "") -> None:
        self.transcript.append(
            TranscriptEvent(next(self._sequence), kind, actor, counterpart, detail))
        self.counters[kind] += 1

    def events(self, kind: Optional[str] = None) -> Iterator[TranscriptEvent]:
        for event in self.transcript:
            if kind is None or event.kind == kind:
                yield event

    def render_transcript(self) -> str:
        return "\n".join(str(event) for event in self.transcript)

    # -- loop detection -------------------------------------------------------------

    def enter_remote(self, asker: str, askee: str, goal_key: tuple) -> bool:
        """Mark a remote query in flight; False when it would re-enter an
        identical in-flight query (a negotiation loop)."""
        key = (asker, askee, goal_key)
        if key in self.in_flight:
            self.counters["loops_detected"] += 1
            self.log("loop", asker, askee, "re-entrant query suppressed")
            return False
        self.in_flight.add(key)
        return True

    def exit_remote(self, asker: str, askee: str, goal_key: tuple) -> None:
        self.in_flight.discard((asker, askee, goal_key))

    def nesting_available(self) -> bool:
        return self.depth < self.max_nesting

    # Counters (and counted transcript kinds) that move when an evaluation
    # loses answers: a branch failed on the wire, a provider degraded, a
    # sub-query was not issued or was refused for the nesting budget.
    ANSWER_LOSSES = ("network_failures", "oversized_messages",
                     "corrupt_payloads", "degraded_answers",
                     "nesting_exhausted", "exhausted")

    def answer_losses(self) -> int:
        counters = self.counters
        return sum(counters[name] for name in self.ANSWER_LOSSES)

    # -- goal tables (GEM distributed tabling) ---------------------------------------

    def table_for(self, owner: str, goal_key: tuple) -> Optional["TableNode"]:
        return self.tables.get((owner, goal_key))

    def activate_table(self, owner: str, goal_key: tuple) -> "TableNode":
        """Fetch-or-create the table for ``(owner, goal)``; newly created
        tables get the next session-global activation order."""
        key = (owner, goal_key)
        node = self.tables.get(key)
        if node is None:
            node = self.tables[key] = TableNode(
                owner, goal_key, next(self._table_order))
            self.counters["tables_activated"] += 1
        return node

    def complete_tables(self, owner: str, threshold: int) -> int:
        """Promote ``owner``'s tentative tables with activation order
        ``>= threshold`` to complete (a ``TableComplete`` broadcast landed);
        returns how many were promoted."""
        promoted = 0
        for (table_owner, _), node in self.tables.items():
            if (table_owner == owner and node.order >= threshold
                    and node.status == TABLE_TENTATIVE):
                node.status = TABLE_COMPLETE
                promoted += 1
        if promoted:
            self.counters["tables_completed"] += promoted
        return promoted

    def drop_tables_for(self, owner: str) -> int:
        """Forget every table ``owner`` holds (the peer crashed: its next
        incarnation must not inherit phantom table state)."""
        stale = [key for key in self.tables if key[0] == owner]
        for key in stale:
            del self.tables[key]
        return len(stale)

    # -- deadlines ------------------------------------------------------------------

    def set_deadline(self, at_ms: float) -> None:
        """Arm (or tighten) the session's absolute simulated-ms deadline."""
        if self.deadline_at_ms is None or at_ms < self.deadline_at_ms:
            self.deadline_at_ms = at_ms

    def deadline_expired(self, now_ms: float) -> bool:
        return self.deadline_at_ms is not None and now_ms >= self.deadline_at_ms

    def note_deadline(self, now_ms: float) -> None:
        """Record deadline exhaustion once: a counter plus one transcript
        entry, however many in-flight branches observe it."""
        self.counters["deadline_exceeded"] += 1
        if not self._deadline_noted:
            self._deadline_noted = True
            self.log("deadline", self.initiator, "",
                     f"budget exhausted at {now_ms:.1f} simulated ms")

    # -- end-of-negotiation audit ---------------------------------------------------

    def audit_in_flight(self) -> int:
        """Invariant check run by negotiation drivers in their ``finally``:
        no remote query may remain marked in flight once a negotiation ends,
        even one that ended by exception.  Leaks are counted, logged, and
        cleared so a reused session cannot inherit phantom loop-detection
        state."""
        leaked = len(self.in_flight)
        if leaked:
            self.counters["in_flight_leaked"] += leaked
            self.log("leak", self.initiator, "",
                     f"{leaked} in-flight entr{'y' if leaked == 1 else 'ies'} "
                     "stranded; cleared")
            self.in_flight.clear()
        stale = [node for node in self.tables.values()
                 if node.status == TABLE_ACTIVE]
        if stale:
            # A table still ACTIVE after the negotiation ended means an
            # evaluation pass died mid-flight (exception, deadline); demote
            # so a retained session cannot serve it as forever-pending.
            self.counters["tables_leaked"] += len(stale)
            for node in stale:
                node.status = TABLE_TENTATIVE
        return leaked

    # -- received-credential overlays ----------------------------------------------

    def received_for(self, peer_name: str) -> CredentialStore:
        """Credentials ``peer_name`` has received during this session."""
        store = self._received.get(peer_name)
        if store is None:
            store = self._received[peer_name] = CredentialStore()
        return store

    def credentials_disclosed_to(self, peer_name: str) -> int:
        return len(self.received_for(peer_name))

    def total_disclosures(self) -> int:
        return sum(len(store) for store in self._received.values())

    # -- who-holds-what tracking -----------------------------------------------------

    def mark_holder(self, serial: str, peer_name: str) -> None:
        """Record that ``peer_name`` holds the credential with ``serial``
        (it sent or received it in this session)."""
        self._holders.setdefault(serial, set()).add(peer_name)

    def holds(self, serial: str, peer_name: str) -> bool:
        return peer_name in self._holders.get(serial, ())

    # -- disclosure-delta wire ledger --------------------------------------------------

    def note_wire_disclosure(self, sender: str, receiver: str, serial: str) -> None:
        """Record that ``sender`` shipped the full credential payload to
        ``receiver``; later repeats on the same link may go as references."""
        self._wire_ledger.setdefault((sender, receiver), set()).add(serial)

    def wire_disclosed(self, sender: str, receiver: str, serial: str) -> bool:
        return serial in self._wire_ledger.get((sender, receiver), ())

    # -- release-decision memoisation -------------------------------------------------

    def release_cached(self, key: tuple) -> Optional[bool]:
        return self._release_cache.get(key)

    def cache_release(self, key: tuple, allowed: bool) -> None:
        self._release_cache[key] = allowed

    # -- certified remote answers ------------------------------------------------------

    def certified(self, key: tuple) -> Optional[object]:
        return self._certified.get(key)

    def note_certified(self, key: tuple, proof: object) -> None:
        self._certified[key] = proof

    def drop_decisions_for(self, owner: str) -> None:
        """Forget ``owner``'s release decisions and certified answers (the
        peer crashed: the overlay they were proved from is gone, so its
        next incarnation asks for those credentials again)."""
        self._release_cache = {key: allowed for key, allowed
                               in self._release_cache.items()
                               if key[1] != owner}
        self._certified = {key: proof for key, proof
                           in self._certified.items() if key[0] != owner}

    def __repr__(self) -> str:
        return (f"Session({self.id!r}, initiator={self.initiator!r}, "
                f"{len(self.transcript)} events)")


class SessionTable:
    """Transport-wide registry so both peers of an in-process negotiation
    share one :class:`Session` object.

    Sessions live in one insertion-ordered dict keyed by session id.
    ``capacity`` bounds the number of live sessions: creating one beyond it
    evicts the oldest (sessions finish roughly in the order they start).
    ``on_evict`` is invoked with the session id whenever a session leaves
    the table, by eviction *or* :meth:`forget`, so owners of per-session
    caches (the transport's reply / oneway dedup caches, a scheduler's
    continuation tables) can drop their entries and long-running workloads
    stay bounded."""

    def __init__(self, capacity: Optional[int] = None,
                 on_evict: Optional[Callable[[str], None]] = None) -> None:
        self._sessions: dict[str, Session] = {}
        self.capacity = capacity
        self.on_evict = on_evict
        self.evictions = 0

    def get_or_create(self, session_id: str, initiator: str,
                      max_nesting: int = 30) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            session = self._sessions[session_id] = Session(
                session_id, initiator, max_nesting)
            if self.capacity is not None:
                while len(self._sessions) > self.capacity:
                    oldest = next(iter(self._sessions))
                    del self._sessions[oldest]
                    self.evictions += 1
                    if self.on_evict is not None:
                        self.on_evict(oldest)
        return session

    def get(self, session_id: str) -> Optional[Session]:
        return self._sessions.get(session_id)

    def forget(self, session_id: str) -> None:
        if self._sessions.pop(session_id, None) is not None:
            if self.on_evict is not None:
                self.on_evict(session_id)

    def sessions(self) -> Iterator[Session]:
        """Live sessions in insertion order (recovery walks this)."""
        yield from self._sessions.values()

    def __len__(self) -> int:
        return len(self._sessions)
