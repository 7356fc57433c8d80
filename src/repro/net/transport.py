"""In-memory transport: the network model under the event runtime.

Every message travels as an :class:`repro.runtime.scheduler.Exchange` on the
transport's event scheduler; this module supplies what that exchange runs
on:

- **metrics**: message and byte counts, per-link and per-kind breakdowns,
  and a simulated clock advanced by the scheduler as events fall due, with
  per-message latency from a pluggable :class:`LatencyModel` (experiments
  report negotiation cost in messages/bytes/simulated-ms, independent of
  host speed);
- **limits**: an optional maximum message size
  (:class:`repro.errors.MessageTooLargeError`) and per-session deadlines
  (a simulated-ms budget; exhaustion fails with
  :class:`repro.errors.DeadlineExceeded`, which negotiation drivers convert
  into a clean failure outcome);
- **fault injection**: a seeded :class:`repro.net.faults.FaultPlan`
  (drop / duplicate / corrupt / delay / crash windows) plus the legacy
  ``drop`` predicate, evaluated per transmission by
  :meth:`Transport.begin_transmission`;
- **resilience state**: an optional :class:`RetryPolicy` (exponential
  backoff + jitter charged to the simulated clock) and the receiver-side
  dedup ledgers — message ids double as idempotency keys, so a retried or
  duplicated request is answered from the reply cache instead of
  re-executing the handler.

:meth:`Transport.request` and :meth:`Transport.send` are synchronous
conveniences for top-level callers: each runs one exchange on the event
loop until it is idle.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import (
    MessageTooLargeError,
    PeerUnavailableError,
    TransientNetworkError,
)
from repro.net.faults import FaultDecision, FaultPlan
from repro.net.message import Message
from repro.net.registry import PeerRegistry
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.flightrec import RECORDER as _FLIGHTREC

# Wire-size histogram; observed only when push metrics are enabled (the
# PUSH_ENABLED check keeps the default per-message cost at one bool test).
_MESSAGE_BYTES = _metrics.global_registry().histogram(
    "peertrust_message_bytes", buckets=_metrics.DEFAULT_BYTE_BUCKETS,
    help="wire size of transmitted messages", labels=("kind",))

# latency(sender, receiver, size_bytes) -> simulated milliseconds
LatencyModel = Callable[[str, str, int], float]


def constant_latency(milliseconds: float = 1.0) -> LatencyModel:
    """Every message takes the same simulated time."""
    return lambda sender, receiver, size: milliseconds


def bandwidth_latency(base_ms: float = 1.0, ms_per_kb: float = 0.5) -> LatencyModel:
    """Affine latency in message size — the default model."""
    return lambda sender, receiver, size: base_ms + ms_per_kb * (size / 1024.0)


def jittered_latency(base_ms: float = 1.0, jitter_ms: float = 0.5,
                     seed: int = 0) -> LatencyModel:
    """Base latency plus pseudo-random jitter, deterministic per
    ``(sender, receiver, size)`` — not per call order — so retries and
    duplicated messages cannot perturb unrelated links' timings."""

    def model(sender: str, receiver: str, size: int) -> float:
        draw = random.Random(f"{seed}|{sender}|{receiver}|{size}").random()
        return base_ms + draw * jitter_ms

    return model


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient delivery failures.

    ``max_attempts`` counts total tries (1 = no retries).  The ``n``-th
    backoff waits ``min(base_delay_ms * multiplier**(n-1), max_delay_ms)``
    plus uniform jitter in ``[0, jitter_ms)`` — all charged to the
    transport's simulated clock, so patient policies visibly pay for their
    persistence in simulated-ms."""

    max_attempts: int = 3
    base_delay_ms: float = 5.0
    multiplier: float = 2.0
    max_delay_ms: float = 200.0
    jitter_ms: float = 1.0

    def backoff_ms(self, failure_count: int, rng: random.Random) -> float:
        delay = min(self.base_delay_ms * self.multiplier ** (failure_count - 1),
                    self.max_delay_ms)
        return delay + (rng.random() * self.jitter_ms if self.jitter_ms else 0.0)


@dataclass(frozen=True, slots=True)
class TransmissionOutcome:
    """Result of :meth:`Transport.begin_transmission`: the fault decision,
    the transmission's total simulated delay (injected delay + link
    latency), and the delivery error, if the message was lost in transit.
    The event scheduler turns ``delay_ms`` into the due-time of the delivery
    (or retry) event."""

    decision: Optional[FaultDecision]
    delay_ms: float
    error: Optional[TransientNetworkError] = None


@dataclass
class TransportStats:
    """Cumulative transport accounting."""

    messages: int = 0
    bytes: int = 0
    simulated_ms: float = 0.0
    retries: int = 0
    dropped: int = 0
    duplicates_suppressed: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    by_link: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    # Event-scheduler accounting.
    max_queue_depth: int = 0
    events_processed: int = 0

    def record(self, message: Message, size: int, latency: float) -> None:
        self.messages += 1
        self.bytes += size
        self.simulated_ms += latency
        self.by_kind[message.kind] += 1
        self.bytes_by_kind[message.kind] += size
        self.by_link[(message.sender, message.receiver)] += 1

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "simulated_ms": round(self.simulated_ms, 3),
            "retries": self.retries,
            "dropped": self.dropped,
            "duplicates_suppressed": self.duplicates_suppressed,
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "max_queue_depth": self.max_queue_depth,
            "events_processed": self.events_processed,
        }


class Transport:
    """The network between registered peers: registry, latency model,
    fault plan, retry policy, accounting, simulated clock, session table
    and dedup ledgers.  Messages move on :attr:`scheduler` (attached on
    first use by :func:`repro.runtime.scheduler.scheduler_for`).
    """

    def __init__(
        self,
        registry: Optional[PeerRegistry] = None,
        latency: Optional[LatencyModel] = None,
        max_message_bytes: Optional[int] = None,
        drop: Optional[Callable[[Message], bool]] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        max_sessions: Optional[int] = None,
        max_in_flight: int = 1,
        disclosure_deltas: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else PeerRegistry()
        self.latency = latency if latency is not None else bandwidth_latency()
        self.max_message_bytes = max_message_bytes
        self.drop = drop
        self.faults = faults
        self.retry = retry
        # Scatter-gather width: how many remote sub-queries one evaluation
        # may keep in flight concurrently (1 = strictly sequential).
        self.max_in_flight = max_in_flight
        # Per-session disclosure deltas: repeat credentials travel as
        # CredentialRef hashes resolved from the receiver's session cache.
        self.disclosure_deltas = disclosure_deltas
        self.stats = TransportStats()
        # Monotonic simulated clock: advances with message latency, injected
        # delay, and retry backoff; never reset (deadlines anchor to it).
        self.now_ms = 0.0
        self._backoff_rng = random.Random(0)
        # session_id -> idempotency key -> cached reply / delivered marker.
        self._reply_cache: dict[str, dict[tuple, Message]] = {}
        self._delivered_oneway: dict[str, set[tuple]] = {}
        # peer name -> repro.storage.StateStore holding that peer's wallet.
        self.state_stores: dict[str, object] = {}
        # Lazily attached repro.runtime.EventScheduler (one per transport).
        self.scheduler = None
        # Shared negotiation-session table (import here to keep net/ free of
        # a hard dependency direction at module-import time).  Eviction —
        # whether by the ``max_sessions`` capacity bound or by
        # :meth:`release_session` — drops the session's dedup caches too,
        # so long-running workloads cannot leak per-session state.
        from repro.negotiation.session import SessionTable

        self.sessions = SessionTable(
            capacity=max_sessions, on_evict=self._on_session_evicted)
        # Weakly tracked by the registry's sourced transport metrics.
        _metrics.track_transport(self)

    # -- registration passthrough -------------------------------------------------

    def register(self, peer) -> None:
        self.registry.register(peer)
        # Give the peer a back-reference so it can issue its own requests.
        setattr(peer, "transport", self)

    # -- durable state ---------------------------------------------------------------

    def attach_state_store(self, peer_name: str, store) -> None:
        """Attach a :class:`repro.storage.StateStore` under ``peer_name``:
        from now on that peer's wallet writes through to the store, and
        :func:`repro.storage.recovery.recover_peer` can restore it after a
        crash.  The current wallet is snapshotted on attach.  Session state
        (overlays, disclosure ledgers, cached replies) stays in RAM."""
        from repro.storage.recovery import bind_peer

        self.state_stores[peer_name] = store
        bind_peer(self, peer_name, store)

    def detach_state_stores(self) -> list:
        """Checkpoint and close every attached store; returns them.  Wallet
        sinks are unbound first, so later wallet changes stay in RAM."""
        stores = list(self.state_stores.values())
        for peer_name, store in list(self.state_stores.items()):
            if self.registry.knows(peer_name):
                self.registry.get(peer_name).credentials.unbind_sink()
            store.close()
        self.state_stores.clear()
        return stores

    # -- fault-aware single transmission ----------------------------------------------

    def _note_transmission(self, message: Message, size: int,
                           latency: float) -> None:
        """Observability hook for one accounted transmission; near-free
        unless tracing or push metrics are switched on."""
        if _metrics.PUSH_ENABLED:
            _MESSAGE_BYTES.labels(message.kind).observe(size)
        _FLIGHTREC.note(self.now_ms, message.session_id, "send",
                        message.sender, message.receiver,
                        f"{message.kind} {size}B")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("transport.send", kind=message.kind,
                         sender=message.sender, receiver=message.receiver,
                         bytes=size, latency_ms=latency,
                         msg=tracer.alias("msg", message.message_id))

    def _note_fault(self, name: str, message: Message) -> None:
        _FLIGHTREC.note(self.now_ms, message.session_id,
                        name.rpartition(".")[2], message.sender,
                        message.receiver, message.kind)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(name, kind=message.kind, sender=message.sender,
                         receiver=message.receiver,
                         msg=tracer.alias("msg", message.message_id))

    def begin_transmission(self, message: Message) -> "TransmissionOutcome":
        """Put one transmission of ``message`` on the wire: account it,
        evaluate the fault plan, and report its total delay — the scheduler
        charges time by dispatching the delivery event at
        ``now_ms + delay_ms``.  A message lost in transit still consumed
        bandwidth and time; the loss is *returned* (as ``outcome.error``,
        always transient) so the caller can schedule the retry/backoff as a
        future event.  Only the size check, which precedes all accounting,
        raises."""
        size = message.wire_size()
        if self.max_message_bytes is not None and size > self.max_message_bytes:
            raise MessageTooLargeError(
                f"{message.kind} of {size} bytes exceeds limit "
                f"{self.max_message_bytes}")
        if not self.registry.is_up(message.receiver):
            self.stats.dropped += 1
            return TransmissionOutcome(None, 0.0, PeerUnavailableError(
                f"peer {message.receiver!r} is down"))
        decision = (self.faults.decide(message, self.now_ms)
                    if self.faults is not None else None)
        delay = 0.0
        if decision is not None and decision.extra_delay_ms:
            self.stats.simulated_ms += decision.extra_delay_ms
            delay += decision.extra_delay_ms
        latency = self.latency(message.sender, message.receiver, size)
        self.stats.record(message, size, latency)
        self._note_transmission(message, size, latency)
        delay += latency
        if decision is not None and decision.crashed:
            self.stats.dropped += 1
            self._note_fault("transport.crash", message)
            return TransmissionOutcome(decision, delay, PeerUnavailableError(
                f"{message.kind} lost: a crash window covers the "
                f"{message.sender!r}->{message.receiver!r} link"))
        if (decision is not None and decision.drop) or (
                self.drop is not None and self.drop(message)):
            self.stats.dropped += 1
            self._note_fault("transport.drop", message)
            return TransmissionOutcome(decision, delay, TransientNetworkError(
                f"{message.kind} from {message.sender!r} to "
                f"{message.receiver!r} was dropped"))
        return TransmissionOutcome(decision, delay, None)

    # -- synchronous conveniences -----------------------------------------------------

    def send(self, message: Message) -> None:
        """One-way delivery, run on the event loop until idle; returns once
        the receiver's handler ran (its reply, if any, is discarded) and
        raises whatever ended the exchange."""
        from repro.runtime.scheduler import Exchange, run_sync

        run_sync(self, lambda scheduler, done: Exchange(
            scheduler, message, done, one_way=True).start())

    def request(self, message: Message) -> Message:
        """Request/reply exchange, run on the event loop until idle: the
        reply, or the exception that ended the exchange, raised."""
        from repro.runtime.scheduler import Exchange, run_sync

        return run_sync(self, lambda scheduler, done: Exchange(
            scheduler, message, done).start())

    # -- session lifecycle --------------------------------------------------------------

    def _on_session_evicted(self, session_id: str) -> None:
        """SessionTable eviction hook: a session leaving the table takes its
        dedup caches and any pending scheduler state with it."""
        self._reply_cache.pop(session_id, None)
        self._delivered_oneway.pop(session_id, None)
        if self.scheduler is not None:
            self.scheduler.purge_session(session_id)

    def release_session(self, session_id: str) -> None:
        """Negotiation finished: evict the session's reply cache and the
        session itself.  Results keep their own reference to the Session
        object, so transcripts stay readable after eviction."""
        # Purge unconditionally (the hook is idempotent): dedup caches exist
        # even for sessions that never entered the table.
        self._on_session_evicted(session_id)
        _FLIGHTREC.forget(session_id)
        self.sessions.forget(session_id)

    def reset_stats(self) -> TransportStats:
        """Swap in fresh counters and return the old ones.  The monotonic
        clock (``now_ms``) keeps running — deadlines span resets."""
        previous = self.stats
        self.stats = TransportStats()
        _metrics.track_transport(self)  # ``previous`` leaves the live sums
        return previous
