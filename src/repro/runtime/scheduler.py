"""The negotiation runtime: a discrete-event scheduler and the one message
exchange state machine.

Every message between peers travels through this module (GEM-style
distributed goal evaluation as a message/state machine):

- :class:`EventScheduler` owns a heap of ``(due_ms, seq, label, action)``
  events ordered by **simulated** time.  Popping an event advances the
  transport's clock to its due time; the computation between events is
  free — latency, injected delay and retry backoff are charged, CPU is not.
- :class:`Exchange` is one delivery unrolled into events: transmission,
  delivery, handler evaluation, reply transmission (for a request), retries
  with backoff — each a scheduled event rather than a blocking loop.  It
  is the only code that knows the retry, dedup, corruption and deadline
  rules; :meth:`repro.net.transport.Transport.begin_transmission` models
  the wire (accounting, latency, the fault plan's draws).
- :class:`EvaluationTask` drives a step generator (a peer answering a
  query, or any synchronous caller's evaluation): every
  :class:`~repro.datalog.sld.Suspension` it yields parks the evaluation as
  a pending continuation (:attr:`EventScheduler._pending`, keyed by the
  sub-query's message id) and a nested :class:`Exchange` resumes it when
  the answer event arrives — ``gen.send(reply)`` for success,
  ``gen.send(exception)`` (re-raised at the suspension point) for failure,
  so the engine's error discipline applies unchanged.
- :func:`run_sync` / :func:`run_steps` are the one driver synchronous
  callers share: start the work, pump the loop until idle, return the
  outcome.  The loop cannot be re-entered from inside an event, so a
  synchronous call there raises instead of moving the shared clock.

An :class:`~repro.net.message.AnswerMessage` whose ``query_id`` matches no
pending continuation — or one already resumed — raises
:class:`repro.errors.ProtocolError`: a forged, stale, or misrouted reply
must never be silently dropped or crash with a bare ``KeyError``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.datalog.sld import Suspension
from repro.errors import (
    DeadlineExceeded,
    MessageTooLargeError,
    NetworkError,
    ProtocolError,
    SignatureError,
    TransientNetworkError,
    UnknownPeerError,
)
from repro.net.faults import tamper_message
from repro.net.message import AnswerMessage, Message
from repro.obs import trace as _trace
from repro.obs.flightrec import RECORDER as _FLIGHTREC


class EventScheduler:
    """One event loop per transport, ordered by the transport's simulated
    clock.  Attach lazily with :func:`scheduler_for`."""

    def __init__(self, transport) -> None:
        self.transport = transport
        self._events: list[tuple[float, int, str, Callable[[], None]]] = []
        self._seq = itertools.count(1)
        # message_id of an in-flight request -> its Exchange; this is the
        # continuation table: an AnswerMessage resumes the exchange whose
        # request it answers.
        self._pending: dict[int, "Exchange"] = {}
        # Deterministic trace labels: global message/session counters differ
        # across processes, so labels use small per-run aliases instead.
        self._msg_alias: dict[int, int] = {}
        self._session_alias: dict[str, int] = {}
        self.trace: list[str] = []
        # True while run_until_idle dispatches; the loop is not re-entrant.
        self.running = False

    # -- deterministic labels -----------------------------------------------------

    def _alias(self, message: Message) -> str:
        alias = self._msg_alias.setdefault(message.message_id,
                                           len(self._msg_alias) + 1)
        salias = self._session_alias.setdefault(message.session_id,
                                                len(self._session_alias) + 1)
        return (f"{message.kind} m{alias} s{salias} "
                f"{message.sender}->{message.receiver}")

    # -- run lifecycle ------------------------------------------------------------

    def begin_run(self) -> None:
        """Start a fresh traced run: clear the trace and alias maps (the
        event heap and continuation table are expected to be empty — a
        previous run always pumps to quiescence).  Raises
        :class:`RuntimeError` while a run is dispatching, before anything is
        touched: a synchronous entry point called from inside an event would
        otherwise pump other negotiations' events and move the shared clock
        in the middle of that event."""
        self._refuse_reentry()
        self.trace.clear()
        self._msg_alias.clear()
        self._session_alias.clear()

    def purge_session(self, session_id: str) -> None:
        """Session evicted: orphan its pending continuations so a late
        answer raises :class:`ProtocolError` instead of resuming into a
        dead negotiation."""
        for message_id in [mid for mid, exchange in self._pending.items()
                           if exchange.message.session_id == session_id]:
            self._pending.pop(message_id, None)

    # -- the event loop -----------------------------------------------------------

    def schedule(self, delay_ms: float, label: str,
                 action: Callable[[], None]) -> None:
        due = self.transport.now_ms + delay_ms
        # The event carries the span that was current when it was scheduled;
        # dispatch restores it, so causality survives the trip through the
        # heap.  Sort order is unaffected: seq is unique, later fields never
        # compare.
        tracer = _trace.ACTIVE
        ctx = tracer.current if tracer is not None else None
        heapq.heappush(self._events, (due, next(self._seq), label, action, ctx))
        depth = len(self._events)
        if depth > self.transport.stats.max_queue_depth:
            self.transport.stats.max_queue_depth = depth

    def _refuse_reentry(self) -> None:
        if self.running:
            raise RuntimeError(
                "the event loop is already dispatching: a synchronous entry "
                "point (Transport.request/send, Peer.handle, ...) cannot run "
                "inside an event — yield a Suspension instead")

    def run_until_idle(self, max_events: int = 2_000_000) -> int:
        """Pump events in due-time order until the heap drains.  Returns the
        number of events processed.  Actions run with the clock set to their
        due time; exceptions propagate (they indicate protocol violations or
        driver bugs, never modelled network weather — that travels through
        continuations as values).  Raises :class:`RuntimeError` if called
        from inside a dispatched event."""
        self._refuse_reentry()
        self.running = True
        processed = 0
        try:
            while self._events:
                due, _seq, label, action, ctx = heapq.heappop(self._events)
                if due > self.transport.now_ms:
                    self.transport.now_ms = due
                self.transport.stats.events_processed += 1
                processed += 1
                self.trace.append(f"{due:.3f} {label}")
                tracer = _trace.ACTIVE
                if tracer is not None:
                    previous = tracer.set_current(ctx)
                    tracer.event("scheduler.dispatch", label=label,
                                 queue=len(self._events))
                    try:
                        action()
                    finally:
                        tracer.set_current(previous)
                else:
                    action()
                if processed >= max_events:
                    raise RuntimeError(
                        f"event loop exceeded {max_events} events without "
                        "quiescing; likely a scheduling loop")
        finally:
            self.running = False
        return processed

    # -- continuation table -------------------------------------------------------

    def register(self, exchange: "Exchange") -> None:
        self._pending[exchange.message.message_id] = exchange

    def unregister(self, exchange: "Exchange") -> None:
        self._pending.pop(exchange.message.message_id, None)

    def deliver_answer(self, message: AnswerMessage) -> None:
        """Resume the continuation waiting on ``message.query_id``.  An
        unknown or already-resumed id is a protocol violation: the reply is
        forged, stale (its session was evicted), or duplicated past the
        dedup layer."""
        exchange = self._pending.get(message.query_id)
        if exchange is None or exchange.completed:
            raise ProtocolError(
                f"AnswerMessage from {message.sender!r} answers query id "
                f"{message.query_id}, which has no pending continuation "
                "(unknown, already resumed, or its session was evicted)")
        exchange.finish(message)


def _under_span(method):
    """Run an exchange callback with the exchange's span as the current
    span, so spans begun inside it (peer evaluation) and events it schedules
    parent under the exchange rather than under whatever event happened to
    dispatch it."""

    def wrapper(self, *args):
        tracer = _trace.ACTIVE
        if tracer is None or self.span is None:
            return method(self, *args)
        previous = tracer.set_current(self.span)
        try:
            return method(self, *args)
        finally:
            tracer.set_current(previous)

    return wrapper


def _handler_steps(receiver, message: Message):
    """The receiver's handler as a step generator: a peer's own
    ``handle_steps`` (its remote sub-queries suspend), or — for any other
    :class:`~repro.net.registry.MessageHandler` — one ``handle`` call that
    completes without suspending."""
    steps = getattr(receiver, "handle_steps", None)
    if steps is not None:
        return (yield from steps(message))
    return receiver.handle(message)


class Exchange:
    """One message delivery unrolled into events — the only code that knows
    the transmission, retry/backoff, dedup, corruption and deadline rules.

    A *request* (the default) runs the receiver's handler and carries its
    reply back: ``on_outcome`` receives the reply :class:`Message`, or the
    exception that ended the exchange.  A *one-way* delivery
    (``one_way=True``: GEM's ``TableComplete`` notices, eager disclosures)
    discards any reply: ``on_outcome`` receives ``None`` once the handler
    has run, or the exception.  Either way the sender waits for that
    outcome, so a lost one-way message is reported like a lost request."""

    def __init__(self, scheduler: EventScheduler, message: Message,
                 on_outcome: Callable[[object], None],
                 one_way: bool = False) -> None:
        self.scheduler = scheduler
        self.transport = scheduler.transport
        self.message = message
        self.on_outcome = on_outcome
        self.one_way = one_way
        self.attempt = 0
        self.completed = False
        self.span = None
        retry = self.transport.retry
        self.attempts_allowed = retry.max_attempts if retry is not None else 1

    # -- attempt lifecycle -------------------------------------------------------

    def start(self) -> None:
        tracer = _trace.ACTIVE
        if tracer is not None:
            self.span = tracer.begin(
                "table-notify" if self.one_way else "rpc",
                kind=self.message.kind,
                sender=self.message.sender, receiver=self.message.receiver,
                msg=tracer.alias("msg", self.message.message_id),
                session=tracer.alias("session", self.message.session_id))
        if not self.one_way:
            # Only a request has an answer to route back to it.
            self.scheduler.register(self)
        self._attempt_action()

    def _count(self, counter: str) -> None:
        session = self.transport.sessions.get(self.message.session_id)
        if session is not None:
            session.counters[counter] += 1

    @_under_span
    def _attempt_action(self) -> None:
        """One delivery attempt, at the current clock (the retry event's due
        time already includes the failed transmission's delay + backoff)."""
        self.attempt += 1
        transport = self.transport
        message = self.message
        session = transport.sessions.get(message.session_id)
        if session is not None and session.deadline_expired(transport.now_ms):
            session.note_deadline(transport.now_ms)
            self.finish(DeadlineExceeded(
                f"session {session.id!r} exceeded its deadline of "
                f"{session.deadline_at_ms:.1f} simulated ms "
                f"(clock now {transport.now_ms:.1f})"))
            return
        try:
            outcome = transport.begin_transmission(message)
        except MessageTooLargeError as error:
            self.finish(error)
            return
        if outcome.error is not None:
            self._fail_attempt(outcome.error, outcome.delay_ms)
            return
        decision = outcome.decision
        payload = message
        if decision is not None and decision.corrupt:
            # Deterministic damage, so never retried: a carried credential
            # is tampered (the receiver's verification rejects it), or —
            # with nothing to tamper — the checksum fails at the edge.
            try:
                payload = self._corrupted(message)
            except SignatureError as error:
                self._finish_after(outcome.delay_ms, error)
                return
        self.scheduler.schedule(
            outcome.delay_ms,
            self.scheduler._alias(message) + " deliver",
            lambda: self._deliver(payload, decision))

    def _corrupted(self, message: Message) -> Message:
        self.transport._note_fault("transport.corrupt", message)
        damaged = tamper_message(message)
        if damaged is None:
            raise SignatureError(
                f"{message.kind} from {message.sender!r} to "
                f"{message.receiver!r} failed its payload checksum")
        return damaged

    def _fail_attempt(self, error: TransientNetworkError,
                      delay_ms: float) -> None:
        """The transmission was lost: back off and retry (as a future event,
        with the *same* message — its id is the idempotency key) or give
        up once the retry policy's attempts run out."""
        transport = self.transport
        if self.attempt < self.attempts_allowed:
            backoff = transport.retry.backoff_ms(
                self.attempt, transport._backoff_rng)
            transport.stats.retries += 1
            self._count("retries")
            transport.stats.simulated_ms += backoff
            _FLIGHTREC.note(transport.now_ms, self.message.session_id,
                            "retry", self.message.sender,
                            self.message.receiver,
                            f"{self.message.kind} attempt {self.attempt + 1} "
                            f"backoff {backoff:.3f}ms")
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.event("transport.retry", parent=self.span,
                             kind=self.message.kind, attempt=self.attempt + 1,
                             backoff_ms=backoff,
                             msg=tracer.alias("msg", self.message.message_id))
            self.scheduler.schedule(
                delay_ms + backoff,
                self.scheduler._alias(self.message) + " retry",
                self._attempt_action)
            return
        self._count("gave_up")
        _FLIGHTREC.note(transport.now_ms, self.message.session_id,
                        "gave-up", self.message.sender, self.message.receiver,
                        f"{self.message.kind} after {self.attempt} attempts")
        self._finish_after(delay_ms, error)

    def _finish_after(self, delay_ms: float, outcome: object) -> None:
        """Deliver a terminal outcome once the in-flight transmission's
        simulated delay has elapsed."""
        self.scheduler.schedule(
            delay_ms,
            self.scheduler._alias(self.message) + " fail",
            lambda: self.finish(outcome))

    # -- receiver side -----------------------------------------------------------

    def _suppress_duplicate(self) -> None:
        self.transport.stats.duplicates_suppressed += 1
        self._count("duplicates_suppressed")

    @_under_span
    def _deliver(self, payload: Message, decision) -> None:
        """The message arrived: a redelivery is suppressed by the session's
        dedup ledger (a request's cached reply is retransmitted instead);
        anything new runs the receiver's handler."""
        transport = self.transport
        key = payload.dedup_key
        if self.one_way:
            delivered = transport._delivered_oneway.setdefault(
                payload.session_id, set())
            reply = None
            seen = key in delivered
            delivered.add(key)
        else:
            reply = transport._reply_cache.setdefault(
                payload.session_id, {}).get(key)
            seen = reply is not None
        if seen:
            self._suppress_duplicate()
            self._delivered(reply, decision)
            return
        try:
            receiver = transport.registry.get(payload.receiver)
        except UnknownPeerError as error:
            self.finish(error)
            return
        EvaluationTask(
            self.scheduler, _handler_steps(receiver, payload),
            on_done=lambda reply: self._handled(reply, decision),
            on_error=self._handler_failed).start()

    def _handled(self, reply: Optional[Message], decision) -> None:
        if not self.one_way:
            if reply is None:
                self.finish(NetworkError(
                    f"peer {self.message.receiver!r} returned no reply to "
                    f"{self.message.kind}"))
                return
            self.transport._reply_cache.setdefault(
                self.message.session_id, {})[self.message.dedup_key] = reply
        self._delivered(reply, decision)

    def _handler_failed(self, error: BaseException) -> None:
        if isinstance(error, TransientNetworkError):
            # Retried like a lost message; a request's reply cache is still
            # empty, so its handler re-executes.
            self._fail_attempt(error, 0.0)
        else:
            self.finish(error)

    def _delivered(self, reply: Optional[Message], decision) -> None:
        if decision is not None and decision.duplicate:
            # The network delivered a second copy: account it; the (now
            # populated) dedup ledger suppresses re-execution.
            self.transport.stats.record(
                self.message, self.message.wire_size(), 0.0)
            self._suppress_duplicate()
        if self.one_way:
            self.finish(None)
        else:
            self._send_reply(reply)

    @_under_span
    def _send_reply(self, reply: Message) -> None:
        transport = self.transport
        try:
            outcome = transport.begin_transmission(reply)
        except MessageTooLargeError as error:
            self.finish(error)
            return
        if outcome.error is not None:
            # Lost reply: the retry retransmits the *request* (same id);
            # redelivery hits the reply cache and retransmits this reply.
            self._fail_attempt(outcome.error, outcome.delay_ms)
            return
        decision = outcome.decision
        payload = reply
        if decision is not None and decision.corrupt:
            # The damaged copy is what arrives; a duplicate of it is not
            # accounted separately.
            try:
                payload = self._corrupted(reply)
            except SignatureError as error:
                self._finish_after(outcome.delay_ms, error)
                return
        elif decision is not None and decision.duplicate:
            transport.stats.record(reply, reply.wire_size(), 0.0)
            self._suppress_duplicate()
        if isinstance(payload, AnswerMessage):
            self.scheduler.schedule(
                outcome.delay_ms,
                self.scheduler._alias(payload) + " deliver",
                lambda: self.scheduler.deliver_answer(payload))
        else:
            self.scheduler.schedule(
                outcome.delay_ms,
                self.scheduler._alias(payload) + " deliver",
                lambda: self.finish(payload))

    # -- completion --------------------------------------------------------------

    def finish(self, outcome: object) -> None:
        """Terminal: hand the outcome to the waiting continuation.  Runs
        synchronously — resumption chains are bounded by the nesting
        budget."""
        if self.completed:
            return
        self.completed = True
        self.scheduler.unregister(self)
        failed = isinstance(outcome, BaseException)
        if failed and not self.one_way:
            # One-way senders log their own losses.
            _FLIGHTREC.note(self.transport.now_ms, self.message.session_id,
                            "rpc-failed", self.message.sender,
                            self.message.receiver,
                            f"{self.message.kind} "
                            f"{type(outcome).__name__}")
        tracer = _trace.ACTIVE
        if tracer is not None and self.span is not None:
            tracer.end(self.span, attempts=self.attempt, ok=not failed,
                       outcome=type(outcome).__name__)
        self.on_outcome(outcome)


class GatherExchange:
    """N concurrent request :class:`Exchange`s under one continuation — the
    scatter half of scatter-gather evaluation.

    Each call keeps its individual fault/retry semantics (it *is* an
    ordinary :class:`Exchange`); this class only bounds how many run
    at once (``Transport.max_in_flight``, the window) and collects their
    outcomes.  Outcomes are stored by **issue index**, and the continuation
    is resumed exactly once, after the last call lands, with the full list
    in issue order — so resumption is deterministic however arrival order
    interleaves.  Sim-clock tie-breaks stay deterministic too: launches
    happen in issue order, so every scheduled event keeps the scheduler's
    monotonically-increasing sequence numbers."""

    def __init__(self, scheduler: EventScheduler, calls,
                 on_outcome: Callable[[list], None]) -> None:
        self.scheduler = scheduler
        self.calls = list(calls)
        self.on_outcome = on_outcome
        self.outcomes: list[object] = [None] * len(self.calls)
        self.window = max(1, getattr(scheduler.transport, "max_in_flight", 1))
        self._launched = 0
        self._landed = 0

    def start(self) -> None:
        if not self.calls:
            self.on_outcome([])
            return
        for _ in range(min(self.window, len(self.calls))):
            self._launch_next()

    def _launch_next(self) -> None:
        index = self._launched
        self._launched += 1
        call = self.calls[index]
        exchange = Exchange(
            self.scheduler, call.message,
            on_outcome=lambda outcome, index=index: self._landed_at(
                index, outcome))
        tracer = _trace.ACTIVE
        ctx = getattr(call, "trace_ctx", None)
        if tracer is not None and ctx is not None:
            # Parent the RPC under the span that issued the call (the gather
            # batch), not under whichever event freed the window slot.
            with tracer.use(ctx):
                exchange.start()
        else:
            exchange.start()

    def _landed_at(self, index: int, outcome: object) -> None:
        self.outcomes[index] = outcome
        self._landed += 1
        if self._launched < len(self.calls):
            # Window slot freed: launch the next queued call.  A call that
            # completes synchronously (e.g. deadline already expired)
            # recurses into this method; the completion check below then
            # fires in the innermost frame, exactly once.
            self._launch_next()
        elif self._landed == len(self.calls):
            self.on_outcome(self.outcomes)


class EvaluationTask:
    """Drives one step generator to completion.  Each :class:`Suspension`
    the generator yields carries a
    :class:`repro.negotiation.engine.RemoteCall` (one nested
    :class:`Exchange`, request or one-way) or a
    :class:`repro.negotiation.engine.GatherCall` (a :class:`GatherExchange`
    fanning out N requests); either way the task resumes the generator — at
    the exact suspension point — with the exchange's outcome."""

    def __init__(self, scheduler: EventScheduler, generator,
                 on_done: Callable[[object], None],
                 on_error: Callable[[BaseException], None]) -> None:
        self.scheduler = scheduler
        self.generator = generator
        self.on_done = on_done
        self.on_error = on_error
        # The span current at construction (usually the RPC being answered):
        # every resumption of the generator runs under it, however the
        # resuming event was parented.
        tracer = _trace.ACTIVE
        self._ctx = tracer.current if tracer is not None else None

    def start(self) -> None:
        self._step(None)

    def _step(self, value: object) -> None:
        tracer = _trace.ACTIVE
        previous = tracer.set_current(self._ctx) if tracer is not None else None
        try:
            try:
                item = self.generator.send(value)
            except StopIteration as stop:
                self.on_done(stop.value)
                return
            except Exception as error:  # noqa: BLE001 - routed to the requester
                self.on_error(error)
                return
            assert isinstance(item, Suspension), item
            call = item.payload
            from repro.negotiation.engine import GatherCall

            if isinstance(call, GatherCall):
                GatherExchange(self.scheduler, call.calls,
                               on_outcome=self._step).start()
                return
            ctx = getattr(call, "trace_ctx", None)
            exchange = Exchange(self.scheduler, call.message,
                                on_outcome=self._step, one_way=call.one_way)
            if tracer is not None and ctx is not None:
                with tracer.use(ctx):
                    exchange.start()
            else:
                exchange.start()
        finally:
            if tracer is not None:
                tracer.set_current(previous)


def scheduler_for(transport) -> EventScheduler:
    """The transport's scheduler, creating and attaching it on first use."""
    if transport.scheduler is None:
        transport.scheduler = EventScheduler(transport)
    return transport.scheduler


def run_sync(transport,
             start: Callable[[EventScheduler, Callable[[object], None]],
                             None]) -> object:
    """The driver behind every synchronous entry point
    (``Transport.request``/``send``, ``Peer.handle``, ``Peer.local_query``,
    ...): ``start(scheduler, done)`` begins one piece of work on the
    transport's scheduler, the loop runs until idle, and the outcome handed
    to ``done`` is returned — or raised, when it is an exception.  Called
    from inside a dispatched event it raises :class:`RuntimeError` before
    touching the loop (see :meth:`EventScheduler.begin_run`)."""
    scheduler = scheduler_for(transport)
    scheduler.begin_run()
    outcomes: list[object] = []
    start(scheduler, outcomes.append)
    scheduler.run_until_idle()
    if not outcomes:
        raise RuntimeError(
            "the event loop went idle with the work still pending")
    if isinstance(outcomes[0], BaseException):
        raise outcomes[0]
    return outcomes[0]


def run_steps(transport, steps) -> object:
    """Drive a step generator to completion (see :func:`run_sync`) and
    return its value."""
    return run_sync(transport, lambda scheduler, done: EvaluationTask(
        scheduler, steps, on_done=done, on_error=done).start())
