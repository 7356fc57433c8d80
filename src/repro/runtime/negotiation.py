"""Event-driven negotiation drivers and the synchronous facade.

:func:`run_negotiation` is the facade the strategy layer calls: it starts
one parsimonious negotiation on the transport's event scheduler, pumps the
loop to quiescence, and returns the familiar
:class:`~repro.negotiation.result.NegotiationResult`.

:func:`run_many` runs N negotiations interleaved on one scheduler under one
simulated clock, deterministically (same seed + same specs ⇒ same event
trace, via the scheduler's alias-labelled trace), with per-negotiation
sim-clock spans and whole-batch wall/throughput figures for the concurrency
experiment (E14).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.datalog.ast import Literal
from repro.errors import NetworkError, SignatureError, UnknownPeerError
from repro.negotiation.result import NegotiationResult
from repro.negotiation.session import next_session_id
from repro.net.message import QueryMessage
from repro.obs import trace as _trace
from repro.runtime.scheduler import EventScheduler, Exchange, scheduler_for


@dataclass(frozen=True, slots=True)
class NegotiationSpec:
    """One negotiation to run under :func:`run_many`."""

    requester: object          # Peer
    provider: str
    goal: Literal
    deadline_ms: Optional[float] = None


@dataclass
class ConcurrencyReport:
    """What :func:`run_many` returns: the results in spec order plus the
    batch-level scheduling figures the concurrency benchmark plots."""

    results: list[NegotiationResult] = field(default_factory=list)
    # Per-negotiation simulated spans, spec order: (start_ms, end_ms).
    spans: list[tuple[float, float]] = field(default_factory=list)
    makespan_ms: float = 0.0          # simulated batch duration
    serial_ms: float = 0.0            # sum of individual spans
    wall_seconds: float = 0.0         # host time pumping the loop
    events: int = 0
    max_queue_depth: int = 0
    trace: tuple[str, ...] = ()

    @property
    def granted(self) -> int:
        return sum(1 for result in self.results if result.granted)


class _NegotiationDriver:
    """One parsimonious negotiation: the opening query is issued when the
    driver starts, its outcome absorbed after the scheduler quiesces."""

    def __init__(self, scheduler: EventScheduler, requester, provider_name: str,
                 goal: Literal, deadline_ms: Optional[float]) -> None:
        from repro.negotiation.strategies import _arm_deadline

        self.scheduler = scheduler
        self.transport = scheduler.transport
        self.requester = requester
        self.provider_name = provider_name
        self.goal = goal
        self.session = self.transport.sessions.get_or_create(
            next_session_id(), requester.name, requester.max_nesting)
        _arm_deadline(self.session, self.transport, requester, deadline_ms)
        self.outcome: object = None
        self.start_ms = 0.0
        self.end_ms = 0.0
        self.done = False
        self.span = None

    def start(self) -> None:
        self.start_ms = self.transport.now_ms
        self.session.log("initiate", self.requester.name, self.provider_name,
                         str(self.goal))
        tracer = _trace.ACTIVE
        if tracer is not None:
            # Root of the whole negotiation tree: every exchange, peer
            # evaluation, and transport event reconstructs under it.
            self.span = tracer.begin(
                "negotiation", parent=None,
                requester=self.requester.name, provider=self.provider_name,
                goal=str(self.goal),
                session=tracer.alias("session", self.session.id))
        exchange = Exchange(
            self.scheduler,
            QueryMessage(
                sender=self.requester.name,
                receiver=self.provider_name,
                session_id=self.session.id,
                goal=self.goal,
            ),
            on_outcome=self.finished,
        )
        if tracer is not None:
            with tracer.use(self.span):
                exchange.start()
        else:
            exchange.start()

    def finished(self, outcome: object) -> None:
        self.outcome = outcome
        self.end_ms = self.transport.now_ms
        self.done = True

    def absorb(self) -> NegotiationResult:
        """Fold the opening exchange's outcome into a result."""
        from repro.negotiation.strategies import (
            _finish_session,
            _record_network_failure,
        )

        result = NegotiationResult(
            granted=False, goal=self.goal, provider=self.provider_name,
            requester=self.requester.name, session=self.session)
        try:
            outcome = self.outcome
            if isinstance(outcome, UnknownPeerError):
                raise outcome  # an addressing bug in the caller, not weather
            if isinstance(outcome, (NetworkError, SignatureError)):
                _record_network_failure(result, self.session, outcome)
                return result
            if isinstance(outcome, BaseException):
                raise outcome
            if not self.done:
                raise RuntimeError(
                    f"negotiation {self.session.id!r} never completed: the "
                    "scheduler quiesced with its exchange still pending")

            items = getattr(outcome, "items", ())
            if not items:
                result.failure_kind = "denied"
                result.failure_reason = (
                    "provider denied or could not derive the goal")
                return result

            overlay = self.session.received_for(self.requester.name)
            deltas = getattr(self.transport, "disclosure_deltas", False)
            for item in items:
                received = list(item.credentials)
                if deltas and item.answer_credential is not None:
                    # Under disclosure deltas the provider's wire ledger
                    # assumes we cache every full payload it ships: a later
                    # CredentialRef for this answer credential must resolve
                    # from our session overlay.
                    received.append(item.answer_credential)
                for credential in received:
                    try:
                        self.requester.hold_received(credential, self.session)
                    except Exception:  # noqa: BLE001 - recorded, not fatal
                        self.session.counters["bad_credentials"] += 1
                        continue
                if item.answered_literal is not None:
                    result.answers.append(
                        (item.answered_literal, dict(item.bindings)))
            result.credentials_received = list(overlay.credentials())
            result.granted = bool(result.answers)
            if not result.granted:
                result.failure_kind = "denied"
                result.failure_reason = "answers could not be validated"
            else:
                self.session.log("granted", self.provider_name,
                                 self.requester.name, str(self.goal))
            return result
        finally:
            tracer = _trace.ACTIVE
            if tracer is not None and self.span is not None:
                tracer.end(self.span, granted=result.granted,
                           failure_kind=result.failure_kind)
            _finish_session(self.transport, self.session, result)


def run_negotiation(
    requester,
    provider_name: str,
    goal: Literal,
    deadline_ms: Optional[float] = None,
) -> NegotiationResult:
    """Synchronous facade over the event loop: :func:`run_many` of one
    negotiation."""
    spec = NegotiationSpec(requester, provider_name, goal, deadline_ms)
    return run_many([spec]).results[0]


def run_many(
    specs: list[NegotiationSpec],
    stagger_ms: float = 0.0,
) -> ConcurrencyReport:
    """Interleave many parsimonious negotiations on one scheduler.

    All specs must share a transport.  With ``stagger_ms`` zero every
    negotiation issues its opening query at the current instant; otherwise
    negotiation *i* starts ``i * stagger_ms`` simulated ms later.  Events
    from different negotiations then interleave in due-time order under the
    single simulated clock — deterministically: the heap breaks ties by
    schedule order, and every random draw (fault plan, backoff jitter)
    comes from seeded streams consumed in event order."""
    if not specs:
        return ConcurrencyReport()
    transports = {id(spec.requester.transport) for spec in specs}
    if None in {spec.requester.transport for spec in specs}:
        raise RuntimeError("every requester must be attached to a transport")
    if len(transports) != 1:
        raise RuntimeError("run_many interleaves on ONE transport; the specs "
                           f"span {len(transports)}")
    transport = specs[0].requester.transport
    scheduler = scheduler_for(transport)
    scheduler.begin_run()

    batch_start = transport.now_ms
    drivers: list[_NegotiationDriver] = []
    for index, spec in enumerate(specs):
        driver = _NegotiationDriver(
            scheduler, spec.requester, spec.provider, spec.goal,
            spec.deadline_ms)
        drivers.append(driver)
        if stagger_ms:
            scheduler.schedule(index * stagger_ms,
                               f"start negotiation {index}", driver.start)
        else:
            driver.start()

    wall_start = time.perf_counter()
    events = scheduler.run_until_idle()
    wall_seconds = time.perf_counter() - wall_start

    report = ConcurrencyReport(
        results=[driver.absorb() for driver in drivers],
        spans=[(driver.start_ms, driver.end_ms) for driver in drivers],
        wall_seconds=wall_seconds,
        events=events,
        max_queue_depth=transport.stats.max_queue_depth,
        trace=tuple(scheduler.trace),
    )
    report.makespan_ms = max((end for _start, end in report.spans),
                             default=batch_start) - batch_start
    report.serial_ms = sum(end - start for start, end in report.spans)
    return report
