"""Span tracer: simulated-clock-aware, deterministic, off by default.

The tracer reconstructs a whole n-peer negotiation as **one tree**: spans
(operations with a duration — a negotiation, one RPC exchange, one peer's
query evaluation, one remote sub-call) and events (instants — a goal
expansion, a table hit, a transmission, a retry, a policy release decision)
linked by parent ids.

**Disabled means free.**  The module-level :data:`ACTIVE` slot is ``None``
unless someone calls :func:`activate`; every instrumented call site guards
with ``tracer = trace.ACTIVE`` / ``if tracer is not None`` before touching
anything else, so the disabled path costs one global load and an identity
check (``benchmarks/bench_obs.py`` measures it).

**Enabled means deterministic.**  Records carry no wall-clock time and no
process-global identifiers: timestamps come from the tracer's ``clock``
(bound to the transport's simulated clock, or a logical step counter when
there is none), span/event ids are sequential per tracer, and raw message
or session ids are mapped through :meth:`Tracer.alias` to small per-run
integers.  Same seed, same inputs ⇒ byte-identical JSONL — which makes an
exported trace a stronger determinism oracle than the scheduler's label
trace (it covers engine, policy, and transport layers, not just event
dispatch).

Record shapes (one JSON object per line, compact separators)::

    {"t":"span","id":3,"parent":1,"name":"rpc","start":0.0,"end":4.1,"attrs":{...}}
    {"t":"event","id":4,"parent":3,"name":"transport.send","at":2.0,"attrs":{...}}

Span records are emitted when the span *finishes* (export flushes any
still-open spans with ``"end": null``); events are emitted immediately.
Consumers reconstruct the tree from ``parent`` and order by ``start``/
``at`` with ``id`` as the tie-break.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Optional

# The one global guard every instrumented call site checks.  ``None`` means
# tracing is off and the call site must do nothing else.
ACTIVE: Optional["Tracer"] = None

# Sentinel distinguishing "parent not given: use the current span" from an
# explicit ``parent=None`` (a root span).
_CURRENT = object()


def _clean(value):
    """Normalise an attribute value for deterministic JSON emission."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return round(value, 3)
    return str(value)


class Span:
    """One traced operation.  Mutable until :meth:`Tracer.end` seals it."""

    __slots__ = ("id", "parent_id", "name", "start_ms", "end_ms", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start_ms: float, attrs: dict) -> None:
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.id}, {self.name!r}, parent={self.parent_id})"


class Tracer:
    """Collects spans and events for one traced run.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time in simulated
        milliseconds — typically ``lambda: transport.now_ms``.  With no
        clock the tracer uses a logical step counter (one tick per record),
        which is still deterministic.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock
        self.records: list[dict] = []
        self.current: Optional[Span] = None
        self._next_id = 0
        self._step = 0
        self._open: dict[int, Span] = {}
        # kind -> raw id -> small per-run alias (first-seen order).
        self._aliases: dict[str, dict] = {}

    # -- clock and identity -------------------------------------------------------

    def now(self) -> float:
        if self.clock is not None:
            return float(self.clock())
        self._step += 1
        return float(self._step)

    def alias(self, kind: str, raw) -> int:
        """A small per-run integer standing in for a process-global id.

        Raw message/session ids come from process-wide counters and must
        never reach the trace; aliases are assigned in first-seen order,
        which is itself deterministic."""
        table = self._aliases.setdefault(kind, {})
        alias = table.get(raw)
        if alias is None:
            alias = table[raw] = len(table) + 1
        return alias

    # -- spans --------------------------------------------------------------------

    def begin(self, name: str, parent=_CURRENT, **attrs) -> Span:
        """Open a span.  ``parent`` defaults to the current span; pass an
        explicit :class:`Span` (or ``None`` for a root) when the causal
        parent is not the lexically current one — the event-driven runtime
        does this for exchanges resumed across scheduler events."""
        if parent is _CURRENT:
            parent = self.current
        self._next_id += 1
        span = Span(self._next_id, parent.id if parent is not None else None,
                    name, self.now(), attrs)
        self._open[span.id] = span
        return span

    def end(self, span: Span, **attrs) -> None:
        """Seal a span and emit its record.  Idempotent: ending twice (an
        exchange that completes through two paths) keeps the first end."""
        if span.end_ms is not None:
            return
        if attrs:
            span.attrs.update(attrs)
        span.end_ms = self.now()
        self._open.pop(span.id, None)
        self.records.append(self._span_record(span))

    @contextmanager
    def span(self, name: str, parent=_CURRENT, **attrs):
        """begin + make current + end, for synchronous scopes."""
        span = self.begin(name, parent=parent, **attrs)
        previous = self.current
        self.current = span
        try:
            yield span
        finally:
            self.current = previous
            self.end(span)

    @contextmanager
    def use(self, span: Optional[Span]):
        """Temporarily make ``span`` the current span (no begin/end)."""
        previous = self.current
        self.current = span
        try:
            yield span
        finally:
            self.current = previous

    def set_current(self, span: Optional[Span]) -> Optional[Span]:
        """Manual counterpart of :meth:`use` for drivers that cannot hold a
        ``with`` block open across callbacks; returns the previous span."""
        previous = self.current
        self.current = span
        return previous

    def resume_under(self, span: Optional[Span], steps):
        """Drive the step generator ``steps`` with ``span`` current while it
        executes: each item it yields reaches the caller with the caller's
        own span restored, and whatever the caller sends back resumes
        ``steps``.  Returns the generator's return value; ending ``span``
        stays with the caller."""
        outcome = None
        while True:
            previous = self.set_current(span)
            try:
                item = steps.send(outcome)
            except StopIteration as stop:
                return stop.value
            finally:
                self.set_current(previous)
            outcome = yield item

    # -- events -------------------------------------------------------------------

    def event(self, name: str, parent=_CURRENT, **attrs) -> None:
        """Record an instant under the current (or given) span."""
        if parent is _CURRENT:
            parent = self.current
        self._next_id += 1
        self.records.append({
            "t": "event",
            "id": self._next_id,
            "parent": parent.id if parent is not None else None,
            "name": name,
            "at": round(self.now(), 3),
            "attrs": {key: _clean(value) for key, value in attrs.items()},
        })

    # -- export -------------------------------------------------------------------

    def _span_record(self, span: Span) -> dict:
        return {
            "t": "span",
            "id": span.id,
            "parent": span.parent_id,
            "name": span.name,
            "start": round(span.start_ms, 3),
            "end": round(span.end_ms, 3) if span.end_ms is not None else None,
            "attrs": {key: _clean(value) for key, value in span.attrs.items()},
        }

    def all_records(self) -> list[dict]:
        """Emitted records plus still-open spans (``end`` = None), the
        latter in id order so exports stay deterministic mid-run."""
        pending = [self._span_record(span)
                   for _id, span in sorted(self._open.items())]
        return self.records + pending

    def to_jsonl(self) -> str:
        return "".join(json.dumps(record, separators=(",", ":")) + "\n"
                       for record in self.all_records())

    def export(self, path) -> int:
        """Write the JSONL trace to ``path`` (atomically — a crashed or
        interrupted run leaves the previous file, never a torn one);
        returns the record count."""
        from repro.storage.atomic import atomic_write_text

        atomic_write_text(path, self.to_jsonl())
        return len(self.all_records())


# -- global activation ----------------------------------------------------------


def activate(tracer: Tracer) -> Optional[Tracer]:
    """Install ``tracer`` as the process-wide active tracer; returns the
    previously active one (usually ``None``)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer
    return previous


def deactivate() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Scoped activation: ``with tracing() as t: ... t.to_jsonl()``."""
    tracer = tracer if tracer is not None else Tracer()
    previous = activate(tracer)
    try:
        yield tracer
    finally:
        activate(previous) if previous is not None else deactivate()
