"""The event-driven negotiation runtime — the only one.

The discrete-event scheduler (:mod:`repro.runtime.scheduler`) carries every
message between peers: remote sub-queries park the enclosing proof as an
explicit continuation and resume when the answer event is delivered.  The
drivers (:mod:`repro.runtime.negotiation`) expose a synchronous facade
(:func:`run_negotiation`) plus :func:`run_many` for deterministic
interleaving of whole batches; :func:`run_sync` / :func:`run_steps` drive
every other synchronous entry point.
"""

from repro.runtime.negotiation import (
    ConcurrencyReport,
    NegotiationSpec,
    run_many,
    run_negotiation,
)
from repro.runtime.scheduler import (
    EvaluationTask,
    EventScheduler,
    Exchange,
    run_steps,
    run_sync,
    scheduler_for,
)

__all__ = [
    "ConcurrencyReport",
    "EvaluationTask",
    "EventScheduler",
    "Exchange",
    "NegotiationSpec",
    "run_many",
    "run_negotiation",
    "run_steps",
    "run_sync",
    "scheduler_for",
]
