"""Negotiation analysis: autonomy and information leakage (§6).

The paper's second future-work direction: "one would like to see an
analysis of the autonomy available to each peer (e.g., 'If I refuse to
answer this query, could it cause the negotiation to fail?') and the
information that can be leaked by a peer's behavior during negotiation."

Three analyses, all operating on *rebuildable* workloads (a zero-argument
builder returning a fresh :class:`~repro.workloads.generator.Workload`), so
each probe runs against a pristine world:

- :func:`critical_credentials` — which of the requester's credentials are
  load-bearing: ablate each and re-run.  A credential whose removal flips
  the outcome is critical; the rest are the requester's disclosure
  *slack* (autonomy).
- :func:`refusal_analysis` — the paper's question verbatim: for each
  (peer, predicate) the counterpart queries during a baseline run, make
  that peer refuse the predicate and re-run.  Refusals that flip the
  outcome are the peer's *obligatory* answers; the rest are discretionary.
- :func:`behaviour_leak_probe` — can an observer distinguish "provider
  cannot derive" from "provider will not release" from observable
  behaviour alone (message counts, bytes, transcript shape)?  The probe
  constructs both failure worlds and diffs the observables; a non-empty
  diff is a leak channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.datalog.ast import Literal
from repro.datalog.parser import parse_literal
from repro.workloads.generator import Workload
from repro.workloads.metrics import measure_negotiation

WorkloadBuilder = Callable[[], Workload]


# ---------------------------------------------------------------------------
# Critical credentials (disclosure slack)
# ---------------------------------------------------------------------------

@dataclass
class CredentialCriticality:
    """Outcome of ablating one credential."""

    head: str
    issuer: str
    serial: str
    critical: bool      # removal flips success to failure


def critical_credentials(
    build: WorkloadBuilder,
    peer_name: Optional[str] = None,
    strategy: str = "parsimonious",
) -> list[CredentialCriticality]:
    """Ablate each credential of ``peer_name`` (default: the requester).

    The baseline workload must succeed; raises ``ValueError`` otherwise
    (criticality is undefined for failing negotiations).
    """
    baseline = build()
    subject = (baseline.world.peers[peer_name]
               if peer_name is not None else baseline.requester)
    result, _ = measure_negotiation(baseline, strategy)
    if not result.granted:
        raise ValueError("baseline negotiation fails; criticality undefined")

    reports = []
    serials = [c.serial for c in subject.credentials.credentials()]
    for serial in serials:
        probe = build()
        probe_subject = (probe.world.peers[peer_name]
                         if peer_name is not None else probe.requester)
        victim = probe_subject.credentials.get(serial)
        if victim is None:
            continue
        probe_subject.credentials.remove(serial)
        outcome, _ = measure_negotiation(probe, strategy)
        reports.append(CredentialCriticality(
            head=str(victim.rule.head),
            issuer=victim.primary_issuer,
            serial=serial,
            critical=not outcome.granted,
        ))
    return reports


# ---------------------------------------------------------------------------
# Refusal analysis (the paper's autonomy question)
# ---------------------------------------------------------------------------

@dataclass
class RefusalImpact:
    """Outcome of one peer refusing one predicate."""

    peer: str
    predicate: str
    arity: int
    breaks_negotiation: bool


def _queried_predicates(workload: Workload, strategy: str) -> set[tuple[str, str, int]]:
    """(answering peer, predicate, arity) triples observed in a baseline run."""
    result, _ = measure_negotiation(workload, strategy)
    queried: set[tuple[str, str, int]] = set()
    if result.session is None:
        return queried
    for event in result.session.events("query"):
        # detail is the rendered goal; parse it back for the indicator.
        goal = parse_literal(event.detail)
        queried.add((event.counterpart, goal.predicate, len(goal.args)))
    return queried


def refusal_analysis(
    build: WorkloadBuilder,
    strategy: str = "parsimonious",
) -> list[RefusalImpact]:
    """For every (peer, predicate) queried in the baseline run, test whether
    that peer refusing the predicate makes the negotiation fail."""
    baseline = build()
    targets = _queried_predicates(baseline, strategy)
    impacts = []
    for peer_name, predicate, arity in sorted(targets):
        probe = build()
        refusing = probe.world.peers.get(peer_name)
        if refusing is None:
            continue

        def refuse(goal: Literal, requester: str,
                   banned: str = predicate) -> bool:
            return goal.predicate != banned

        refusing.query_filter = refuse
        outcome, _ = measure_negotiation(probe, strategy)
        impacts.append(RefusalImpact(
            peer=peer_name,
            predicate=predicate,
            arity=arity,
            breaks_negotiation=not outcome.granted,
        ))
    return impacts


# ---------------------------------------------------------------------------
# Behavioural information leakage
# ---------------------------------------------------------------------------

@dataclass
class LeakProbeReport:
    """Observable differences between two failure modes.

    ``cannot`` is the world where the provider genuinely cannot derive the
    goal; ``willnot`` the world where it can but refuses to release.  Any
    observable that differs is a channel through which a requester learns
    *which* failure occurred — information the provider may consider
    sensitive (the denied/underivable distinction is deliberately absent
    from the failure message itself)."""

    cannot_messages: int
    willnot_messages: int
    cannot_bytes: int
    willnot_bytes: int
    cannot_events: tuple[str, ...]
    willnot_events: tuple[str, ...]
    leaking_channels: list[str] = field(default_factory=list)

    @property
    def leaks(self) -> bool:
        return bool(self.leaking_channels)


# Transcript kinds that correspond to observable wire traffic.  Internal
# decision events (release-denied, sticky-denied, loop, ...) are invisible
# to the counterpart; failure-shaped kinds all manifest as the same empty
# AnswerMessage and are normalised accordingly.
_WIRE_KINDS = {
    "initiate": "query",
    "query": "query",
    "answer": "answer",
    "deny": "failure-answer",
    "failure": "failure-answer",
    "refuse": "failure-answer",
    "exhausted": "failure-answer",
    "disclose": "disclose",
    "receive": "receive",
    "absorb": "receive",
    "forward": "query",
}


def behaviour_leak_probe(
    build_cannot: WorkloadBuilder,
    build_willnot: WorkloadBuilder,
    strategy: str = "parsimonious",
    observer: Optional[str] = None,
) -> LeakProbeReport:
    """Diff the observables of two failing negotiations.

    Callers supply two builders producing the same goal/topology where the
    failure cause differs (underivable vs. unreleased).  Both runs must
    fail; raises ``ValueError`` otherwise.  ``observer`` names the peer
    whose viewpoint is analysed (default: the requester) — only wire
    traffic that peer sends or receives counts as observable.
    """
    cannot_result, cannot_report = measure_negotiation(build_cannot(), strategy)
    willnot_result, willnot_report = measure_negotiation(build_willnot(), strategy)
    if cannot_result.granted or willnot_result.granted:
        raise ValueError("leak probe requires two failing negotiations")

    def observable_view(result):
        name = observer if observer is not None else result.requester
        view = []
        for event in result.session.transcript:
            if event.kind not in _WIRE_KINDS:
                continue
            if event.actor != name and event.counterpart != name:
                continue
            direction = "out" if event.actor == name else "in"
            view.append(f"{direction}:{_WIRE_KINDS[event.kind]}")
        return tuple(view)

    cannot_events = observable_view(cannot_result)
    willnot_events = observable_view(willnot_result)

    report = LeakProbeReport(
        cannot_messages=cannot_report.messages,
        willnot_messages=willnot_report.messages,
        cannot_bytes=cannot_report.bytes,
        willnot_bytes=willnot_report.bytes,
        cannot_events=cannot_events,
        willnot_events=willnot_events,
    )
    if report.cannot_messages != report.willnot_messages:
        report.leaking_channels.append("message count")
    if report.cannot_bytes != report.willnot_bytes:
        report.leaking_channels.append("byte count")
    if cannot_events != willnot_events:
        report.leaking_channels.append("event sequence")
    return report
