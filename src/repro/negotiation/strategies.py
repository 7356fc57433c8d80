"""Negotiation strategies.

Yu, Winslett & Seamons (TISSEC 2003) frame strategies as the policy each
party uses to choose *what to disclose next* from among all safe
disclosures; PeerTrust's §5 notes "similar concepts will be needed in
PeerTrust".  Two classic endpoints of that family are implemented:

**Parsimonious (request-driven).**  The default PeerTrust evaluation: a
query triggers exactly the counter-queries its release policies demand, and
only the credentials needed for the proof at hand are disclosed.  Minimal
disclosure, more message round trips; fails on circularly interdependent
release policies (each side waits for the other — the in-flight loop check
fails that branch).

**Eager.**  Both parties alternately push *every* credential whose release
policy is unlocked by what they have received so far, without queries.
Maximal disclosure, few rounds; succeeds on any negotiation for which a
safe disclosure sequence exists (including the circular cases parsimonious
cannot finish) — the interoperability property tested in E6.

Both drivers return a :class:`repro.negotiation.result.NegotiationResult`
with the shared session attached, so experiments compare them on identical
metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.credentials.credential import Credential
from repro.datalog.ast import Literal
from repro.errors import (
    DeadlineExceeded,
    NetworkError,
    SignatureError,
    TransientNetworkError,
    UnknownPeerError,
)
from repro.net.message import DisclosureMessage, QueryMessage
from repro.negotiation.engine import EvalContext
from repro.obs import flightrec
from repro.negotiation.peer import Peer
from repro.negotiation.result import NegotiationResult
from repro.negotiation.session import next_session_id
from repro.policy.release import credential_release_decisions


def negotiate(
    requester: Peer,
    provider_name: str,
    goal: Literal,
    strategy: str = "parsimonious",
    max_rounds: int = 50,
    deadline_ms: Optional[float] = None,
) -> NegotiationResult:
    """Run one negotiation with the named strategy.  ``deadline_ms`` bounds
    the negotiation's simulated time (default: the requester's own
    ``deadline_ms`` policy, if any); exhaustion yields a clean failed result,
    never a hang or an escaping exception."""
    if strategy == "parsimonious":
        return parsimonious_negotiate(requester, provider_name, goal,
                                      deadline_ms=deadline_ms)
    if strategy == "eager":
        return eager_negotiate(requester, provider_name, goal,
                               max_rounds=max_rounds, deadline_ms=deadline_ms)
    raise ValueError(f"unknown strategy {strategy!r}")


def _arm_deadline(session, transport, requester: Peer,
                  deadline_ms: Optional[float]) -> None:
    budget = deadline_ms if deadline_ms is not None else requester.deadline_ms
    if budget is not None:
        session.set_deadline(transport.now_ms + budget)


def _record_network_failure(result: NegotiationResult, session,
                            error: Exception) -> None:
    """Convert a terminal network-layer error into a clean failed result."""
    if isinstance(error, DeadlineExceeded):
        result.failure_kind = "deadline"
        result.failure_reason = f"deadline exceeded: {error}"
        session.log("abort", result.requester, result.provider,
                    "deadline exceeded")
    elif isinstance(error, TransientNetworkError):
        result.failure_kind = "network"
        result.failure_reason = f"network failure outlasted retries: {error}"
        session.log("abort", result.requester, result.provider,
                    "network failure")
    elif isinstance(error, SignatureError):
        result.failure_kind = "corrupt"
        result.failure_reason = f"payload corrupted in transit: {error}"
        session.log("abort", result.requester, result.provider,
                    "corrupt payload")
    else:
        result.failure_kind = "protocol"
        result.failure_reason = str(error)
        session.log("abort", result.requester, result.provider, str(error))


def _finish_session(transport, session, result=None) -> None:
    """End-of-negotiation audit + eviction (both strategies, every path):
    no in-flight entries may survive, and the transport's session table must
    not grow without bound under heavy traffic.  When the negotiation
    failed (``result.failure_kind``), the flight recorder dumps its
    post-mortem *before* eviction forgets the session's ring."""
    session.audit_in_flight()
    if result is not None and result.failure_kind:
        flightrec.dump_failure(result, session, transport)
    transport.release_session(session.id)


# ---------------------------------------------------------------------------
# Parsimonious: the request-driven metainterpreter
# ---------------------------------------------------------------------------

def parsimonious_negotiate(
    requester: Peer,
    provider_name: str,
    goal: Literal,
    deadline_ms: Optional[float] = None,
) -> NegotiationResult:
    """Send the goal to the provider and let release policies drive the
    bilateral exchange.  The negotiation runs on the transport's event
    scheduler (remote sub-queries suspend and resume as events) and the
    loop is pumped to quiescence before returning."""
    from repro.runtime import run_negotiation

    return run_negotiation(requester, provider_name, goal,
                           deadline_ms=deadline_ms)


# ---------------------------------------------------------------------------
# Eager: alternating disclose-everything-unlocked rounds
# ---------------------------------------------------------------------------

def _unlocked_credentials(
    peer: Peer,
    counterpart: str,
    session,
    drop_peers: frozenset[str] | None = None,
) -> list[Credential]:
    """Every own credential whose release policy is provable *offline* —
    using only the peer's knowledge plus what has already been disclosed to
    it this session (no queries).  ``drop_peers`` lists the peers whose
    evaluation-directive layers may be consumed (the counterpart in the
    two-party case; every participant in multiparty negotiation)."""
    unlocked: list[Credential] = []
    context = EvalContext(
        peer=peer,
        session=session,
        requester=counterpart,
        kb=peer.kb,
        stores=[peer.credentials, session.received_for(peer.name)],
        allow_remote=False,
        drop_peers=drop_peers if drop_peers is not None
        else frozenset({counterpart}),
    )
    for credential in peer.credentials.credentials():
        for decision in credential_release_decisions(
                peer.kb, credential, counterpart, peer.name):
            if not decision.goals or context.prove(decision.goals) is not None:
                unlocked.append(credential)
                break

    # Plain releasable facts (Bob's email, a local database row) travel as
    # self-signed assertions: derive every ground instance of each release
    # policy head whose obligations hold, and push it.
    for policy in peer.kb.release_policies():
        head = policy.head
        if head.authority:
            innermost = head.authority[0]
            value = getattr(innermost, "value", None)
            if value != peer.name:
                continue  # cannot self-vouch for a foreign authority
        for solution in context.query_goal(head, max_solutions=8):
            literal = head.apply(solution.subst)
            if not literal.is_ground():
                continue
            from repro.policy.release import release_obligations

            for decision in release_obligations(
                    peer.kb, literal, counterpart, peer.name):
                if not decision.goals or context.prove(decision.goals) is not None:
                    unlocked.append(peer.self_credential(literal))
                    break
    return unlocked


def _provider_grants(
    provider: Peer,
    requester_name: str,
    goal: Literal,
    session,
    drop_peers: frozenset[str] | None = None,
):
    """Offline grant check: can the provider derive the goal and release the
    answer using only local knowledge + received credentials?  Release
    obligations may still query other peers, so the check runs on the
    transport's event loop."""
    from repro.runtime.scheduler import run_steps

    return run_steps(provider.transport, _provider_grants_steps(
        provider, requester_name, goal, session, drop_peers))


def _provider_grants_steps(provider: Peer, requester_name: str, goal: Literal,
                           session, drop_peers: frozenset[str] | None):
    context = EvalContext(
        peer=provider,
        session=session,
        requester=requester_name,
        kb=provider.kb,
        stores=[provider.credentials, session.received_for(provider.name)],
        allow_remote=False,
        drop_peers=drop_peers if drop_peers is not None
        else frozenset({requester_name}),
    )
    solutions = context.query_goal(goal, max_solutions=provider.max_answers)
    for solution in solutions:
        answered = goal.apply(solution.subst)
        releasable = yield from provider._answer_releasable_steps(
            answered, solution, requester_name, session)
        if releasable:
            return answered, solution
    # Pure resource policies (`$`-only predicates): grant through the
    # release-policy path, offline.
    grants = yield from provider._release_policy_grants_steps(
        goal, requester_name, session, allow_remote=False)
    if grants and grants[0].answered_literal is not None:
        return grants[0].answered_literal, None
    return None


def eager_negotiate(
    requester: Peer,
    provider_name: str,
    goal: Literal,
    max_rounds: int = 50,
    deadline_ms: Optional[float] = None,
) -> NegotiationResult:
    """Alternating rounds of maximal safe disclosure, no counter-queries."""
    transport = requester.transport
    if transport is None:
        raise RuntimeError(f"peer {requester.name!r} is not attached to a transport")
    provider = transport.registry.get(provider_name)
    session = transport.sessions.get_or_create(
        next_session_id("eager"), requester.name, requester.max_nesting)
    _arm_deadline(session, transport, requester, deadline_ms)
    session.log("initiate", requester.name, provider_name, f"[eager] {goal}")

    result = NegotiationResult(
        granted=False, goal=goal, provider=provider_name,
        requester=requester.name, session=session)

    sent: dict[str, set[str]] = {requester.name: set(), provider_name: set()}
    sides = [(requester, provider), (provider, requester)]
    stalled_rounds = 0

    try:
        for round_number in range(max_rounds):
            grant = _provider_grants(provider, requester.name, goal, session)
            if grant is not None:
                answered, _solution = grant
                result.granted = True
                result.answers.append((answered, {}))
                result.credentials_received = list(
                    session.received_for(requester.name).credentials())
                session.log("granted", provider_name, requester.name, str(answered))
                return result

            disclosing, receiving = sides[round_number % 2]
            unlocked = [
                credential for credential in _unlocked_credentials(
                    disclosing, receiving.name, session)
                if credential.serial not in sent[disclosing.name]
            ]
            if unlocked:
                stalled_rounds = 0
                for credential in unlocked:
                    session.log("disclose", disclosing.name, receiving.name,
                                str(credential.rule.head))
                try:
                    transport.send(DisclosureMessage(
                        sender=disclosing.name,
                        receiver=receiving.name,
                        session_id=session.id,
                        credentials=tuple(unlocked),
                    ))
                except DeadlineExceeded as error:
                    _record_network_failure(result, session, error)
                    return result
                except TransientNetworkError:
                    # The batch was lost despite retries.  Not marking it
                    # sent lets a later round re-offer it; the answer set can
                    # only have shrunk in the meantime.
                    session.counters["lost_disclosures"] += len(unlocked)
                    session.log("lost", disclosing.name, receiving.name,
                                f"{len(unlocked)} credential(s) lost in transit")
                    stalled_rounds += 1
                    if stalled_rounds >= 2:
                        break
                    continue
                sent[disclosing.name].update(c.serial for c in unlocked)
            else:
                stalled_rounds += 1
                if stalled_rounds >= 2:  # a full silent round on both sides
                    break

        grant = _provider_grants(provider, requester.name, goal, session)
        if grant is not None:
            answered, _solution = grant
            result.granted = True
            result.answers.append((answered, {}))
            result.credentials_received = list(
                session.received_for(requester.name).credentials())
            session.log("granted", provider_name, requester.name, str(answered))
        else:
            result.failure_kind = "denied"
            result.failure_reason = "no further safe disclosures and goal underivable"
        return result
    finally:
        _finish_session(transport, session, result)


# ---------------------------------------------------------------------------
# Multiparty eager negotiation (§6: extending two-party strategies to n peers)
# ---------------------------------------------------------------------------

def eager_multiparty_negotiate(
    requester: Peer,
    provider_name: str,
    goal: Literal,
    participants: Optional[list[str]] = None,
    max_rounds: int = 50,
    deadline_ms: Optional[float] = None,
) -> NegotiationResult:
    """Eager negotiation over an arbitrary participant set.

    §6: the two-party strategy families "were designed for negotiations
    that involve exactly two peers"; extending them "to work with the n
    peers that may take part in a negotiation under PeerTrust" is listed as
    an open direction.  This driver is that extension for the eager
    strategy: every round, every participant pushes to every other
    participant all credentials whose release policies its accumulated
    evidence unlocks.  Material from *any* participant counts toward
    unlocking — which is exactly what the two-party driver cannot express
    (a requester whose release guard needs a third party's statement
    deadlocks bilaterally but converges here).

    ``participants`` lists additional peer names beyond the requester and
    provider (e.g. an endorsing authority).
    """
    transport = requester.transport
    if transport is None:
        raise RuntimeError(f"peer {requester.name!r} is not attached to a transport")
    names = [requester.name, provider_name] + [
        name for name in (participants or ())
        if name not in (requester.name, provider_name)
    ]
    peers = [transport.registry.get(name) for name in names]
    provider = transport.registry.get(provider_name)
    session = transport.sessions.get_or_create(
        next_session_id("multiparty"), requester.name, requester.max_nesting)
    _arm_deadline(session, transport, requester, deadline_ms)
    session.log("initiate", requester.name, provider_name,
                f"[eager-multiparty x{len(names)}] {goal}")

    result = NegotiationResult(
        granted=False, goal=goal, provider=provider_name,
        requester=requester.name, session=session)
    everyone = frozenset(names)
    sent: dict[tuple[str, str], set[str]] = {
        (a, b): set() for a in names for b in names if a != b
    }

    try:
        for _ in range(max_rounds):
            grant = _provider_grants(
                provider, requester.name, goal, session,
                drop_peers=everyone - {provider_name})
            if grant is not None:
                answered, _solution = grant
                result.granted = True
                result.answers.append((answered, {}))
                result.credentials_received = list(
                    session.received_for(requester.name).credentials())
                session.log("granted", provider_name, requester.name, str(answered))
                return result

            any_disclosure = False
            for discloser in peers:
                for receiver in peers:
                    if receiver.name == discloser.name:
                        continue
                    unlocked = [
                        credential for credential in _unlocked_credentials(
                            discloser, receiver.name, session,
                            drop_peers=everyone - {discloser.name})
                        if credential.serial not in sent[(discloser.name, receiver.name)]
                    ]
                    if not unlocked:
                        continue
                    for credential in unlocked:
                        session.log("disclose", discloser.name, receiver.name,
                                    str(credential.rule.head))
                    try:
                        transport.send(DisclosureMessage(
                            sender=discloser.name,
                            receiver=receiver.name,
                            session_id=session.id,
                            credentials=tuple(unlocked),
                        ))
                    except DeadlineExceeded as error:
                        _record_network_failure(result, session, error)
                        return result
                    except TransientNetworkError:
                        session.counters["lost_disclosures"] += len(unlocked)
                        session.log("lost", discloser.name, receiver.name,
                                    f"{len(unlocked)} credential(s) lost in transit")
                        continue
                    any_disclosure = True
                    sent[(discloser.name, receiver.name)].update(
                        c.serial for c in unlocked)
            if not any_disclosure:
                break

        grant = _provider_grants(provider, requester.name, goal, session,
                                 drop_peers=everyone - {provider_name})
        if grant is not None:
            answered, _solution = grant
            result.granted = True
            result.answers.append((answered, {}))
            result.credentials_received = list(
                session.received_for(requester.name).credentials())
            session.log("granted", provider_name, requester.name, str(answered))
        else:
            result.failure_kind = "denied"
            result.failure_reason = (
                "no participant had further safe disclosures and the goal "
                "remained underivable")
        return result
    finally:
        _finish_session(transport, session, result)
