"""The distributed evaluation core: authority-chain dispatch.

This module implements the operational semantics of ``@`` (DESIGN.md,
"Operational semantics implemented").  An :class:`EvalContext` is one
peer's SLD engine whose dispatch hook intercepts goals carrying authority
chains and resolves them through, in order:

1. **credentials** — signed rules whose signature vouches for the goal's
   innermost authority (the paper's ``signedBy [A] ⇒ @ A`` axiom, §3.2);
2. **local clauses** — the peer's own rules with ``@``-annotated heads
   (delegation hints such as ``student(X) @ U <- student(X) @ U @ X``);
3. **authority reduction** — when the outermost authority is the peer
   itself (``@ Self``) or a peer whose in-session disclosures we are
   checking (evidence mode), drop the layer and recurse;
4. **remote evaluation** — send the reduced goal to the outermost
   authority's peer and absorb its answer: verify disclosed credentials,
   then *re-derive the goal locally from signed evidence* (the certified
   proof), or — only if the asking peer opted out of certification —
   accept the answer as a bare assertion.

The same class, differently parameterised, is also the *evidence evaluator*
(no KB, no network) used to independently verify certified proofs, and the
offline evaluator used by the eager strategy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.credentials.credential import Credential, verify_credential
from repro.credentials.store import CredentialStore
from repro.crypto.rsa import SIGNATURE_CACHE_STATS
from repro.datalog.ast import Literal
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.sld import (
    ProofNode,
    SLDEngine,
    Solution,
    Suspension,
    canonical_literal,
    unify_literals,
)
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Variable
from repro.errors import (
    CredentialError,
    KeyError_,
    MessageTooLargeError,
    SignatureError,
    TransientNetworkError,
)
from repro.net.message import Message, QueryMessage, TableAnswerMessage, ref_matches
from repro.negotiation.session import Session
from repro.obs import trace as _trace
from repro.obs.flightrec import RECORDER as _FLIGHTREC
from repro.policy.pseudovars import binder, bind_pseudovars_in_literal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.negotiation.peer import Peer

_EMPTY_KB = KnowledgeBase()


class RemoteCall:
    """Payload of a :class:`repro.datalog.sld.Suspension`: a prepared
    message, ready for transmission.  The event driver resumes the
    suspended generator with the reply message (``None`` for a ``one_way``
    delivery) or an exception instance (raised at the call site, so the
    normal failure discipline of ``_remote_solutions`` applies)."""

    __slots__ = ("message", "session", "one_way", "trace_ctx")

    def __init__(self, message: Message, session: Session,
                 one_way: bool = False) -> None:
        self.message = message
        self.session = session
        self.one_way = one_way
        # Span that issued this call (set only while tracing): the driver
        # parents the resulting Exchange under it.
        self.trace_ctx = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteCall({self.message.sender!r}->"
                f"{self.message.receiver!r}, {self.message.goal})")


class GatherCall:
    """Payload of a scatter-gather :class:`Suspension`: several independent
    prepared queries to issue concurrently.  The driver resumes the
    suspended generator with a list of outcomes — the reply message or the
    exception instance the sequential path would have raised — aligned
    index-for-index with ``calls`` (issue order, not arrival order, so
    resumption is deterministic regardless of network interleaving)."""

    __slots__ = ("calls",)

    def __init__(self, calls: Sequence[RemoteCall]) -> None:
        self.calls = list(calls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GatherCall({len(self.calls)} calls)"


def collect_solutions(source):
    """Step generator over a solution stream (``SLDEngine.iter_query``):
    forwards its suspensions and returns the list of solutions it yields."""
    solutions: list[Solution] = []
    outcome = None
    while True:
        try:
            item = source.send(outcome)
        except StopIteration:
            return solutions
        outcome = None
        if isinstance(item, Suspension):
            outcome = yield item
        else:
            solutions.append(item)


class EvalContext(SLDEngine):
    """One peer's view of one evaluation task within a session: an
    :class:`~repro.datalog.sld.SLDEngine` over the peer's KB whose
    :meth:`dispatch` and :meth:`gather` hooks route authority chains.

    Parameters
    ----------
    peer:
        The evaluating peer (supplies builtins, keys, keyring, transport).
    session:
        The negotiation session (loop detection, overlays, transcript).
    requester:
        The peer on whose behalf this evaluation runs; bound to the
        ``Requester`` pseudo-variable in every rule considered.
    kb:
        Clause store to resolve against; ``None`` gives the credentials-only
        *evidence mode* used for certified-proof checking.
    stores:
        Credential stores consulted by the ``signedBy`` axiom, in priority
        order (typically: the peer's wallet, then the session overlay).
    allow_remote:
        Whether goals may be routed to other peers over the transport.
    drop_peers:
        Peers whose outermost evaluation-directive layer may be consumed
        without a network call — the answering peer in evidence mode, the
        counterpart in the eager strategy's offline checks.
    """

    def __init__(
        self,
        peer: "Peer",
        session: Session,
        requester: str,
        kb: Optional[KnowledgeBase],
        stores: Sequence[CredentialStore],
        allow_remote: bool = True,
        drop_peers: frozenset[str] = frozenset(),
        max_depth: Optional[int] = None,
    ) -> None:
        super().__init__(
            kb if kb is not None else _EMPTY_KB,
            builtins=peer.builtins,
            max_depth=max_depth if max_depth is not None else peer.max_depth,
            tabled=False,
            rule_transform=binder(requester, peer.name),
        )
        self.peer = peer
        self.session = session
        self.requester = requester
        self.stores = list(stores)
        self.allow_remote = allow_remote
        self.drop_peers = drop_peers
        # The answering peer's own TableNode for the goal this context
        # evaluates (set by Peer's table pass).  Its remote sub-queries skip
        # the in-flight prune, and an absorbed incomplete TableAnswer is
        # recorded here so SCC completion detection sees it.
        self.table_node = None
        # Prefetched scatter-gather outcomes, keyed by (target, reduced-goal
        # pattern); consumed (popped) by _remote_solutions when resolution
        # reaches the corresponding goal.
        self._gather_replies: dict[tuple, object] = {}
        # The negotiation.remote span currently wrapping an impl generator,
        # attached to the RemoteCalls it issues (tracing only).
        self._remote_span = None
        transport = getattr(peer, "transport", None)
        self.gathers = bool(allow_remote and transport is not None
                            and getattr(transport, "max_in_flight", 1) > 1)

    # -- public querying --------------------------------------------------------

    def query_goal(self, goal: Literal, max_solutions: Optional[int] = None) -> list[Solution]:
        """Solutions of ``goal``, synchronously.  A context that may go
        remote runs on the transport's event loop, so — like every
        synchronous entry point — it must not be called from inside a
        dispatched event; use :meth:`iter_query_goal` there."""
        return self._solve_now(self._bind([goal]), max_solutions)

    def prove(self, goals: Sequence[Literal]) -> Optional[Solution]:
        """First solution of a conjunction, or ``None`` (synchronous, like
        :meth:`query_goal`)."""
        solutions = self._solve_now(self._bind(goals), 1)
        return solutions[0] if solutions else None

    def _bind(self, goals: Sequence[Literal]) -> list[Literal]:
        return [bind_pseudovars_in_literal(g, self.requester, self.peer.name)
                for g in goals]

    def _solve_now(self, goals: list[Literal],
                   max_solutions: Optional[int]) -> list[Solution]:
        transport = getattr(self.peer, "transport", None)
        if not self.allow_remote or transport is None:
            # Nothing can suspend: run the engine directly.
            return self.query(goals, max_solutions=max_solutions)
        from repro.runtime.scheduler import run_steps

        return run_steps(transport, collect_solutions(
            self.iter_query(goals, max_solutions=max_solutions)))

    def iter_query_goal(self, goal: Literal, max_solutions: Optional[int] = None):
        """Step form of :meth:`query_goal`: a generator of
        :class:`Suspension` and :class:`Solution` items (see
        :meth:`repro.datalog.sld.SLDEngine.iter_query`)."""
        bound = bind_pseudovars_in_literal(goal, self.requester, self.peer.name)
        return self.iter_query([bound], max_solutions=max_solutions)

    def prove_steps(self, goals: Sequence[Literal]):
        """Step form of :meth:`prove`: returns the first solution of the
        conjunction, or ``None``."""
        solutions = yield from collect_solutions(
            self.iter_query(self._bind(goals), max_solutions=1))
        return solutions[0] if solutions else None

    def derive_evidence(self, goal: Literal) -> Optional[ProofNode]:
        """Evidence-mode entry: one proof of ``goal``, or ``None``."""
        solutions = self.query_goal(goal, max_solutions=1)
        if not solutions:
            return None
        return solutions[0].proofs[0]

    # -- the dispatcher ------------------------------------------------------------

    def dispatch(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
    ) -> Optional[Iterator[tuple[Substitution, ProofNode]]]:
        if goal.negated or not goal.authority:
            return None  # plain goals: ordinary engine processing
        return self._chain_solutions(goal, subst, depth)

    def _chain_solutions(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        # 1. The signedBy axiom over every store.
        yield from self._credential_solutions(goal, subst, depth)

        # 2. The peer's own clauses with @-annotated heads.
        yield from self.resolve_clauses(goal, subst, depth)

        # 3/4. Authority-layer consumption: reduction or remote evaluation.
        resolved = goal.apply(subst)
        outer = resolved.authority[-1]
        if isinstance(outer, Variable):
            # Unroutable: the evaluation directive is unbound.  The paper
            # instantiates these from authority/broker databases *before*
            # this point; an unbound directive here simply fails.
            self.session.counters["unbound_authority"] += 1
            return
        if not isinstance(outer, Constant) or not isinstance(outer.value, str):
            return
        target = outer.value
        reduced = resolved.drop_outer_authority()

        if target == self.peer.name or target in self.drop_peers:
            source = self.solve_goals((reduced,), subst, depth + 1)
            outcome = None
            while True:
                try:
                    item = source.send(outcome)
                except StopIteration:
                    break
                outcome = None
                if isinstance(item, Suspension):
                    outcome = yield item
                    continue
                result_subst, proofs = item
                yield result_subst, ProofNode(
                    resolved.apply(result_subst), "authority-drop",
                    peer=target, children=proofs)
            return

        if self.allow_remote:
            # Before asking `target` over the network, check whether signed
            # evidence already in hand proves the reduced statement — "target
            # says φ" is subsumed by a verifiable proof of φ itself.  This
            # prunes the repeated counter-queries that otherwise occur every
            # time the same release guard fires.
            found_local_evidence = False
            for result_subst, proof in self._evidence_drop(resolved, reduced, subst, target):
                found_local_evidence = True
                yield result_subst, proof
            if found_local_evidence:
                return
            yield from self._remote_solutions(goal, reduced, subst, target, depth)

    def _evidence_drop(
        self,
        resolved: Literal,
        reduced: Literal,
        subst: Substitution,
        target: str,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        evidence = EvalContext(
            peer=self.peer,
            session=self.session,
            requester=self.requester,
            kb=None,
            stores=self.stores,
            allow_remote=False,
        )
        for result_subst, proofs in evidence.solve_goals((reduced,), subst, 0):
            yield result_subst, ProofNode(
                resolved.apply(result_subst), "evidence-drop",
                peer=target, children=proofs)

    # -- credentials ------------------------------------------------------------------

    def _credential_solutions(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        resolved = None
        seen_serials: set[str] = set()
        for store in self.stores:
            if not store.has_candidates(goal.indicator):
                continue
            if resolved is None:
                resolved = goal.apply(subst)
            for credential in store.vouching_for(resolved):
                if credential.serial in seen_serials:
                    continue
                seen_serials.add(credential.serial)
                yield from self._one_credential(goal, subst, depth, credential)

    def _one_credential(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
        credential: Credential,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        # The statement the signature vouches for, issuer-attributed head
        # and all (a ground one needs no renaming).
        renamed = credential.statement.rename_apart()
        head_subst = unify_literals(goal, renamed.head, subst)
        if head_subst is None:
            return
        if not renamed.body:
            yield head_subst, ProofNode(goal.apply(head_subst), "credential",
                                        rule=credential.rule, credential=credential)
            return
        source = self.solve_goals(renamed.body, head_subst, depth + 1)
        outcome = None
        while True:
            try:
                item = source.send(outcome)
            except StopIteration:
                break
            outcome = None
            if isinstance(item, Suspension):
                outcome = yield item
                continue
            body_subst, body_proofs = item
            yield body_subst, ProofNode(goal.apply(body_subst), "credential",
                                        rule=credential.rule,
                                        children=body_proofs,
                                        credential=credential)

    # -- remote evaluation ----------------------------------------------------------------

    def gather(self, goals, subst: Substitution, depth: int):
        """Scatter half of scatter-gather evaluation (the engine's gather
        hook, on when ``max_in_flight > 1``): scan a conjunction for goals
        that will certainly be resolved remotely, and — when two or more
        are *independent* — issue all their queries in one
        :class:`GatherCall` suspension.  Their replies are stashed in
        ``_gather_replies`` for :meth:`_remote_solutions` to consume when
        left-to-right resolution reaches each goal.

        Independence is variable-disjointness under the current
        substitution: a goal is gatherable only when it shares no unbound
        variable with *any* earlier goal of the conjunction, since an
        earlier solution could otherwise instantiate it into a different
        (narrower) remote query than the one we would prefetch.  Goals with
        any local derivation path — matching credentials, local clauses, or
        in-hand evidence for the reduced form — are skipped conservatively:
        the sequential path might never reach the network for them, and
        speculative queries must stay limited to goals where the wire is
        the only route."""
        candidates: list[tuple[tuple, str, Literal]] = []
        prior_vars: set = set()
        transport = getattr(self.peer, "transport", None)
        for goal in goals:
            resolved = goal.apply(subst)
            goal_vars = resolved.variables()
            independent = not (goal_vars & prior_vars)
            prior_vars |= goal_vars
            if not independent or resolved.negated or not resolved.authority:
                continue
            outer = resolved.authority[-1]
            if not isinstance(outer, Constant) or not isinstance(outer.value, str):
                continue
            target = outer.value
            if target == self.peer.name or target in self.drop_peers:
                continue
            if any(store.has_candidates(resolved.indicator)
                   for store in self.stores):
                continue
            if next(iter(self.kb.rules_for(resolved)), None) is not None:
                continue
            reduced = resolved.drop_outer_authority()
            if any(store.has_candidates(reduced.indicator)
                   for store in self.stores):
                continue
            key = (target, canonical_literal(reduced))
            if key in self._gather_replies:
                continue
            if transport is None or not transport.registry.knows(target):
                continue
            if not self.session.nesting_available():
                continue
            candidates.append((key, target, reduced))
        if len(candidates) < 2:
            return
        calls: list[RemoteCall] = []
        entered: list[tuple[tuple, str]] = []
        for key, target, reduced in candidates:
            if not self.session.enter_remote(self.peer.name, target, key[1]):
                continue
            entered.append((key, target))
            calls.append(RemoteCall(QueryMessage(
                sender=self.peer.name,
                receiver=target,
                session_id=self.session.id,
                goal=reduced,
                depth=depth,
            ), self.session))
        if len(calls) < 2:
            for key, target in entered:
                self.session.exit_remote(self.peer.name, target, key[1])
            return
        self.session.counters["gather_batches"] += 1
        self.session.counters["gather_calls"] += len(calls)
        self.session.log("gather", self.peer.name, "",
                         f"{len(calls)} concurrent sub-queries")
        for call in calls:
            self.session.log("query", self.peer.name, call.message.receiver,
                             str(call.message.goal))
        tracer = _trace.ACTIVE
        gather_span = None
        if tracer is not None:
            gather_span = tracer.begin(
                "negotiation.gather", peer=self.peer.name, calls=len(calls),
                session=tracer.alias("session", self.session.id))
            for call in calls:
                call.trace_ctx = gather_span
        try:
            outcomes = yield Suspension(GatherCall(calls))
        finally:
            for key, target in entered:
                self.session.exit_remote(self.peer.name, target, key[1])
            if gather_span is not None:
                tracer.end(gather_span)
        if isinstance(outcomes, BaseException):
            raise outcomes
        for (key, _target), outcome in zip(entered, outcomes):
            self._gather_replies[key] = outcome

    def _remote_solutions(
        self,
        goal: Literal,
        reduced: Literal,
        subst: Substitution,
        target: str,
        depth: int,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        """Remote evaluation of ``goal`` at ``target``: the reply to
        ``reduced`` (:meth:`_remote_reply`), then its verified answers
        (:meth:`_absorb_reply`).  While tracing, one ``negotiation.remote``
        span covers both halves and is current only while they run, so
        transport/verify events land under it without leaking it into
        sibling goals."""
        tracer = _trace.ACTIVE
        if tracer is None:
            reply = yield from self._remote_reply(reduced, target, depth)
            if reply is not None:
                yield from self._absorb_reply(
                    goal, reduced, subst, target, reply)
            return
        span = tracer.begin(
            "negotiation.remote", peer=self.peer.name, target=target,
            goal=str(reduced),
            session=tracer.alias("session", self.session.id))
        self._remote_span = span
        solutions = 0
        try:
            reply = yield from tracer.resume_under(
                span, self._remote_reply(reduced, target, depth))
            if reply is not None:
                # Absorbing never suspends, so plain iteration drives it.
                for solution in tracer.resume_under(span, self._absorb_reply(
                        goal, reduced, subst, target, reply)):
                    solutions += 1
                    yield solution
        finally:
            self._remote_span = None
            tracer.end(span, solutions=solutions)

    def _remote_reply(self, reduced: Literal, target: str, depth: int):
        """Network half of a remote evaluation, as a step generator: the
        reply to ``reduced`` from ``target`` — prefetched by :meth:`gather`
        or asked now — or ``None`` when the call is not made or its branch
        failed."""
        if self._gather_replies:
            prefetched = self._gather_replies.pop(
                (target, canonical_literal(reduced)), None)
            if prefetched is not None:
                if self._remote_span is not None:
                    self._remote_span.attrs["prefetched"] = True
                # Gather half already transmitted the query and logged it;
                # its outcome goes through the same failure discipline as a
                # live one.
                return self._reply_or_branch_failure(prefetched, target)
        request = self._issue_remote(reduced, target, depth)
        if request is None:
            return None
        goal_key = canonical_literal(reduced)
        # A table pass does not prune re-entrant queries: the answering
        # peer's goal table detects the cycle and replies with its current
        # (possibly empty) answer set, so recursion bottoms out one hop
        # later with sound partial answers instead of a lost branch.
        # Evaluations with no table (release guards, ``$``-policy grants,
        # sticky obligations, local queries) have nothing to bottom out in,
        # so they keep the in-flight prune.
        pruned = self.table_node is None
        if pruned and not self.session.enter_remote(
                self.peer.name, target, goal_key):
            return None
        try:
            self.session.log("query", self.peer.name, target, str(reduced))
            # Park this evaluation as a pending continuation; the scheduler
            # resumes it with the reply or the exception that ended the
            # exchange.
            call = RemoteCall(request, self.session)
            call.trace_ctx = self._remote_span
            outcome = yield Suspension(call)
            return self._reply_or_branch_failure(outcome, target)
        finally:
            if pruned:
                self.session.exit_remote(self.peer.name, target, goal_key)

    # Failure discipline for a remote call's outcome: transient losses
    # (already retried by the exchange) and deterministic faults — an
    # oversized query fails every time, a corrupted payload was detected
    # and re-deriving is ours to do — fail only this proof branch, so the
    # answer set can shrink but never admit unverified material.
    # (error type, session counter, transcript kind, recorder kind)
    _BRANCH_FAILURES = (
        (TransientNetworkError, "network_failures", "gave-up", "transient"),
        (MessageTooLargeError, "oversized_messages", "oversized", "oversized"),
        (SignatureError, "corrupt_payloads", "corrupt", "corrupt"),
    )

    def _reply_or_branch_failure(self, outcome, target: str):
        """The reply carried by ``outcome``, or ``None`` once a
        branch-failing error has been recorded.  Any other error — notably
        ``DeadlineExceeded`` — is raised, so the whole negotiation
        terminates promptly (the driver converts it into a clean failure
        outcome)."""
        if not isinstance(outcome, BaseException):
            return outcome
        for error_type, counter, log_kind, kind in self._BRANCH_FAILURES:
            if isinstance(outcome, error_type):
                self.session.counters[counter] += 1
                self.session.log(log_kind, self.peer.name, target, str(outcome))
                self._note_branch_failure(kind, target)
                return None
        raise outcome

    def _note_branch_failure(self, kind: str, target: str) -> None:
        transport = getattr(self.peer, "transport", None)
        _FLIGHTREC.note(
            getattr(transport, "now_ms", 0.0), self.session.id,
            "branch-failed", self.peer.name, target, kind)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("negotiation.branch_failed",
                         parent=self._remote_span, kind=kind, target=target)

    def _issue_remote(
        self,
        reduced: Literal,
        target: str,
        depth: int,
    ) -> Optional[QueryMessage]:
        """Issue half of a remote evaluation: routing/nesting admission
        checks plus the prepared query message, or ``None`` when the call
        must not be made."""
        transport = getattr(self.peer, "transport", None)
        if transport is None or not transport.registry.knows(target):
            self.session.counters["unknown_targets"] += 1
            return None
        if not self.session.nesting_available():
            self.session.counters["nesting_exhausted"] += 1
            return None
        return QueryMessage(
            sender=self.peer.name,
            receiver=target,
            session_id=self.session.id,
            goal=reduced,
            depth=depth,
        )

    def _absorb_reply(
        self,
        goal: Literal,
        reduced: Literal,
        subst: Substitution,
        target: str,
        reply,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        """Absorb half of a remote evaluation: verify and graft each answer
        item (pure computation — never suspends)."""
        if (self.table_node is not None
                and isinstance(reply, TableAnswerMessage)
                and not reply.complete):
            # The answerer's table is still growing: record the dependency
            # (even for an empty reply — the subscription itself is what the
            # SCC completion check must see) and its reachable-order floor.
            self.table_node.note_dependency(reply.min_order, reply.grew)
        items = getattr(reply, "items", ())
        if not items:
            self.session.log("failure", target, self.peer.name, str(reduced))
            return
        for item in items:
            yield from self._absorb_answer_item(goal, reduced, subst, target, item)

    def _absorb_answer_item(
        self,
        goal: Literal,
        reduced: Literal,
        subst: Substitution,
        target: str,
        item,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        overlay = self.session.received_for(self.peer.name)
        disclosed = list(item.credentials)
        if item.answer_credential is not None:
            disclosed.append(item.answer_credential)
        # Disclosure deltas: resolve hash references against what this peer
        # already holds (session overlay first, then the long-term wallet).
        # A resolved reference skips signature re-verification entirely —
        # the cached payload was verified when it first crossed the wire.
        # An unresolvable reference rejects the whole item: references are
        # claims about shared session state, and a wrong claim must never
        # admit material.
        refs = list(item.credential_refs)
        if item.answer_credential_ref is not None:
            refs.append(item.answer_credential_ref)
        resolved_refs: list[Credential] = []
        for ref in refs:
            credential = overlay.get(ref.serial)
            if credential is None:
                credential = self.peer.credentials.get(ref.serial)
            if credential is None or not ref_matches(ref, credential):
                self.session.counters["unresolved_refs"] += 1
                self.session.log("reject-ref", self.peer.name, target,
                                 ref.serial[:12])
                return
            self.session.counters["delta_ref_hits"] += 1
            resolved_refs.append(credential)
        # Re-presented credentials (same rule, same signature, prior session
        # or earlier round) verify through the process-wide RSA cache; track
        # how often that shortcut fires for this session's disclosures.
        sig_hits_before = SIGNATURE_CACHE_STATS.hits
        for credential in disclosed:
            try:
                verify_credential(credential, self.peer.keyring,
                                  now=getattr(self.peer, "clock", None))
            except (CredentialError, SignatureError, KeyError_) as error:
                self.session.counters["bad_credentials"] += 1
                self.session.log("reject-credential", self.peer.name, target,
                                 f"{credential.rule.head}: {error}")
                return
        cached_verifications = SIGNATURE_CACHE_STATS.hits - sig_hits_before
        if cached_verifications:
            self.session.counters["sig_cache_hits"] += cached_verifications
            self.stats.sig_cache_hits += cached_verifications
        tracer = _trace.ACTIVE
        if tracer is not None and (disclosed or resolved_refs):
            tracer.event("negotiation.verify", parent=self._remote_span,
                         peer=self.peer.name, source=target,
                         disclosed=len(disclosed), refs=len(resolved_refs),
                         cached=cached_verifications)
        for credential in (*disclosed, *resolved_refs):
            overlay.add(credential)
            self.session.mark_holder(credential.serial, self.peer.name)
            self.session.mark_holder(credential.serial, target)
        if disclosed:
            self.session.log("receive", self.peer.name, target,
                             f"{len(disclosed)} credential(s)")

        answered = item.answered_literal
        if answered is None:
            return
        answer_subst = unify_literals(reduced, answered.rename({}), subst)
        if answer_subst is None:
            self.session.counters["mismatched_answers"] += 1
            return
        instance = goal.apply(answer_subst)

        if not self.peer.require_certified_answers:
            yield answer_subst, ProofNode(instance, "asserted", peer=target)
            return

        proof = self._certify(instance, target, overlay)
        if proof is None:
            self.session.counters["uncertified_answers"] += 1
            self.session.log("uncertified", self.peer.name, target,
                             str(instance))
            return
        yield answer_subst, ProofNode(instance, "remote", peer=target,
                                      children=(proof,))

    def _certify(self, instance: Literal, target: str,
                 overlay: CredentialStore) -> Optional[ProofNode]:
        """An evidence proof of ``instance``, the goal as a remote answer
        from ``target`` instantiates it, from this peer's wallet and
        session overlay.  A ground instance is certified once per session
        (DESIGN.md, "Certified answers once per session"): its proof is
        stored and reused when the same answer arrives again; a failure is
        not stored."""
        key = None
        if instance.is_ground():
            key = (self.peer.name, self.requester, target, instance)
            proof = self.session.certified(key)
            if proof is not None:
                return proof
        evidence = EvalContext(
            peer=self.peer,
            session=self.session,
            requester=self.requester,
            kb=None,
            stores=[self.peer.credentials, overlay],
            allow_remote=False,
            drop_peers=frozenset({target}),
        )
        proof = evidence.derive_evidence(instance)
        if proof is not None and key is not None:
            self.session.note_certified(key, proof)
        return proof


def evidence_context(
    peer: "Peer",
    session: Session,
    vouching_peer: str,
    extra_stores: Sequence[CredentialStore] = (),
) -> EvalContext:
    """A credentials-only context for independent proof verification."""
    stores = [peer.credentials, session.received_for(peer.name), *extra_stores]
    return EvalContext(
        peer=peer,
        session=session,
        requester=vouching_peer,
        kb=None,
        stores=stores,
        allow_remote=False,
        drop_peers=frozenset({vouching_peer}),
    )
