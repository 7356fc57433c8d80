"""Peers: the security agents that negotiate on behalf of users.

A :class:`Peer` bundles everything §2 attributes to a party:

- a knowledge base of local rules and release policies (the PeerTrust
  program, loadable from source text);
- a wallet of verified credentials (its own and cached third-party signed
  rules);
- an RSA key pair and a key ring of trusted issuer keys;
- external predicates (``authenticatesTo``, ``purchaseApproved``, ...);
- policy knobs: how deep it will reason for others, whether it insists on
  certified answers, how many answers it returns per query.

:meth:`Peer.handle_steps` is the inbound entry point the event runtime
drives (:meth:`Peer.handle` runs it synchronously); the outbound entry
points are the strategy drivers in :mod:`repro.negotiation.strategies`.

Release semantics implemented in :meth:`_releasable` (default-deny):

- an *answer literal* may be sent to R iff a release policy's obligations
  are provable with ``Requester := R``, or the top-level rule that derived
  it has a satisfiable rule context (``<-{true}`` makes conclusions public);
- an *own credential* may be disclosed iff a release policy over its head
  is satisfied;
- credentials *received from others in this session* are forwardable
  (contexts were stripped by their owners before sending, §3.1 — sticky
  policies are out of scope, as in the paper).
"""

from __future__ import annotations

from dataclasses import replace as _replace
from typing import Callable, Iterable, Iterator, Optional

from repro.credentials.credential import (
    Credential,
    issue_credential,
    verify_credential,
)
from repro.credentials.store import CredentialStore
from repro.crypto.keys import KeyPair, KeyRing
from repro.datalog.ast import Literal, Rule, fact
from repro.datalog.builtins import BuiltinRegistry
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.sld import Solution, canonical_literal
from repro.datalog.terms import Constant
from repro.errors import (
    CredentialError,
    KeyError_,
    MessageTooLargeError,
    PeerUnavailableError,
    SignatureError,
    TransientNetworkError,
)
from repro.net.message import (
    AnswerItem,
    AnswerMessage,
    CredentialRef,
    DisclosureMessage,
    Message,
    PolicyMessage,
    PolicyRequestMessage,
    QueryMessage,
    TableAnswerMessage,
    TableCompleteMessage,
    credential_ref,
    dedup_answer_credentials,
)
from repro.datalog.sld import Suspension, unify_literals
from repro.datalog.substitution import Substitution
from repro.negotiation.engine import EvalContext, RemoteCall, collect_solutions
from repro.negotiation.session import (
    TABLE_ACTIVE,
    TABLE_COMPLETE,
    TABLE_TENTATIVE,
    TableNode,
    Session,
)
from repro.obs import trace as _trace
from repro.obs.flightrec import RECORDER as _FLIGHTREC
from repro.obs.metrics import global_registry
from repro.policy.pseudovars import bind_pseudovars, bind_pseudovars_in_literal
from repro.policy.release import (
    credential_release_decisions,
    credential_release_heads,
    release_obligations,
    restates_head,
    rule_shipping_obligations,
)
from repro.policy.sticky import (
    combined_sticky_guard,
    sticky_obligations,
    with_sticky_guard,
)
from repro.policy.unipro import UniProRegistry

# GEM distributed-tabling lifecycle events, aggregated across peers
# (activations and completions live on sessions; the process-wide family is
# what ``--metrics-out`` renders).
_TABLING_EVENTS = global_registry().counter(
    "peertrust_tabling_events_total",
    help="GEM distributed-tabling lifecycle events",
    labels=("event",))


class Peer:
    """One autonomous party in the network."""

    # Safety cap on a completion leader's fixpoint rounds; answer growth is
    # monotone over a finite base, so real programs converge far earlier.
    MAX_FIXPOINT_ROUNDS = 32

    def __init__(
        self,
        name: str,
        keys: Optional[KeyPair] = None,
        keyring: Optional[KeyRing] = None,
        program: Optional[str] = None,
        max_depth: int = 200,
        max_answers: int = 4,
        max_nesting: int = 30,
        require_certified_answers: bool = True,
        key_bits: int = 1024,
        answers_queries: bool = True,
        sticky_policies: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.name = name
        self.kb = KnowledgeBase()
        self.credentials = CredentialStore()
        self.keys = keys if keys is not None else KeyPair.generate(name, key_bits)
        self.keyring = keyring if keyring is not None else KeyRing()
        self.keyring.add(self.keys.public)
        self.builtins = BuiltinRegistry()
        self.unipro = UniProRegistry()
        self.max_depth = max_depth
        self.max_answers = max_answers
        self.max_nesting = max_nesting
        self.require_certified_answers = require_certified_answers
        self.answers_queries = answers_queries
        self.sticky_policies = sticky_policies
        # Default simulated-ms budget for negotiations this peer initiates
        # (None = unbounded); per-call deadline_ms overrides it.
        self.deadline_ms = deadline_ms
        # Simulated clock for credential validity checks; None = wall time.
        self.clock: Optional[float] = None
        self.query_filter: Optional[Callable[[Literal, str], bool]] = None
        # Extension point: step generators (goal, requester, session) whose
        # return value is a list of AnswerItem, consulted after the built-in
        # derivation paths.  Used by content-triggered policy registries
        # ('all' combining mode).
        self.query_hooks: list[Callable[[Literal, str, Session], Iterator]] = []
        self.transport = None  # set by Transport.register
        if program:
            self.load_program(program)

    # -- setup helpers ---------------------------------------------------------------

    def load_program(self, source: str) -> list[Rule]:
        """Parse and add PeerTrust source text to the local KB.

        Signed rules in the text (``signedBy [..]``) are *not* turned into
        credentials automatically — signatures need the issuer's private
        key; use :meth:`hold_credential` / :func:`repro.credentials.issue_credential`.
        """
        return self.kb.load(source)

    def add_rule(self, rule: Rule) -> None:
        self.kb.add(rule)

    def trust_key(self, public_key) -> None:
        self.keyring.add(public_key)

    def hold_credential(self, credential: Credential, verify: bool = True) -> None:
        """Put a credential in the wallet (a student caching her ID and the
        registrar delegation rule, §3.1)."""
        if verify:
            verify_credential(credential, self.keyring, now=self.clock)
        self.credentials.add(credential)

    def hold_received(self, credential: Credential, session: Session) -> None:
        """Verify a credential received in ``session`` and keep it in the
        session overlay (not the long-term wallet)."""
        verify_credential(credential, self.keyring, now=self.clock)
        session.received_for(self.name).add(credential)
        session.mark_holder(credential.serial, self.name)

    def adopt_session_credentials(self, session: Session) -> int:
        """Promote this session's received credentials into the long-term
        wallet (the paper's caching of signed rules 'to speed up
        negotiation', §4.2).  Returns how many were new."""
        added = 0
        for credential in session.received_for(self.name).credentials():
            if self.credentials.add(credential):
                added += 1
        return added

    def _deltas_enabled(self) -> bool:
        return bool(self.transport is not None
                    and getattr(self.transport, "disclosure_deltas", False))

    def _answer_credential_delta(
        self,
        credential: Credential,
        requester: str,
        session: Session,
    ) -> tuple[Optional[Credential], Optional[CredentialRef]]:
        """Disclosure-delta split for an answer credential: the full payload
        on its first crossing of the ``self -> requester`` wire in this
        session, a compact :class:`CredentialRef` afterwards (the requester
        resolves it from its session cache without re-verification)."""
        if not self._deltas_enabled():
            return credential, None
        if session.wire_disclosed(self.name, requester, credential.serial):
            session.counters["delta_refs_sent"] += 1
            return None, credential_ref(credential)
        session.note_wire_disclosure(self.name, requester, credential.serial)
        return credential, None

    def self_credential(self, literal: Literal) -> Credential:
        """A self-signed credential asserting a ground literal this peer
        derived (memoised so serials stay stable across rounds).  Used by
        the eager strategy to push releasable plain facts, and when
        answering queries."""
        if not literal.is_ground():
            raise CredentialError(f"cannot self-sign non-ground {literal}")
        key = canonical_literal(literal)
        cache = getattr(self, "_self_credentials", None)
        if cache is None:
            cache = self._self_credentials = {}
        credential = cache.get(key)
        if credential is None:
            signed = fact(literal, signers=(Constant(self.name, quoted=True),))
            credential = cache[key] = issue_credential(signed, self.keys)
        return credential

    def register_external(self, name: str, arity: int, fn) -> None:
        self.builtins.register_external(name, arity, fn)

    def register_check(self, name: str, arity: int, check) -> None:
        self.builtins.register_check(name, arity, check)

    # -- message handling ------------------------------------------------------------

    def handle(self, message: Message) -> Optional[Message]:
        """Process one inbound message synchronously: :meth:`handle_steps`
        run on the transport's event loop until idle."""
        from repro.runtime.scheduler import run_steps

        return run_steps(self.transport, self.handle_steps(message))

    def handle_steps(self, message: Message):
        """Process one inbound message as a step generator (remote
        sub-queries suspend); returns the reply, or ``None`` for one-way
        messages.  Replies to this peer's own requests never arrive here:
        the runtime routes them to the waiting continuation."""
        if isinstance(message, QueryMessage):
            return (yield from self.answer_query_steps(message))
        if isinstance(message, PolicyRequestMessage):
            return (yield from self._policy_request_steps(message))
        if isinstance(message, DisclosureMessage):
            return self._handle_disclosure(message)
        if isinstance(message, TableCompleteMessage):
            return self._handle_table_complete(message)
        return None

    # -- query answering ------------------------------------------------------------------

    def _session(self, session_id: str, initiator: str) -> Session:
        return self.transport.sessions.get_or_create(
            session_id, initiator, self.max_nesting)

    def answer_query_steps(self, message: QueryMessage):
        """Answer a query as a *step generator*: every remote sub-query
        yields a :class:`Suspension` for the event scheduler to satisfy.
        The generator's return value is the :class:`AnswerMessage`."""
        if _trace.ACTIVE is None:
            return self._answer_query_steps_impl(message)
        return self._traced_answer_steps(message, _trace.ACTIVE)

    def _traced_answer_steps(self, message: QueryMessage,
                             tracer) -> "Iterable":
        """Wrap the answer generator in a ``peer.answer`` span.  The span is
        current only while the impl actually executes — each yielded
        suspension hands the consumer's context back untouched."""
        span = tracer.begin(
            "peer.answer", peer=self.name, requester=message.sender,
            goal=str(message.goal),
            session=tracer.alias("session", message.session_id))
        steps = self._answer_query_steps_impl(message)
        outcome = None
        try:
            while True:
                previous = tracer.set_current(span)
                try:
                    item = steps.send(outcome)
                except StopIteration as stop:
                    reply = stop.value
                    span.attrs["items"] = len(getattr(reply, "items", ()))
                    return reply
                finally:
                    tracer.set_current(previous)
                outcome = yield item
        finally:
            tracer.end(span)

    def _answer_query_steps_impl(self, message: QueryMessage):
        session = self._session(message.session_id, message.sender)
        requester = message.sender
        failure = AnswerMessage(
            sender=self.name, receiver=requester,
            session_id=session.id, query_id=message.message_id, items=())

        if not self.answers_queries:
            session.log("refuse", self.name, requester, "peer answers no queries")
            return failure
        if self.query_filter is not None and not self.query_filter(message.goal, requester):
            session.log("refuse", self.name, requester, str(message.goal))
            return failure
        if not session.nesting_available():
            session.log("exhausted", self.name, requester, "nesting budget")
            return failure

        if self._gem_tabling():
            reply = yield from self._answer_query_gem_steps(
                message, session, requester)
            return reply

        session.depth += 1
        try:
            context = EvalContext(
                peer=self,
                session=session,
                requester=requester,
                kb=self.kb,
                stores=[self.credentials, session.received_for(self.name)],
                allow_remote=True,
            )
            # A ground goal is a yes/no question: one proof settles it.
            # Open goals enumerate up to max_answers distinct solutions.
            limit = 1 if message.goal.is_ground() else self.max_answers
            solutions: list[Solution] = yield from collect_solutions(
                context.iter_query_goal(message.goal, max_solutions=limit))
        except TransientNetworkError as error:
            # Graceful degradation: a provider that cannot reach a third
            # party answers "no" for this query rather than propagating the
            # outage back to its own requester.  (DeadlineExceeded is NOT
            # caught — it must unwind the whole negotiation.)
            session.counters["degraded_answers"] += 1
            session.log("degraded", self.name, requester, str(error))
            solutions = []
        finally:
            session.depth -= 1

        items: list[AnswerItem] = []
        answered_keys: set[tuple] = set()
        for solution in solutions:
            item = yield from self._build_answer_item_steps(
                message.goal, solution, requester, session)
            if item is not None:
                items.append(item)
                if item.answered_literal is not None:
                    answered_keys.add(canonical_literal(item.answered_literal))

        yield from self._grants_and_hooks_steps(
            message.goal, requester, session, items, answered_keys)

        return self._final_answer(message, session, requester, items)

    def _grants_and_hooks_steps(self, goal: Literal, requester: str,
                                session: Session, items: list,
                                answered_keys: set):
        """Append resource-policy grants and query-hook items to ``items``
        (shared tail of the inflight and gem answer paths), never past
        ``max_answers`` items in all.

        Resource-access policies: a predicate may be governed *only* by a
        ``$`` rule (the paper's freeEnroll, §3.1) — access is granted when
        the guard and body are provable, with no separate content rule."""
        if len(items) >= self.max_answers:
            return items
        grants = yield from self._release_policy_grants_steps(
            goal, requester, session, True)
        if self._add_new_items(grants, items, answered_keys):
            return items
        for hook in self.query_hooks:
            hook_items = yield from hook(goal, requester, session)
            if self._add_new_items(hook_items, items, answered_keys):
                break
        return items

    def _add_new_items(self, new_items, items: list,
                       answered_keys: set) -> bool:
        """Append the items of ``new_items`` whose answered literal is not
        in ``answered_keys`` yet; True once ``items`` holds ``max_answers``."""
        for item in new_items:
            if len(items) >= self.max_answers:
                return True
            key = (canonical_literal(item.answered_literal)
                   if item.answered_literal is not None else None)
            if key in answered_keys:
                continue
            answered_keys.add(key)
            items.append(item)
        return len(items) >= self.max_answers

    def _final_answer(self, message: QueryMessage, session: Session,
                      requester: str, items: list) -> AnswerMessage:
        if items:
            session.log("answer", self.name, requester,
                        f"{message.goal} ({len(items)} item(s))")
        else:
            session.log("deny", self.name, requester, str(message.goal))
            _FLIGHTREC.note(
                getattr(self.transport, "now_ms", 0.0), session.id,
                "deny", self.name, requester, str(message.goal))
        return AnswerMessage(
            sender=self.name, receiver=requester,
            session_id=session.id, query_id=message.message_id,
            items=dedup_answer_credentials(items))

    # -- GEM distributed tabling (``--tabling gem``) -----------------------------------

    def _gem_tabling(self) -> bool:
        return getattr(self.transport, "tabling", "inflight") == "gem"

    @staticmethod
    def _table_floor(node: TableNode) -> int:
        """Lowest goal-activation order reachable from ``node`` so far —
        GEM's completion-leader pointer."""
        if node.min_dep is not None and node.min_dep < node.order:
            return node.min_dep
        return node.order

    def _answer_query_gem_steps(self, message: QueryMessage, session: Session,
                                requester: str):
        """Answer a query through the goal-table registry instead of
        evaluating unconditionally:

        - a COMPLETE table serves its stored answers (plus requester-specific
          grants) without re-evaluation;
        - an ACTIVE table means this query closed a cycle: reply with the
          answers accumulated *so far* and the table's order floor, so the
          asker subscribes to the table instead of losing the branch;
        - otherwise run an evaluation pass.  A pass that consumed no
          incomplete table completes immediately.  One that did either defers
          to a lower-ordered leader (TENTATIVE + incremental reply) or — when
          the floor equals its own order — *is* the SCC leader: it iterates
          passes to a fixpoint, broadcasts ``TableComplete``, and serves the
          final answer."""
        goal = message.goal
        bound = bind_pseudovars_in_literal(goal, requester, self.name)
        goal_key = canonical_literal(bound)
        node = session.table_for(self.name, goal_key)

        if node is not None and node.status == TABLE_COMPLETE:
            session.counters["table_hits"] += 1
            _TABLING_EVENTS.labels("table_hits").inc()
            session.log("table-serve", self.name, requester, str(goal))
            items, answered_keys = yield from self._table_items_steps(
                node, goal, requester, session)
            yield from self._grants_and_hooks_steps(
                goal, requester, session, items, answered_keys)
            return self._final_answer(message, session, requester, items)

        if node is not None and node.status == TABLE_ACTIVE:
            # Re-entrant (cyclic) query: subscribe the asker to this table.
            # No grants here — grant proving may evaluate remotely, and the
            # whole point of this arm is to bottom out without recursion.
            session.counters["table_subscriptions"] += 1
            _TABLING_EVENTS.labels("subscriptions").inc()
            session.log("table-join", self.name, requester,
                        f"{goal} ({len(node.answers)} answer(s) so far)")
            items, _ = yield from self._table_items_steps(
                node, goal, requester, session)
            return TableAnswerMessage(
                sender=self.name, receiver=requester, session_id=session.id,
                query_id=message.message_id,
                items=dedup_answer_credentials(items),
                complete=False, min_order=self._table_floor(node),
                grew=node.grew)

        node = session.activate_table(self.name, goal_key)
        _TABLING_EVENTS.labels("activations").inc()
        yield from self._table_pass_steps(
            node, message, session, requester)

        if node.min_dep is not None and node.min_dep < node.order:
            # SCC member but not its leader: stay tentative and hand the
            # floor upward; the leader's fixpoint will re-query us.
            node.status = TABLE_TENTATIVE
            items, _ = yield from self._table_items_steps(
                node, goal, requester, session)
            return TableAnswerMessage(
                sender=self.name, receiver=requester, session_id=session.id,
                query_id=message.message_id,
                items=dedup_answer_credentials(items),
                complete=False, min_order=node.min_dep, grew=node.grew)

        if node.min_dep is not None:
            # The cycle's floor is this very goal: we lead the SCC.
            yield from self._table_fixpoint_steps(
                node, message, session, requester)
            node.status = TABLE_COMPLETE
            session.counters["tables_completed"] += 1
            yield from self._notify_table_complete_steps(
                node, session)
        else:
            node.status = TABLE_COMPLETE
            session.counters["tables_completed"] += 1
        _TABLING_EVENTS.labels("completions").inc()
        items, answered_keys = yield from self._table_items_steps(
            node, goal, requester, session)
        yield from self._grants_and_hooks_steps(
            goal, requester, session, items, answered_keys)
        return self._final_answer(message, session, requester, items)

    def _table_pass_steps(self, node: TableNode, message: QueryMessage,
                          session: Session, requester: str):
        """One evaluation pass over the table's goal.  Solutions fold into
        the table *as they stream* — a cyclic sub-query arriving mid-pass
        sees every answer derived before the cycle closed — and incomplete
        tables consumed along the way land in ``node.min_dep``/``node.grew``
        via the evaluation context's dependency hook."""
        node.begin_pass()
        session.counters["table_passes"] += 1
        _TABLING_EVENTS.labels("passes").inc()
        tracer = _trace.ACTIVE
        span = None
        if tracer is not None:
            span = tracer.begin(
                "negotiation.table.pass", peer=self.name,
                goal=str(message.goal), order=node.order, round=node.passes,
                session=tracer.alias("session", session.id))
        session.depth += 1
        try:
            context = EvalContext(
                peer=self,
                session=session,
                requester=requester,
                kb=self.kb,
                stores=[self.credentials, session.received_for(self.name)],
                allow_remote=True,
            )
            context.table_node = node
            limit = 1 if message.goal.is_ground() else self.max_answers
            source = context.iter_query_goal(message.goal, max_solutions=limit)
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
                answered = message.goal.apply(item.subst)
                if node.add_answer(canonical_literal(answered),
                                   (answered, item)):
                    session.counters["table_answers"] += 1
        except TransientNetworkError as error:
            # Same degradation as the inflight path; answers already folded
            # this pass stay (the table is monotone and every entry was
            # derived soundly before the outage).
            session.counters["degraded_answers"] += 1
            session.log("degraded", self.name, requester, str(error))
        finally:
            session.depth -= 1
            if span is not None:
                tracer.end(span, answers=len(node.answers), grew=node.grew,
                           floor=self._table_floor(node))

    def _table_items_steps(self, node: TableNode, goal: Literal,
                           requester: str, session: Session):
        """Build the wire items for ``requester`` from the table's stored
        solutions.  Release/sticky checks (and therefore disclosure sets)
        are per-requester, so built items cache under the requester; the
        bindings are recomputed against *this* query's variable names."""
        items: list[AnswerItem] = []
        answered_keys: set[tuple] = set()
        cache = node.items_for.setdefault(requester, {})
        limit = 1 if goal.is_ground() else self.max_answers
        for answer_key, (answered, solution) in list(node.answers.items()):
            if len(items) >= limit:
                break
            subst = unify_literals(goal, answered.rename({}),
                                   Substitution.empty())
            if subst is None:
                continue
            cached = cache.get(answer_key)
            if cached is None:
                built = yield from self._build_answer_item_steps(
                    goal, solution, requester, session,
                    answered=answered)
                cached = cache[answer_key] = (
                    built if built is not None else False)
            if cached is False:
                continue  # withheld for this requester (release denied)
            bindings = {
                variable.name: subst.resolve(variable)
                for variable in goal.variables()
                if subst.lookup(variable) is not None
            }
            items.append(_replace(cached, bindings=bindings))
            answered_keys.add(answer_key)
        return items, answered_keys

    def _table_fixpoint_steps(self, node: TableNode, message: QueryMessage,
                              session: Session, requester: str):
        """Leader-side termination: re-run evaluation passes (fresh query
        ids, so nothing dedups against earlier rounds) until a pass neither
        adds an answer here nor consumes a growing table anywhere in the
        SCC.  Growth is monotone over a finite Herbrand base, so this
        converges; MAX_FIXPOINT_ROUNDS only guards against runaway bugs."""
        tracer = _trace.ACTIVE
        span = None
        if tracer is not None:
            span = tracer.begin(
                "negotiation.table.fixpoint", peer=self.name,
                goal=str(message.goal), order=node.order,
                session=tracer.alias("session", session.id))
        rounds = 0
        try:
            for _ in range(self.MAX_FIXPOINT_ROUNDS):
                rounds += 1
                session.counters["table_fixpoint_rounds"] += 1
                _TABLING_EVENTS.labels("fixpoint_rounds").inc()
                yield from self._table_pass_steps(
                    node, message, session, requester)
                if not node.grew:
                    break
            else:
                session.counters["table_fixpoint_capped"] += 1
                session.log("table-capped", self.name, requester,
                            str(message.goal))
        finally:
            if span is not None:
                tracer.end(span, rounds=rounds, answers=len(node.answers))

    def _notify_table_complete_steps(self, node: TableNode, session: Session):
        """Broadcast SCC completion: promote our own tentative tables at or
        above the leader's order, then send each other member owner one
        ``TableComplete``.  A lost notification degrades soundly — the
        member's tables stay tentative and simply re-evaluate on the next
        query — so every delivery failure short of a deadline is absorbed."""
        session.complete_tables(self.name, node.order)
        owners = sorted({
            owner for (owner, _key), other in session.tables.items()
            if owner != self.name and other.status == TABLE_TENTATIVE
            and other.order >= node.order})
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("negotiation.table.complete", peer=self.name,
                         order=node.order, members=len(owners),
                         session=tracer.alias("session", session.id))
        for owner in owners:
            notice = TableCompleteMessage(
                sender=self.name, receiver=owner, session_id=session.id,
                threshold=node.order)
            session.log("table-notify", self.name, owner,
                        f"complete >= order {node.order}")
            _TABLING_EVENTS.labels("completions_sent").inc()
            try:
                outcome = yield Suspension(
                    RemoteCall(notice, session, one_way=True))
                if isinstance(outcome, BaseException):
                    raise outcome
            except (TransientNetworkError, MessageTooLargeError,
                    SignatureError, PeerUnavailableError) as error:
                session.counters["table_complete_lost"] += 1
                _TABLING_EVENTS.labels("completions_lost").inc()
                session.log("table-notify-lost", self.name, owner, str(error))

    def _handle_table_complete(self,
                               message: TableCompleteMessage) -> None:
        session = self._session(message.session_id, message.sender)
        promoted = session.complete_tables(self.name, message.threshold)
        _TABLING_EVENTS.labels("completions_received").inc()
        session.log("table-complete", self.name, message.sender,
                    f"{promoted} table(s) at order >= {message.threshold}")
        return None

    def _build_answer_item_steps(
        self,
        goal: Literal,
        solution: Solution,
        requester: str,
        session: Session,
        answered: Optional[Literal] = None,
    ):
        """Step-generator form of answer-item construction; release and
        sticky obligations may trigger counter-queries, which suspend.
        Returns the :class:`AnswerItem`, or ``None`` when withheld.

        ``answered`` overrides the derived literal when serving from a goal
        table, whose stored solutions were produced for a different query's
        variable naming."""
        if answered is None:
            answered = goal.apply(solution.subst)

        allowed = yield from self._answer_releasable_steps(
            answered, solution, requester, session)
        if not allowed:
            session.log("release-denied", self.name, requester, str(answered))
            return None

        overlay = session.received_for(self.name)
        proof_credentials = [c for c in solution.proofs[0].credentials()
                             if isinstance(c, Credential)]

        # Sticky-policy propagation across modus ponens: an answer derived
        # from sticky-guarded material may only go to requesters satisfying
        # the union of those guards.
        inherited_guard = None
        if self.sticky_policies:
            inherited_guard = combined_sticky_guard(proof_credentials)
            if inherited_guard:
                from repro.policy.pseudovars import bind_pseudovars_in_goals

                obligations = bind_pseudovars_in_goals(
                    inherited_guard, requester, self.name)
                proved = yield from self._prove_obligations_steps(
                    obligations, requester, session)
                if not proved:
                    session.log("sticky-denied", self.name, requester,
                                str(answered))
                    return None

        disclosed: list[Credential] = []
        for credential in proof_credentials:
            if session.holds(credential.serial, requester):
                continue  # the requester already holds this statement
            if overlay.get(credential.serial) is not None:
                # Forwarding a statement received in this session.  A
                # sticky-aware holder honours any attached origin context;
                # otherwise contexts were stripped on send (3.1) and the
                # statement travels freely.
                if self.sticky_policies and credential.sticky_guard is not None:
                    obligations = sticky_obligations(
                        credential, requester, self.name)
                    proved = yield from self._prove_obligations_steps(
                        obligations or (), requester, session)
                    if not proved:
                        session.log("sticky-denied", self.name, requester,
                                    f"credential {credential.rule.head}")
                        continue
                disclosed.append(credential)
                continue
            releasable = yield from self._credential_releasable_steps(
                credential, requester, session)
            if not releasable:
                # Disclose-what-you-may: the answer still goes out (it passed
                # its own release check); the withheld credential just makes
                # the answer uncertifiable, and the asker decides whether to
                # accept it.
                session.log("release-denied", self.name, requester,
                            f"credential {credential.rule.head}")
                continue
            if self.sticky_policies:
                guard = self._release_guard_for(credential)
                if guard:
                    credential = with_sticky_guard(credential, guard)
            disclosed.append(credential)

        answer_credential: Optional[Credential] = None
        answer_ref: Optional[CredentialRef] = None
        if answered.is_ground():
            credential = self.self_credential(answered)
            if self.sticky_policies and inherited_guard:
                credential = with_sticky_guard(credential, inherited_guard)
            answer_credential, answer_ref = self._answer_credential_delta(
                credential, requester, session)

        deltas = self._deltas_enabled()
        bindings = {
            variable.name: solution.subst.resolve(variable)
            for variable in goal.variables()
            if solution.subst.lookup(variable) is not None
        }
        for credential in disclosed:
            session.mark_holder(credential.serial, requester)
            session.mark_holder(credential.serial, self.name)
            if deltas:
                session.note_wire_disclosure(
                    self.name, requester, credential.serial)
            session.log("disclose", self.name, requester,
                        str(credential.rule.head))
        return AnswerItem(
            bindings=bindings,
            credentials=tuple(dict.fromkeys(disclosed)),  # stable dedup
            answer_credential=answer_credential,
            answered_literal=answered,
            answer_credential_ref=answer_ref,
        )

    def _release_policy_grants_steps(
        self,
        goal: Literal,
        requester: str,
        session: Session,
        allow_remote: bool = True,
    ):
        """Grant access through a ``$`` resource policy: prove the guard and
        body with Requester bound, and answer with the resulting bindings (no
        supporting disclosure — the obligations were proved on our side,
        often *from* the requester's disclosures).  Step-generator returning
        the list of :class:`AnswerItem` grants.

        On the answering path (``allow_remote``) only resource policies
        grant.  A release policy proper (``p $ guard <- p``, see
        :func:`~repro.policy.release.restates_head`) derives nothing the
        content rules did not: its answers were derived by the query and
        released, once each, by :meth:`_answer_releasable_steps`.  The eager
        strategy's offline check (``allow_remote=False``) proves every ``$``
        rule — there the guard is proved with the requester dropped, while
        the release check may still ask other peers."""
        items: list[AnswerItem] = []
        bound_goal = bind_pseudovars_in_literal(goal, requester, self.name)
        for policy in self.kb.release_policies_for(bound_goal):
            if allow_remote and restates_head(policy):
                continue
            instantiated = bind_pseudovars(policy, requester, self.name).rename_apart()
            subst = unify_literals(bound_goal, instantiated.head, Substitution.empty())
            if subst is None:
                continue
            assert instantiated.guard is not None
            obligations = instantiated.guard + instantiated.body
            context = EvalContext(
                peer=self,
                session=session,
                requester=requester,
                kb=self.kb,
                stores=[self.credentials, session.received_for(self.name)],
                allow_remote=allow_remote,
                drop_peers=frozenset() if allow_remote else frozenset({requester}),
            )
            session.counters["release_checks"] += 1
            solutions = yield from collect_solutions(context.engine.iter_query(
                obligations, subst=subst, max_solutions=self.max_answers))
            for solution in solutions:
                answered = bound_goal.apply(solution.subst)
                # Sticky propagation also applies to $-policy grants: a
                # grant whose obligations consumed sticky material may only
                # reach requesters satisfying the inherited guards.
                if self.sticky_policies:
                    used = [c for proof in solution.proofs
                            for c in proof.credentials()
                            if isinstance(c, Credential)]
                    inherited = combined_sticky_guard(used)
                    if inherited:
                        from repro.policy.pseudovars import bind_pseudovars_in_goals

                        sticky_goals = bind_pseudovars_in_goals(
                            inherited, requester, self.name)
                        proved = yield from self._prove_obligations_steps(
                            sticky_goals, requester, session)
                        if not proved:
                            session.log("sticky-denied", self.name, requester,
                                        str(answered))
                            continue
                answer_credential: Optional[Credential] = None
                answer_ref: Optional[CredentialRef] = None
                if answered.is_ground():
                    answer_credential, answer_ref = (
                        self._answer_credential_delta(
                            self.self_credential(answered), requester, session))
                bindings = {
                    variable.name: solution.subst.resolve(variable)
                    for variable in bound_goal.variables()
                    if solution.subst.lookup(variable) is not None
                }
                items.append(AnswerItem(
                    bindings=bindings,
                    credentials=(),
                    answer_credential=answer_credential,
                    answered_literal=answered,
                    answer_credential_ref=answer_ref,
                ))
        return items

    # -- release decisions -------------------------------------------------------------

    def _release_guard_for(self, credential: Credential):
        """The raw (pseudo-variable) guard of the first release policy whose
        head covers ``credential`` — what a sticky disclosure attaches."""
        for head in credential_release_heads(credential):
            for policy in self.kb.release_policies_for(head):
                renamed = policy.rename_apart()
                if unify_literals(head, renamed.head, Substitution.empty()) is not None:
                    return policy.guard or ()
        return ()

    def _prove_obligations_steps(
        self,
        goals: tuple[Literal, ...],
        requester: str,
        session: Session,
    ):
        if not goals:
            return True
        context = EvalContext(
            peer=self,
            session=session,
            requester=requester,
            kb=self.kb,
            stores=[self.credentials, session.received_for(self.name)],
            allow_remote=True,
        )
        session.counters["release_checks"] += 1
        solution = yield from context.prove_steps(goals)
        return solution is not None

    def _note_release_decision(self, subject: str, requester: str,
                               allowed: bool, detail: str) -> None:
        """Trace one release-policy decision (paper §3.1: statements go out
        only when their release policy admits the requester)."""
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("policy.release", peer=self.name,
                         requester=requester, subject=subject,
                         allowed=allowed, detail=detail)

    def _answer_releasable_steps(
        self,
        answered: Literal,
        solution: Solution,
        requester: str,
        session: Session,
    ):
        if requester == self.name:
            return True
        cache_key = ("answer", self.name, requester, canonical_literal(answered))
        cached = session.release_cached(cache_key)
        if cached is not None:
            return cached

        # Release policies may spell the statement with or without its
        # authority chain; try both forms for singleton chains.
        candidates = [answered]
        if len(answered.authority) == 1:
            candidates.append(Literal(answered.predicate, answered.args, ()))

        allowed = False
        for candidate in candidates:
            for decision in release_obligations(self.kb, candidate, requester, self.name):
                proved = yield from self._prove_obligations_steps(
                    decision.goals, requester, session)
                if proved:
                    allowed = True
                    break
            if allowed:
                break
        if not allowed:
            top = solution.proofs[0]
            if top.kind == "credential" and isinstance(top.credential, Credential):
                # An answer whose proof is a single credential reveals no
                # more than the credential itself: its release policy
                # governs, unless its head spellings are exactly the
                # candidates just tried (the same policies, proved again).
                if not all(head in candidates for head in
                           credential_release_heads(top.credential)):
                    allowed = yield from self._credential_releasable_steps(
                        top.credential, requester, session)
            elif top.rule is not None:
                # Fall back to the rule context of the top-level clause used:
                # conclusions of a public rule (<-{true}) are shareable.
                obligations = rule_shipping_obligations(top.rule, requester, self.name)
                if obligations is not None:
                    allowed = yield from self._prove_obligations_steps(
                        obligations, requester, session)
        session.cache_release(cache_key, allowed)
        self._note_release_decision("answer", requester, allowed,
                                    str(answered))
        return allowed

    def _credential_releasable_steps(
        self,
        credential: Credential,
        requester: str,
        session: Session,
    ):
        if requester == self.name:
            return True
        cache_key = ("credential", self.name, requester, credential.serial)
        cached = session.release_cached(cache_key)
        if cached is not None:
            return cached
        allowed = False
        for decision in credential_release_decisions(
                self.kb, credential, requester, self.name):
            proved = yield from self._prove_obligations_steps(
                decision.goals, requester, session)
            if proved:
                allowed = True
                break
        session.cache_release(cache_key, allowed)
        self._note_release_decision("credential", requester, allowed,
                                    str(credential.rule.head))
        return allowed

    # -- unsolicited disclosures (eager strategy) --------------------------------------------

    def _handle_disclosure(self, message: DisclosureMessage) -> Optional[Message]:
        session = self._session(message.session_id, message.sender)
        overlay = session.received_for(self.name)
        accepted = 0
        for credential in message.credentials:
            try:
                verify_credential(credential, self.keyring, now=self.clock)
            except (CredentialError, SignatureError, KeyError_):
                session.counters["bad_credentials"] += 1
                continue
            if overlay.add(credential):
                accepted += 1
            session.mark_holder(credential.serial, self.name)
            session.mark_holder(credential.serial, message.sender)
        session.log("absorb", self.name, message.sender,
                    f"{accepted}/{len(message.credentials)} credential(s)")
        return None

    # -- UniPro policy disclosure ------------------------------------------------------------

    def _policy_request_steps(self, message: PolicyRequestMessage):
        session = self._session(message.session_id, message.sender)
        refused = PolicyMessage(
            sender=self.name, receiver=message.sender,
            session_id=session.id, policy_name=message.policy_name,
            rules=(), granted=False)
        if not self.unipro.knows(message.policy_name):
            session.log("policy-refuse", self.name, message.sender,
                        message.policy_name)
            return refused
        policy = self.unipro.get(message.policy_name)
        if policy.protection is None:
            session.log("policy-refuse", self.name, message.sender,
                        f"{message.policy_name} (undisclosable)")
            return refused
        proved = yield from self._prove_obligations_steps(
            policy.protection, message.sender, session)
        if not proved:
            session.log("policy-refuse", self.name, message.sender,
                        f"{message.policy_name} (protection unsatisfied)")
            return refused
        session.log("policy-disclose", self.name, message.sender, message.policy_name)
        return PolicyMessage(
            sender=self.name, receiver=message.sender,
            session_id=session.id, policy_name=message.policy_name,
            rules=policy.disclosed_rules(), granted=True)

    # -- local querying (the peer asking its own engine) ----------------------------------------

    def local_query(self, goal: Literal, session: Optional[Session] = None,
                    max_solutions: Optional[int] = None,
                    allow_remote: bool = True) -> list[Solution]:
        """Evaluate a goal as this peer, for its own purposes."""
        created_here = session is None
        if session is None:
            from repro.negotiation.session import next_session_id

            session = (self.transport.sessions.get_or_create(
                next_session_id("local"), self.name, self.max_nesting)
                if self.transport is not None
                else Session(next_session_id("local"), self.name, self.max_nesting))
        try:
            context = EvalContext(
                peer=self,
                session=session,
                requester=self.name,
                kb=self.kb,
                stores=[self.credentials, session.received_for(self.name)],
                allow_remote=allow_remote and self.transport is not None,
            )
            return context.query_goal(goal, max_solutions=max_solutions)
        finally:
            if created_here:
                session.audit_in_flight()
                if self.transport is not None:
                    self.transport.release_session(session.id)

    def __repr__(self) -> str:
        return (f"Peer({self.name!r}, {len(self.kb)} rules, "
                f"{len(self.credentials)} credentials)")
