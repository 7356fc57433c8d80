"""SLD resolution with depth bounds, optional tabling, and proof trees.

This is the local inference core each peer runs.  Three features matter to
the negotiation runtime built on top:

**Proof trees.**  Every solution carries a :class:`ProofNode` per top-level
goal recording which clause resolved it and the sub-proofs of its body.
The negotiation layer walks these trees to collect the signed rules that
constitute a *certified proof* (paper §6: "a certified proof that a party is
entitled to access a particular resource").

**Dispatch hook.**  Goals can be intercepted by a caller-supplied
``dispatch(goal, subst, depth)`` callable before normal resolution.  The
negotiation engine uses this to route goals with authority chains to remote
peers; the local engine stays ignorant of networking.

**Tabling.**  With ``tabled=True``, repeated calls (up to variable renaming)
consume memoised answers, and :meth:`SLDEngine.query` iterates to a fixpoint
so left-recursive Datalog (``path(X,Y) <- path(X,Z), edge(Z,Y)``) terminates
with complete answers — an OLDT-style evaluation.  With ``tabled=False``,
re-entrant calls simply fail (cycle pruning), which is what the negotiation
engine wants: its own session-level loop detection governs termination.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from repro.datalog.ast import Literal, Rule
from repro.datalog.builtins import DEFAULT_REGISTRY, BuiltinRegistry
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.substitution import Substitution
from repro.datalog.terms import INTERN_STATS, Compound, Constant, Term, Variable
from repro.datalog.unify import unify
from repro.errors import BuiltinError, DepthLimitExceeded, EvaluationError
from repro.obs import trace as _trace
from repro.obs.metrics import global_registry

# Process-wide engine counters, aggregated across every SLDEngine instance
# (negotiations create short-lived engines per evaluation context, so
# per-instance stats alone cannot answer "how often did caches help this
# run?").  Surfaced by ``peertrust ... --stats``.
GLOBAL_COUNTERS: Counter = Counter()

# Per-engine SLDStats fields folded into the process-wide registry once per
# top-level query (engines are short-lived; the registry keeps the totals).
_ENGINE_FIELDS = ("resolutions", "builtin_calls", "table_hits",
                  "depth_cutoffs", "fixpoint_passes", "table_reuse",
                  "intern_hits", "sig_cache_hits")
_ENGINE_OPS = global_registry().counter(
    "peertrust_engine_ops_total",
    help="SLD engine operations, folded per top-level query",
    labels=("op",))


def _stats_marks(stats: "SLDStats") -> tuple:
    return tuple(getattr(stats, name) for name in _ENGINE_FIELDS)


def _fold_stats(stats: "SLDStats", before: tuple) -> None:
    for name, prev, now in zip(_ENGINE_FIELDS, before, _stats_marks(stats)):
        if now != prev:
            _ENGINE_OPS.labels(name).inc(now - prev)

# A dispatcher may return None ("not mine, resolve normally") or an iterator
# of (substitution, proof) pairs covering the goal entirely.
Dispatcher = Callable[[Literal, Substitution, int], Optional[Iterator[tuple[Substitution, "ProofNode"]]]]


class Suspension:
    """A request to pause resolution until an external event supplies a value.

    Dispatchers that reach beyond the engine (the negotiation runtime's
    remote calls) yield a ``Suspension`` instead of blocking.  Every
    generator in the resolution stack forwards it upward unchanged —
    ``yield from`` does so natively, and the explicit conjunction/body loops
    re-yield it — until it reaches the driver pumping the evaluation, which
    performs the remote exchange and resumes the generator with
    ``send(outcome)``.  An exception
    instance sent back is raised at the original suspension point, so the
    existing failure discipline applies unchanged.

    ``payload`` is opaque to this module; the negotiation layer uses a
    :class:`repro.negotiation.engine.RemoteCall`.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: object) -> None:
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Suspension({self.payload!r})"


@dataclass(frozen=True, slots=True)
class ProofNode:
    """One step of a proof tree.

    ``kind`` is one of ``"fact"``, ``"rule"``, ``"builtin"``, ``"negation"``,
    ``"table"`` (answer replayed from a memo table) or ``"remote"`` (grafted
    by the negotiation engine for sub-proofs obtained from another peer).
    """

    goal: Literal
    kind: str
    rule: Optional[Rule] = None
    children: tuple["ProofNode", ...] = ()
    peer: Optional[str] = None  # for remote nodes: who answered
    # Opaque payload set by negotiation dispatchers on "credential" nodes:
    # the repro.credentials.Credential backing ``rule``.
    credential: object = None

    def credentials(self) -> list[object]:
        """All credential payloads used anywhere in this proof."""
        collected: list[object] = []
        stack: list[ProofNode] = [self]
        while stack:
            node = stack.pop()
            if node.credential is not None:
                collected.append(node.credential)
            stack.extend(node.children)
        return collected

    def signed_rules(self) -> list[Rule]:
        """All credential-bearing rules used anywhere in this proof."""
        collected: list[Rule] = []
        stack: list[ProofNode] = [self]
        while stack:
            node = stack.pop()
            if node.rule is not None and node.rule.is_signed:
                collected.append(node.rule)
            stack.extend(node.children)
        return collected

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def render(self, indent: int = 0) -> str:
        lines = [" " * indent + f"{self.goal}  [{self.kind}"
                 + (f" via {self.peer}" if self.peer else "") + "]"]
        for child in self.children:
            lines.append(child.render(indent + 2))
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class Solution:
    """A query answer: the substitution plus one proof per top-level goal."""

    subst: Substitution
    proofs: tuple[ProofNode, ...] = ()

    def binding(self, name: str) -> Optional[Term]:
        """The fully-resolved binding of the variable called ``name``."""
        value = self.subst.lookup(Variable(name))
        return self.subst.resolve(Variable(name)) if value is not None else None

    def signed_rules(self) -> list[Rule]:
        collected: list[Rule] = []
        for proof in self.proofs:
            collected.extend(proof.signed_rules())
        return collected


@dataclass
class SLDStats:
    """Engine counters, reset per :class:`SLDEngine` instance.

    ``table_reuse`` counts goals served from answer tables *retained from an
    earlier query* (cross-query reuse), a subset of ``table_hits``.
    ``intern_hits`` is the number of term-intern-table hits observed while
    this engine's queries ran (the intern table itself is process-wide).
    ``sig_cache_hits`` is filled in by the layers above the logic engine
    (crypto is not a datalog dependency); it stays 0 for plain engines.
    """

    resolutions: int = 0
    builtin_calls: int = 0
    table_hits: int = 0
    depth_cutoffs: int = 0
    fixpoint_passes: int = 0
    table_reuse: int = 0
    intern_hits: int = 0
    sig_cache_hits: int = 0


def _canonical_literal(literal: Literal) -> tuple:
    numbering: dict[Variable, int] = {}

    def canon_term(term: Term) -> tuple:
        if isinstance(term, Variable):
            index = numbering.setdefault(term, len(numbering))
            return ("v", index)
        if isinstance(term, Constant):
            return ("c", term.value, term.quoted)
        assert isinstance(term, Compound)
        return ("f", term.functor, tuple(canon_term(a) for a in term.args))

    return (
        literal.predicate,
        literal.negated,
        tuple(canon_term(a) for a in literal.args),
        tuple(canon_term(a) for a in literal.authority),
    )


# Resolved goals repeat heavily across fixpoint passes, tabling lookups, and
# re-queries; memoising the canonical form turns each repeat into one dict
# probe.  Bounded so one-shot literals (fresh renamings) cannot grow it
# without limit.  Safe because literals are immutable values.
_canonical_literal_cached = lru_cache(maxsize=16384)(_canonical_literal)


def canonical_literal(literal: Literal) -> tuple:
    """A hashable key identifying ``literal`` up to variable renaming.

    Variables are numbered in order of first occurrence, so ``p(X, Y)`` and
    ``p(A, B)`` share a key while ``p(X, X)`` gets a different one.
    """
    return _canonical_literal_cached(literal)


def canonical_cache_info():
    """Hit/miss statistics of the memoised canonical form (for --stats)."""
    return _canonical_literal_cached.cache_info()


def clear_canonical_cache() -> None:
    _canonical_literal_cached.cache_clear()


def unify_literals(goal: Literal, head: Literal,
                   subst: Substitution) -> Optional[Substitution]:
    """Unify a goal with a clause head: predicate, arity, arguments, and
    authority chains must all agree."""
    if goal.predicate != head.predicate or len(goal.args) != len(head.args):
        return None
    if len(goal.authority) != len(head.authority):
        return None
    current: Optional[Substitution] = subst
    for goal_arg, head_arg in zip(goal.args + goal.authority,
                                  head.args + head.authority):
        current = unify(goal_arg, head_arg, current)
        if current is None:
            return None
    return current


class SLDEngine:
    """Backward-chaining resolution over one knowledge base.

    Parameters
    ----------
    kb:
        The clause store to resolve against.
    builtins:
        Builtin/external predicate registry; defaults to comparisons only.
    max_depth:
        Resolution-step bound per derivation branch.  Exceeding it prunes
        the branch (and counts ``stats.depth_cutoffs``) unless
        ``strict_depth`` is set, in which case it raises.
    tabled:
        Memoise answers per call pattern and iterate queries to fixpoint.
    retain_tables:
        Keep saturated answer tables across :meth:`query` calls so a
        repeated query replays memoised answers instead of re-deriving.
        Defaults to the value of ``tabled``.  Retained tables are stamped
        with the knowledge base's generation counter and dropped
        automatically when the KB mutates — reuse can never serve stale
        answers.
    dispatch:
        Optional interception hook (see module docstring).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        builtins: Optional[BuiltinRegistry] = None,
        max_depth: int = 400,
        tabled: bool = False,
        strict_depth: bool = False,
        dispatch: Optional[Dispatcher] = None,
        rule_transform: Optional[Callable[[Rule], Rule]] = None,
        retain_tables: Optional[bool] = None,
    ) -> None:
        self.kb = kb
        self.builtins = builtins if builtins is not None else DEFAULT_REGISTRY
        self.max_depth = max_depth
        self.tabled = tabled
        self.retain_tables = tabled if retain_tables is None else retain_tables
        self.strict_depth = strict_depth
        self.dispatch = dispatch
        # Applied to every clause before it is renamed apart; the negotiation
        # layer uses this to bind the pseudo-variables Requester/Self per
        # incoming query (paper §3.1).
        self.rule_transform = rule_transform
        # Scatter-gather prefetch hook (negotiation dispatchers only): a
        # generator-valued callable invoked once per multi-goal conjunction
        # *before* left-to-right resolution.  It may suspend (to issue
        # independent remote sub-queries concurrently) but yields no
        # solutions; resolution proceeds normally afterwards, consuming
        # whatever the hook prefetched.  None = zero overhead.
        self.gather_hook: Optional[Callable] = None
        self.stats = SLDStats()
        # Answer tables: call-pattern key -> {answer key: (answer, proof)}.
        # The inner dict preserves insertion order for fair replay and makes
        # duplicate detection O(1) instead of a rescan per recorded answer.
        self._tables: dict[tuple, dict[tuple, tuple[Literal, ProofNode]]] = {}
        # Call-pattern key -> the resolved goal it was built for; lets
        # export_tables() write keys in a textual, hash-seed-independent
        # form that import_tables() can recanonicalise after a restart.
        self._table_goals: dict[tuple, Literal] = {}
        self._active: set[tuple] = set()
        self._completed: set[tuple] = set()
        self._retained: frozenset[tuple] = frozenset()
        self._kb_generation = kb.generation
        self._table_grew = False
        self._reentered = False

    # -- public API -----------------------------------------------------------

    def query(
        self,
        goals: Sequence[Literal],
        subst: Optional[Substitution] = None,
        max_solutions: Optional[int] = None,
    ) -> list[Solution]:
        """Evaluate a conjunction and return deduplicated solutions.

        With tabling enabled this runs repeated passes until the memo tables
        stop growing, so recursive programs return complete answer sets.
        """
        goals = tuple(goals)
        tracer = _trace.ACTIVE
        marks = _stats_marks(self.stats)
        if tracer is None:
            try:
                return self._query_impl(goals, subst, max_solutions)
            finally:
                _fold_stats(self.stats, marks)
        with tracer.span("engine.query",
                         goals=" & ".join(str(g) for g in goals),
                         tabled=self.tabled) as span:
            try:
                solutions = self._query_impl(goals, subst, max_solutions)
            finally:
                _fold_stats(self.stats, marks)
            span.attrs["solutions"] = len(solutions)
            return solutions

    def _query_impl(
        self,
        goals: Sequence[Literal],
        subst: Optional[Substitution],
        max_solutions: Optional[int],
    ) -> list[Solution]:
        base = subst if subst is not None else Substitution.empty()
        goal_list = tuple(goals)
        query_vars = set()
        for goal in goal_list:
            query_vars |= goal.variables()

        self._sync_tables()
        intern_hits_before = INTERN_STATS.hits
        answers: dict[tuple, Solution] = {}
        while True:
            self._table_grew = False
            self._reentered = False
            self.stats.fixpoint_passes += 1
            for item in self._solve(goal_list, base, 0):
                if isinstance(item, Suspension):
                    raise EvaluationError(
                        "a Suspension escaped a synchronous query(); drive "
                        "suspending evaluations through iter_query() instead")
                result_subst, proofs = item
                key = tuple(
                    canonical_literal(goal.apply(result_subst)) for goal in goal_list
                )
                if key not in answers:
                    answers[key] = Solution(result_subst, proofs)
                if max_solutions is not None and len(answers) >= max_solutions and not self.tabled:
                    return list(answers.values())
            if not (self.tabled and self._table_grew and self._reentered):
                break
        if self.tabled:
            # At fixpoint every memo table is saturated for the current KB;
            # later queries may replay them without re-deriving.
            self._completed.update(self._tables)
        self.stats.intern_hits += INTERN_STATS.hits - intern_hits_before
        solutions = list(answers.values())
        if max_solutions is not None:
            solutions = solutions[:max_solutions]
        return solutions

    def ask(self, goals: Sequence[Literal]) -> bool:
        """True when the conjunction has at least one solution."""
        return bool(self.query(goals, max_solutions=1))

    def iter_query(
        self,
        goals: Sequence[Literal],
        subst: Optional[Substitution] = None,
        max_solutions: Optional[int] = None,
    ) -> Iterator:
        """Step form of :meth:`query`.

        Yields :class:`Suspension` items (forward them to the event driver
        and ``send`` the outcome back in) interleaved with deduplicated
        :class:`Solution` items.  Single-pass only: tabled engines need
        fixpoint iteration, which cannot straddle suspensions, so they are
        rejected — the negotiation contexts that drive this run untabled.
        """
        if self.tabled:
            raise EvaluationError("iter_query does not support tabled engines")
        base = subst if subst is not None else Substitution.empty()
        goal_list = tuple(goals)
        self._sync_tables()
        intern_hits_before = INTERN_STATS.hits
        marks = _stats_marks(self.stats)
        self.stats.fixpoint_passes += 1
        seen: set[tuple] = set()
        source = self._solve(goal_list, base, 0)
        outcome = None
        try:
            while True:
                try:
                    item = source.send(outcome)
                except StopIteration:
                    break
                outcome = None
                if isinstance(item, Suspension):
                    tracer = _trace.ACTIVE
                    if tracer is not None:
                        tracer.event("engine.suspend")
                    outcome = yield item
                    continue
                result_subst, proofs = item
                key = tuple(
                    canonical_literal(goal.apply(result_subst)) for goal in goal_list
                )
                if key in seen:
                    continue
                seen.add(key)
                yield Solution(result_subst, proofs)
                if max_solutions is not None and len(seen) >= max_solutions:
                    break
        finally:
            source.close()
            self.stats.intern_hits += INTERN_STATS.hits - intern_hits_before
            _fold_stats(self.stats, marks)

    def solve(
        self,
        goals: Sequence[Literal],
        subst: Optional[Substitution] = None,
    ) -> Iterator[Solution]:
        """Stream solutions without deduplication or fixpoint iteration.

        Use :meth:`query` for recursive programs; ``solve`` is the cheap
        streaming interface for stratified/non-recursive goals.
        """
        base = subst if subst is not None else Substitution.empty()
        self._sync_tables()
        for item in self._solve(tuple(goals), base, 0):
            if isinstance(item, Suspension):
                raise EvaluationError(
                    "a Suspension escaped a synchronous solve(); drive "
                    "suspending evaluations through iter_query() instead")
            result_subst, proofs = item
            yield Solution(result_subst, proofs)

    def solve_goals(
        self,
        goals: Sequence[Literal],
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, tuple[ProofNode, ...]]]:
        """Resolve a conjunction starting at ``depth``.

        Public for negotiation dispatchers that need to prove credential
        rule bodies or reduced goals inside an ongoing resolution."""
        yield from self._solve(tuple(goals), subst, depth)

    def _sync_tables(self) -> None:
        """Prepare memo tables for a fresh top-level evaluation.

        Drops them when the KB has mutated since they were built (stale) or
        when cross-query retention is disabled; otherwise marks the already
        completed call patterns as *retained* so replays from them can be
        attributed to cross-query reuse in the stats.
        """
        generation = self.kb.generation
        if generation != self._kb_generation:
            self.clear_tables()
            self._kb_generation = generation
        elif not self.retain_tables:
            self._tables.clear()
            self._table_goals.clear()
            self._completed.clear()
        self._retained = frozenset(self._completed)

    # -- core resolution -------------------------------------------------------

    def _solve(
        self,
        goals: tuple[Literal, ...],
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, tuple[ProofNode, ...]]]:
        if not goals:
            yield subst, ()
            return
        if depth > self.max_depth:
            if self.strict_depth:
                raise DepthLimitExceeded(
                    f"resolution exceeded max_depth={self.max_depth}")
            self.stats.depth_cutoffs += 1
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.event("engine.depth_cutoff", depth=depth,
                             goal=str(goals[0].apply(subst)))
            return
        if len(goals) > 1 and self.gather_hook is not None:
            # yield from forwards the hook's Suspensions upward and routes
            # the driver's send() values back into it, like any other
            # sub-generator that may suspend.
            yield from self.gather_hook(goals, subst, depth)
        goal, rest = goals[0], goals[1:]

        # Explicit pump instead of nested for-loops: Suspension items must be
        # re-yielded upward and their resumption values sent back *into the
        # generator that suspended*, which iteration alone cannot do.
        source = self._solve_one(goal, subst, depth)
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
            goal_subst, proof = item
            rest_source = self._solve(rest, goal_subst, depth)
            rest_outcome = None
            while True:
                try:
                    rest_item = rest_source.send(rest_outcome)
                except StopIteration:
                    break
                rest_outcome = None
                if isinstance(rest_item, Suspension):
                    rest_outcome = yield rest_item
                    continue
                rest_subst, rest_proofs = rest_item
                yield rest_subst, (proof,) + rest_proofs

    def _solve_one(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        # 1. Caller interception (negotiation engine routing).
        if self.dispatch is not None:
            intercepted = self.dispatch(goal, subst, depth)
            if intercepted is not None:
                yield from intercepted
                return

        # 2. Negation as failure.
        if goal.negated:
            yield from self._solve_negation(goal, subst, depth)
            return

        # 3. Builtins and external predicates.
        if self.builtins.is_builtin(goal.indicator) and not self.kb.has_predicate(goal.indicator):
            self.stats.builtin_calls += 1
            for result in self.builtins.solve(goal, subst):
                yield result, ProofNode(goal.apply(result), "builtin")
            return

        # 4. Clause resolution (with optional tabling).
        yield from self.resolve_clauses(goal, subst, depth)

    def resolve_clauses(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        """Resolve ``goal`` against the knowledge base only.

        Public so negotiation dispatchers — which intercept a goal to add
        credential- and remote-based solutions — can still fall through to
        ordinary clause resolution for the same goal.
        """
        resolved_goal = goal.apply(subst)
        key = canonical_literal(resolved_goal)

        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("engine.goal", goal=str(resolved_goal), depth=depth)

        if self.tabled and key in self._completed:
            if tracer is not None:
                tracer.event("engine.table", goal=str(resolved_goal),
                             hit=True, reuse=key in self._retained)
            if key in self._retained:
                self.stats.table_reuse += 1
                GLOBAL_COUNTERS["table_reuse"] += 1
            table = self._tables.get(key)
            for answer, answer_proof in (table.values() if table else ()):
                self.stats.table_hits += 1
                renamed = answer.rename({})
                unified = unify_literals(goal, renamed, subst)
                if unified is not None:
                    yield unified, ProofNode(goal.apply(unified), "table",
                                             children=(answer_proof,))
            return

        if key in self._active:
            # Re-entrant call: replay table answers (tabled) or prune (untabled).
            self._reentered = True
            if self.tabled:
                if tracer is not None:
                    tracer.event("engine.table", goal=str(resolved_goal),
                                 hit=True, reuse=False)
                table = self._tables.get(key)
                for answer, answer_proof in (list(table.values()) if table else ()):
                    self.stats.table_hits += 1
                    renamed = answer.rename({})
                    unified = unify_literals(goal, renamed, subst)
                    if unified is not None:
                        yield unified, ProofNode(goal.apply(unified), "table",
                                                 children=(answer_proof,))
            return

        self._active.add(key)
        try:
            if self.tabled:
                table = self._tables.setdefault(key, {})
                self._table_goals.setdefault(key, resolved_goal)
            else:
                table = None
            for rule in list(self.kb.rules_for(resolved_goal)):
                self.stats.resolutions += 1
                if self.rule_transform is not None:
                    rule = self.rule_transform(rule)
                renamed = rule.rename_apart()
                head_subst = unify_literals(goal, renamed.head, subst)
                if head_subst is None:
                    continue
                if not renamed.body:
                    answer_subst = head_subst
                    proof = ProofNode(goal.apply(answer_subst), "fact", rule=rule)
                    self._record_answer(table, goal, answer_subst, proof)
                    yield answer_subst, proof
                    continue
                body_source = self._solve(renamed.body, head_subst, depth + 1)
                body_outcome = None
                while True:
                    try:
                        body_item = body_source.send(body_outcome)
                    except StopIteration:
                        break
                    body_outcome = None
                    if isinstance(body_item, Suspension):
                        body_outcome = yield body_item
                        continue
                    body_subst, body_proofs = body_item
                    proof = ProofNode(goal.apply(body_subst), "rule", rule=rule,
                                      children=body_proofs)
                    # Record for table consumers, but always yield: a
                    # different call instance of the same pattern may have
                    # recorded this answer already, and suppressing the
                    # yield here would starve *this* caller.
                    self._record_answer(table, goal, body_subst, proof)
                    yield body_subst, proof
        finally:
            self._active.discard(key)

    def _record_answer(
        self,
        table: Optional[dict[tuple, tuple[Literal, ProofNode]]],
        goal: Literal,
        subst: Substitution,
        proof: ProofNode,
    ) -> bool:
        """Insert an answer into the memo table unless already present;
        returns whether the table grew."""
        if table is None:
            return False
        answer = goal.apply(subst)
        answer_key = canonical_literal(answer)
        if answer_key in table:
            return False
        table[answer_key] = (answer, proof)
        self._table_grew = True
        return True

    def _solve_negation(
        self,
        goal: Literal,
        subst: Substitution,
        depth: int,
    ) -> Iterator[tuple[Substitution, ProofNode]]:
        positive = goal.positive().apply(subst)
        if not positive.is_ground():
            raise BuiltinError(
                f"negation floundered: 'not {positive}' is not ground at call time")
        source = self._solve((positive,), subst, depth + 1)
        outcome = None
        try:
            while True:
                try:
                    item = source.send(outcome)
                except StopIteration:
                    break
                outcome = None
                if isinstance(item, Suspension):
                    outcome = yield item
                    continue
                return  # one success refutes the negation
        finally:
            source.close()
        yield subst, ProofNode(goal.apply(subst), "negation")

    # -- maintenance -------------------------------------------------------------

    def clear_tables(self) -> None:
        """Drop memoised answers.

        Called automatically when the KB's generation counter moves; still
        public for callers that want a cold engine regardless.
        """
        self._tables.clear()
        self._table_goals.clear()
        self._completed.clear()
        self._retained = frozenset()
        self._kb_generation = self.kb.generation

    def kb_fingerprint(self) -> str:
        """Content hash of the current rule set.  Generation counters are
        per-process and restart at zero, so exported tables carry this
        instead: a restarted engine only accepts tables built over an
        identical knowledge base."""
        import hashlib

        text = "\n".join(sorted(str(rule) for rule in self.kb.rules()))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def export_tables(self) -> dict:
        """Snapshot the *completed* answer tables as plain data (textual
        goals/answers plus proof trees via :mod:`repro.storage.codec`), for
        persistence in a state store.  In-progress tables are skipped: they
        are unsound to replay as if saturated.

        Proof trees are pool-encoded (``"proofs"`` holds the node pool,
        answers are node indices) so the heavy structural sharing of tabled
        proof DAGs survives serialisation instead of exploding
        combinatorially.  Each answer literal *is* its proof root's goal,
        so rows carry only the index — the importer recovers the answer
        from the decoded proof without a second parse."""
        from repro.storage.codec import ProofEncoder

        encoder = ProofEncoder()
        tables: dict[str, list] = {}
        for key in self._completed:
            goal = self._table_goals.get(key)
            table = self._tables.get(key)
            if goal is None or table is None:
                continue
            tables[str(goal)] = [
                encoder.encode(proof) for _answer, proof in table.values()
            ]
        return {"kb_fingerprint": self.kb_fingerprint(),
                "proofs": encoder.nodes, "tables": tables}

    def import_tables(self, data: dict) -> int:
        """Restore tables exported by :meth:`export_tables` into this
        engine; returns how many call patterns were adopted.  A knowledge
        base fingerprint mismatch adopts nothing — stale memo tables are
        silently discarded rather than trusted."""
        from repro.datalog.parser import parse_literal
        from repro.storage.codec import ProofDecoder

        if not self.tabled or data.get("kb_fingerprint") != self.kb_fingerprint():
            return 0
        decoder = ProofDecoder(data.get("proofs", []))
        adopted = 0
        for goal_text, rows in data.get("tables", {}).items():
            goal = parse_literal(goal_text)
            key = canonical_literal(goal)
            table = self._tables.setdefault(key, {})
            self._table_goals.setdefault(key, goal)
            for proof_index in rows:
                proof = decoder.decode(proof_index)
                answer = proof.goal
                table[canonical_literal(answer)] = (answer, proof)
            self._completed.add(key)
            adopted += 1
        self._kb_generation = self.kb.generation
        return adopted
