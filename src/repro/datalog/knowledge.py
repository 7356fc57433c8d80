"""Indexed storage for PeerTrust rules and facts.

A :class:`KnowledgeBase` stores :class:`repro.datalog.ast.Rule` values and
answers the engine's central question — *which clauses could resolve this
goal?* — without scanning the whole program.  Two levels of indexing are
used, the classic Datalog scheme:

1. **predicate indicator** ``(name, arity)`` — every lookup is confined to
   one predicate's clause list;
2. **first-argument indexing** for facts — ground facts are additionally
   bucketed by their first argument, so a goal with a bound first argument
   touches only matching facts.

Release policies (rules carrying a ``$`` guard) are kept in a separate index
because they answer a different question ("may I disclose this?") than
content rules ("is this true?"); see :mod:`repro.policy.release`.

Clause order is preserved within each indicator (SLD tries clauses in
program order, like Prolog), and all mutation is append/remove — rules are
immutable values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Optional

from repro.datalog.ast import Literal, Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.unify import variant

# Historical alias: the engine modules talk about "clauses"; a clause and a
# PeerTrust rule are the same value type.
Clause = Rule


def _first_arg_key(literal: Literal) -> Optional[Constant]:
    """The indexing key of a literal: its first argument when that is a
    constant, else ``None`` (meaning: lands in / scans the variable bucket)."""
    if literal.args and isinstance(literal.args[0], Constant):
        return literal.args[0]
    return None


class _PredicateBucket:
    """Clauses for a single ``(predicate, arity)`` indicator.

    ``ordered`` preserves program order for fair SLD enumeration;
    ``fact_index`` maps a ground first argument to fact positions, and
    ``unindexed`` holds positions of rules and of facts whose first argument
    is not a constant.
    """

    __slots__ = ("ordered", "fact_index", "unindexed")

    def __init__(self) -> None:
        self.ordered: list[Rule] = []
        self.fact_index: dict[Constant, list[int]] = defaultdict(list)
        self.unindexed: list[int] = []

    def add(self, rule: Rule) -> None:
        position = len(self.ordered)
        self.ordered.append(rule)
        key = _first_arg_key(rule.head) if rule.is_fact else None
        if rule.is_fact and key is not None:
            self.fact_index[key].append(position)
        else:
            self.unindexed.append(position)

    def candidates(self, goal: Literal) -> Iterator[Rule]:
        """Clauses that could match ``goal``, in program order."""
        key = _first_arg_key(goal)
        if key is None:
            # Unbound first argument: everything is a candidate.
            yield from self.ordered
            return
        indexed = self.fact_index.get(key)
        if not indexed:
            for position in self.unindexed:
                yield self.ordered[position]
            return
        # Both position lists are already sorted (appends are monotone, and
        # _reindex rebuilds them in order), so a two-pointer merge restores
        # program order in O(n) — no per-goal sorted() of the concatenation.
        ordered = self.ordered
        unindexed = self.unindexed
        i = j = 0
        indexed_len, unindexed_len = len(indexed), len(unindexed)
        while i < indexed_len and j < unindexed_len:
            if indexed[i] < unindexed[j]:
                yield ordered[indexed[i]]
                i += 1
            else:
                yield ordered[unindexed[j]]
                j += 1
        while i < indexed_len:
            yield ordered[indexed[i]]
            i += 1
        while j < unindexed_len:
            yield ordered[unindexed[j]]
            j += 1

    def remove(self, rule: Rule) -> bool:
        for position, existing in enumerate(self.ordered):
            if existing == rule:
                del self.ordered[position]
                self._reindex()
                return True
        return False

    def _reindex(self) -> None:
        rebuilt = _PredicateBucket()
        for rule in self.ordered:
            rebuilt.add(rule)
        self.fact_index = rebuilt.fact_index
        self.unindexed = rebuilt.unindexed


class KnowledgeBase:
    """A mutable, indexed collection of PeerTrust rules.

    The KB separates *content* clauses (no ``$`` guard) from *release
    policies* (with a guard).  Content clauses drive derivation; release
    policies drive disclosure decisions.
    """

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self._content: dict[tuple[str, int], _PredicateBucket] = {}
        self._release: dict[tuple[str, int], list[Rule]] = defaultdict(list)
        self._count = 0
        self.generation = 0  # bumped by every mutation (a cache stamp)
        if rules:
            for rule in rules:
                self.add(rule)

    # -- mutation ---------------------------------------------------------------

    def add(self, rule: Rule) -> None:
        """Add one rule; release policies and content rules are routed to
        their respective indexes."""
        if rule.is_release_policy:
            self._release[rule.head.indicator].append(rule)
        else:
            bucket = self._content.get(rule.head.indicator)
            if bucket is None:
                bucket = self._content[rule.head.indicator] = _PredicateBucket()
            bucket.add(rule)
        self._count += 1
        self.generation += 1

    def add_all(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    def load(self, source: str) -> list[Rule]:
        """Parse ``source`` and add every rule; returns the parsed rules."""
        from repro.datalog.parser import parse_program

        rules = parse_program(source)
        self.add_all(rules)
        return rules

    def remove(self, rule: Rule) -> bool:
        """Remove one rule (by structural equality).  Returns success."""
        if rule.is_release_policy:
            policies = self._release.get(rule.head.indicator, [])
            if rule in policies:
                policies.remove(rule)
                self._count -= 1
                self.generation += 1
                return True
            return False
        bucket = self._content.get(rule.head.indicator)
        if bucket is not None and bucket.remove(rule):
            self._count -= 1
            self.generation += 1
            return True
        return False

    # -- lookup -------------------------------------------------------------------

    def rules_for(self, goal: Literal) -> Iterator[Rule]:
        """Content clauses whose head indicator matches ``goal``, filtered by
        first-argument indexing."""
        bucket = self._content.get(goal.indicator)
        if bucket is not None:
            yield from bucket.candidates(goal)

    def release_policies_for(self, literal: Literal) -> list[Rule]:
        """Release policies guarding disclosure of ``literal``."""
        return list(self._release.get(literal.indicator, []))

    def has_predicate(self, indicator: tuple[str, int]) -> bool:
        return indicator in self._content or indicator in self._release

    def contains_variant(self, rule: Rule) -> bool:
        """True when a stored rule is a variant (equal up to renaming) of
        ``rule`` — used to avoid re-adding credentials already held."""
        for existing in self.rules():
            if _rule_variant(existing, rule):
                return True
        return False

    # -- iteration / inspection --------------------------------------------------

    def rules(self) -> Iterator[Rule]:
        """All rules: content first (program order per predicate), then
        release policies."""
        for bucket in self._content.values():
            yield from bucket.ordered
        for policies in self._release.values():
            yield from policies

    def content_rules(self) -> Iterator[Rule]:
        for bucket in self._content.values():
            yield from bucket.ordered

    def release_policies(self) -> Iterator[Rule]:
        for policies in self._release.values():
            yield from policies

    def signed_rules(self) -> Iterator[Rule]:
        """All credential-bearing rules in the KB."""
        return (rule for rule in self.rules() if rule.is_signed)

    def predicates(self) -> set[tuple[str, int]]:
        return set(self._content) | set(self._release)

    def facts(self, indicator: Optional[tuple[str, int]] = None) -> Iterator[Rule]:
        for rule in self.content_rules():
            if rule.is_fact and (indicator is None or rule.head.indicator == indicator):
                yield rule

    def copy(self) -> "KnowledgeBase":
        return KnowledgeBase(self.rules())

    def filtered(self, keep: Callable[[Rule], bool]) -> "KnowledgeBase":
        return KnowledgeBase(rule for rule in self.rules() if keep(rule))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Rule]:
        return self.rules()

    def __contains__(self, rule: Rule) -> bool:
        return any(existing == rule for existing in self.rules())

    def __repr__(self) -> str:
        return f"KnowledgeBase({self._count} rules, {len(self.predicates())} predicates)"


def _rule_variant(left: Rule, right: Rule) -> bool:
    """Variance check lifted from terms to whole rules, by packing each rule
    into a single term so variable correspondences span head and body."""
    from repro.datalog.terms import Compound

    def pack(rule: Rule) -> Term:
        def pack_literal(lit: Literal) -> Term:
            flag = Constant("neg" if lit.negated else "pos")
            return Compound(
                "lit",
                (Constant(lit.predicate), flag, Compound("args", lit.args),
                 Compound("auth", lit.authority)),
            )

        parts: list[Term] = [pack_literal(rule.head)]
        parts.append(Compound("body", tuple(pack_literal(l) for l in rule.body)))
        parts.append(
            Compound("guard", tuple(pack_literal(l) for l in rule.guard))
            if rule.guard is not None
            else Constant("noguard")
        )
        parts.append(
            Compound("ctx", tuple(pack_literal(l) for l in rule.rule_context))
            if rule.rule_context is not None
            else Constant("noctx")
        )
        parts.append(Compound("signers", rule.signers))
        return Compound("rule", tuple(parts))

    return variant(pack(left), pack(right))
