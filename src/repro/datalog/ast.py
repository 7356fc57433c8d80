"""Abstract syntax for PeerTrust literals and rules.

A PeerTrust *literal* extends an ordinary Datalog literal with an authority
chain (the ``@`` arguments of the paper, §3.1) and an optional negation flag:

    ``policeOfficer(Requester) @ "CSP" @ Requester``

has predicate ``policeOfficer``, one argument, and the authority chain
``("CSP", Requester)`` written innermost-first — the *outermost* (last)
element is the evaluation directive (whom to ask), each inner element is the
authority the statement is about.

A PeerTrust *rule* extends a Horn clause with:

- ``guard`` — the ``$`` release context on the head.  ``None`` means the rule
  has no ``$`` part (it defines content, not releasability); an empty tuple
  is the paper's ``$ true`` (releasable to anyone); a non-empty tuple is a
  conjunction that must be proved with ``Requester`` bound to the asking peer.
- ``rule_context`` — the paper's arrow subscript ``←_ctx`` controlling to
  whom the *rule itself* may be sent.  ``None`` is the default context
  ``Requester = Self`` (never sent); empty tuple is ``←_true`` (public).
- ``signers`` — the ``signedBy [..]`` annotation; non-empty for credentials.

Comparison goals (``Price < 2000``, ``Requester = Party``) are represented
as literals whose predicate is the operator symbol; the engine routes those
to builtins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.datalog.substitution import Substitution
from repro.datalog.terms import (
    Term,
    Variable,
    rename_term,
    variables_in,
)

COMPARISON_PREDICATES = frozenset({"<", "<=", ">", ">=", "=", "!=", "=="})


@dataclass(frozen=True, slots=True)
class Literal:
    """A possibly-negated predicate application with an authority chain."""

    predicate: str
    args: tuple[Term, ...] = ()
    authority: tuple[Term, ...] = ()
    negated: bool = False
    # Lazily-computed variable set, excluded from eq/hash/repr.  Ground
    # literals are fixpoints of apply/rename, and resolution applies the
    # same goals over and over — caching the set turns those into no-ops.
    _variables: Optional[frozenset[Variable]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if not isinstance(self.authority, tuple):
            object.__setattr__(self, "authority", tuple(self.authority))

    # -- structure -----------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple[str, int]:
        """``(predicate, arity)`` — the indexing key used by knowledge bases."""
        return (self.predicate, len(self.args))

    @property
    def is_comparison(self) -> bool:
        return self.predicate in COMPARISON_PREDICATES

    @property
    def evaluation_target(self) -> Optional[Term]:
        """The outermost authority — whom the engine should ask — or ``None``
        for a purely local literal."""
        return self.authority[-1] if self.authority else None

    def drop_outer_authority(self) -> "Literal":
        """The literal with its outermost authority removed: the goal that is
        actually sent to the evaluation target."""
        if not self.authority:
            raise ValueError("literal has no authority to drop")
        return replace(self, authority=self.authority[:-1])

    def positive(self) -> "Literal":
        """This literal with any negation removed."""
        return replace(self, negated=False) if self.negated else self

    # -- variables / substitution --------------------------------------------

    def variables(self) -> frozenset[Variable]:
        variables = self._variables
        if variables is None:
            found: set[Variable] = set()
            for term in self.args:
                found |= variables_in(term)
            for term in self.authority:
                found |= variables_in(term)
            variables = frozenset(found)
            object.__setattr__(self, "_variables", variables)
        return variables

    def apply(self, subst: Substitution) -> "Literal":
        if self.is_ground():
            return self
        return Literal(
            self.predicate,
            tuple(subst.resolve(a) for a in self.args),
            tuple(subst.resolve(a) for a in self.authority),
            self.negated,
        )

    def rename(self, mapping: dict[Variable, Variable]) -> "Literal":
        if self.is_ground():
            return self
        return Literal(
            self.predicate,
            tuple(rename_term(a, mapping) for a in self.args),
            tuple(rename_term(a, mapping) for a in self.authority),
            self.negated,
        )

    def is_ground(self) -> bool:
        variables = self._variables
        if variables is None:
            variables = self.variables()
        return not variables

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_comparison and len(self.args) == 2:
            core = f"{self.args[0]} {self.predicate} {self.args[1]}"
        elif self.args:
            core = f"{self.predicate}({', '.join(str(a) for a in self.args)})"
        else:
            core = self.predicate
        for auth in self.authority:
            core += f" @ {auth}"
        if self.negated:
            core = f"not {core}"
        return core


Goals = tuple[Literal, ...]


@dataclass(frozen=True, slots=True)
class Rule:
    """A PeerTrust rule; a fact is a rule with an empty body."""

    head: Literal
    body: Goals = ()
    guard: Optional[Goals] = None
    rule_context: Optional[Goals] = None
    signers: tuple[Term, ...] = field(default=())
    # Lazily-computed variable set, excluded from eq/hash/repr like
    # Literal._variables: ground rules (facts, shipped credentials) need no
    # renaming, and rules without Requester/Self no rebinding.
    _variables: Optional[frozenset[Variable]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if self.guard is not None and not isinstance(self.guard, tuple):
            object.__setattr__(self, "guard", tuple(self.guard))
        if self.rule_context is not None and not isinstance(self.rule_context, tuple):
            object.__setattr__(self, "rule_context", tuple(self.rule_context))
        if not isinstance(self.signers, tuple):
            object.__setattr__(self, "signers", tuple(self.signers))
        if self.head.negated:
            raise ValueError("rule heads must be positive literals")

    # -- classification -------------------------------------------------------

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def is_release_policy(self) -> bool:
        """True for rules carrying a ``$`` guard — they define to whom the
        head may be disclosed, not how to derive it."""
        return self.guard is not None

    @property
    def is_signed(self) -> bool:
        return bool(self.signers)

    @property
    def is_public(self) -> bool:
        """True when the rule itself may be shipped to any peer (``←_true``)."""
        return self.rule_context == ()

    # -- variables / substitution ---------------------------------------------

    def variables(self) -> frozenset[Variable]:
        variables = self._variables
        if variables is None:
            found = set(self.head.variables())
            for lit in self.body:
                found |= lit.variables()
            for goals in (self.guard or (), self.rule_context or ()):
                for lit in goals:
                    found |= lit.variables()
            for term in self.signers:
                found |= variables_in(term)
            variables = frozenset(found)
            object.__setattr__(self, "_variables", variables)
        return variables

    def apply(self, subst: Substitution) -> "Rule":
        if self.is_ground():
            return self
        return Rule(
            self.head.apply(subst),
            tuple(lit.apply(subst) for lit in self.body),
            None if self.guard is None else tuple(lit.apply(subst) for lit in self.guard),
            None
            if self.rule_context is None
            else tuple(lit.apply(subst) for lit in self.rule_context),
            tuple(subst.resolve(t) for t in self.signers),
        )

    def rename_apart(self) -> "Rule":
        """A variant of this rule with globally fresh variables, for use in
        resolution steps."""
        if self.is_ground():
            return self
        mapping: dict[Variable, Variable] = {}
        return Rule(
            self.head.rename(mapping),
            tuple(lit.rename(mapping) for lit in self.body),
            None if self.guard is None else tuple(lit.rename(mapping) for lit in self.guard),
            None
            if self.rule_context is None
            else tuple(lit.rename(mapping) for lit in self.rule_context),
            tuple(rename_term(t, mapping) for t in self.signers),
        )

    def strip_contexts(self) -> "Rule":
        """The rule as it is shipped to another peer: guard and rule context
        removed (§3.1 — contexts are stripped from literals and rules when
        they are sent)."""
        return Rule(self.head, self.body, None, None, self.signers)

    def is_ground(self) -> bool:
        variables = self._variables
        if variables is None:
            variables = self.variables()
        return not variables

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        text = str(self.head)
        if self.guard is not None:
            text += " $ " + (_render_goals(self.guard) if self.guard else "true")
        if self.body or self.rule_context is not None or self.signers:
            if self.body or self.rule_context is not None:
                text += " <-"
                if self.rule_context is not None:
                    text += "{" + (_render_goals(self.rule_context) if self.rule_context else "true") + "}"
                if self.signers:
                    text += " signedBy [" + ", ".join(str(s) for s in self.signers) + "]"
                if self.body:
                    text += " " + _render_goals(self.body)
                else:
                    text += " true"
            else:
                text += " signedBy [" + ", ".join(str(s) for s in self.signers) + "]"
        return text + "."


def _render_goals(goals: Iterable[Literal]) -> str:
    return ", ".join(str(g) for g in goals)


def fact(head: Literal, signers: tuple[Term, ...] = ()) -> Rule:
    """Convenience constructor for a bodiless rule."""
    return Rule(head, (), None, None, signers)
