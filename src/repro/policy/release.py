"""Release-policy semantics: who may a statement be sent to?

The default context of every literal and rule is ``Requester = Self`` — a
statement with no release policy is never sent to another peer (§3.1).  A
release policy is a rule carrying a ``$`` guard::

    student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-{true}
        student(X) @ Y.

which reads: the literal ``student(X) @ Y`` may be disclosed to ``Requester``
once the guard (and the rule body) are proved with ``Requester`` bound to
the asking peer.

This module computes the *obligations* — the instantiated goal lists a peer
must prove before disclosure.  Actually proving them (which may trigger
counter-queries to the requester) is the negotiation engine's job; keeping
lookup separate from proving makes the policy semantics unit-testable
without a network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datalog.ast import Literal, Rule
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.sld import canonical_literal, unify_literals
from repro.datalog.substitution import Substitution
from repro.policy.pseudovars import bind_pseudovars


@dataclass(frozen=True, slots=True)
class ReleaseDecision:
    """One way a disclosure could be authorised.

    ``goals`` is the conjunction still to be proved (guard followed by the
    policy body), already instantiated with the candidate literal's bindings
    and the Requester/Self pseudo-variables.  An empty tuple means the
    policy authorises the disclosure unconditionally (``$ true`` with an
    already-proved body)."""

    policy: Rule
    goals: tuple[Literal, ...]

    @property
    def unconditional(self) -> bool:
        return not self.goals


def release_obligations(
    kb: KnowledgeBase,
    literal: Literal,
    requester: str,
    self_name: str,
) -> list[ReleaseDecision]:
    """All release policies of ``kb`` that could authorise sending
    ``literal`` to ``requester``, each with its remaining proof obligations.

    An empty result means default-deny applies: no policy covers the
    literal, so it may only be "sent" to the peer itself.
    """
    decisions: list[ReleaseDecision] = []
    for policy in kb.release_policies_for(literal):
        instantiated = bind_pseudovars(policy, requester, self_name)
        renamed = instantiated.rename_apart()
        subst = unify_literals(literal, renamed.head, Substitution.empty())
        if subst is None:
            continue
        assert renamed.guard is not None  # release policies always carry $
        obligations = tuple(
            goal.apply(subst) for goal in (renamed.guard + renamed.body)
        )
        # Two obligation classes are resolved eagerly:
        # - `$ Requester = Party` equalities, so an already-matching binding
        #   becomes unconditional and a constant mismatch drops the decision;
        # - body goals alpha-equivalent to the literal being released — the
        #   paper's `p $ ctx <- p` idiom, where the body merely restates the
        #   statement under release (already derived, or being shipped as a
        #   rule whose body need not hold to show the rule).
        released_key = canonical_literal(literal)
        remaining: list[Literal] = []
        satisfiable = True
        for goal in obligations:
            if goal.predicate == "=" and len(goal.args) == 2 and not goal.authority:
                left, right = goal.args
                if left == right:
                    continue
                if left.is_constant() and right.is_constant():
                    satisfiable = False
                    break
            if canonical_literal(goal) == released_key:
                continue
            remaining.append(goal)
        if satisfiable:
            decisions.append(ReleaseDecision(instantiated, tuple(remaining)))
    return decisions


def restates_head(policy: Rule) -> bool:
    """True when ``policy`` is a release policy proper: the paper's
    ``p $ ctx <- p`` idiom, where one body goal is the head itself — same
    predicate, arguments, authority chain and variable names.

    Such a rule only says who may *receive* ``p``; the answer it covers is
    derived by the content rules and released by :func:`release_obligations`,
    which treats the restated body goal as already proved.  Every other
    ``$`` rule (freeEnroll, §3.1) is a *resource* policy: proving its guard
    and body grants access by itself.  The test is syntactic on purpose — a
    body that merely unifies with the head (``p(X, Y) <- p(Y, X)``) says
    something new and stays a resource policy."""
    head = policy.head
    return any(goal == head for goal in policy.body)


def credential_release_heads(credential) -> list[Literal]:
    """Both spellings of a credential's statement.

    A credential's statement can be written bare (``visaCard("IBM")``) or
    with its authority chain (``visaCard("IBM") @ "VISA"``) — the signature
    makes them the same statement, and policies may use either form.
    """
    from repro.datalog.terms import Constant

    head = credential.rule.head
    heads = [head]
    if not head.authority:
        issuers = [
            t.value for t in credential.rule.signers
            if isinstance(t, Constant) and isinstance(t.value, str)
        ]
        if issuers:
            heads.append(Literal(head.predicate, head.args,
                                 (Constant(issuers[0], quoted=True),)))
    return heads


def credential_release_decisions(
    kb: KnowledgeBase,
    credential,
    requester: str,
    self_name: str,
) -> list[ReleaseDecision]:
    """Release decisions for a credential, trying both head spellings."""
    decisions: list[ReleaseDecision] = []
    for candidate in credential_release_heads(credential):
        decisions.extend(release_obligations(kb, candidate, requester, self_name))
    return decisions


def releasable_to_self(literal: Literal, requester: str, self_name: str) -> bool:
    """The default context: a statement is always 'releasable' to its owner."""
    return requester == self_name


def rule_shipping_obligations(
    rule: Rule,
    requester: str,
    self_name: str,
) -> Optional[tuple[Literal, ...]]:
    """Obligations for shipping *the rule itself* (the arrow-context ``←_ctx``).

    Returns ``None`` when the rule may never be shipped (default context and
    the requester is not the owner), or the instantiated goal tuple to prove
    (empty for ``←_true``).
    """
    if rule.rule_context is None:
        return () if requester == self_name else None
    bound = bind_pseudovars(rule, requester, self_name)
    assert bound.rule_context is not None
    return tuple(bound.rule_context)
