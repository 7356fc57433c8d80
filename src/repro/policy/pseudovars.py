"""The ``Requester`` and ``Self`` pseudo-variables.

§3.1: "Requester is a pseudovariable whose value is automatically set to the
party that Alice is trying to send the literal or rule [to]" and "'Self' is
a pseudovariable whose value is a distinguished name of the local peer."

Operationally: whenever a peer evaluates rules on behalf of an incoming
query, every occurrence of the variable named ``Requester`` is bound to the
querying peer's name and every ``Self`` to the local peer's name *before*
the rule is renamed apart (renaming later would sever the linkage).  The
negotiation engine installs :func:`binder` as the SLD engine's
``rule_transform``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Iterable

from repro.datalog.ast import Literal, Rule
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Variable

REQUESTER = Variable("Requester")
SELF = Variable("Self")


@lru_cache(maxsize=4096)  # substitutions are persistent: share one per pair
def _binding(requester: str, self_name: str) -> Substitution:
    return (
        Substitution.empty()
        .bind(REQUESTER, Constant(requester, quoted=True))
        .bind(SELF, Constant(self_name, quoted=True))
    )


def bind_pseudovars(rule: Rule, requester: str, self_name: str) -> Rule:
    """``rule`` with Requester/Self replaced by the given peer names; the
    rule itself when it mentions neither."""
    if not mentions_pseudovars(rule):
        return rule
    return rule.apply(_binding(requester, self_name))


def bind_pseudovars_in_literal(literal: Literal, requester: str, self_name: str) -> Literal:
    return literal.apply(_binding(requester, self_name))


def bind_pseudovars_in_goals(
    goals: Iterable[Literal], requester: str, self_name: str
) -> tuple[Literal, ...]:
    binding = _binding(requester, self_name)
    return tuple(goal.apply(binding) for goal in goals)


def binder(requester: str, self_name: str) -> Callable[[Rule], Rule]:
    """A rule transform suitable for ``SLDEngine(rule_transform=...)``."""
    return partial(bind_pseudovars, requester=requester, self_name=self_name)


def mentions_pseudovars(rule: Rule) -> bool:
    """True when the rule references Requester or Self anywhere."""
    variables = rule.variables()
    return REQUESTER in variables or SELF in variables
