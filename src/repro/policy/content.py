"""Content-triggered trust negotiation (§6, after Hess & Seamons [6]).

The paper's closing direction: "Semantic Web access control policies must
support an intensional specification of the resources and types of access
affected by a policy, e.g., as a query over the relevant resource
attributes ('the ability to print color documents on all printers on the
third floor')."

A :class:`ContentPolicy` is exactly that: an *action*, a *selector* (a
query over resource-attribute facts picking out the protected set), and
*requirements* (what the requester must prove, with the usual ``Requester``
pseudo-variable).  Policies compile into ordinary PeerTrust release rules
over a synthetic ``access(action, Resource, Requester)`` resource predicate,
so the entire negotiation machinery — counter-queries, credentials,
certified proofs — applies unchanged.

Content-*triggered* means coverage is decided by the resource's attributes
at request time: add a new printer with ``location(p9, floor3)`` and it is
covered by the floor-3 policy with no policy edit.

When several policies cover the same (action, resource), the registry's
``combining`` mode decides:

- ``"any"`` (default) — satisfying any one covering policy grants access
  (policies are alternative tickets);
- ``"all"`` — every covering policy's requirements must hold (policies are
  cumulative restrictions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.datalog.ast import Literal, Rule
from repro.datalog.parser import parse_goals
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.negotiation.peer import Peer

ACCESS_PREDICATE = "access"


@dataclass(frozen=True, slots=True)
class ContentPolicy:
    """An intensional access policy.

    ``selector`` and ``requirements`` may share the resource variable;
    ``requirements`` typically mention ``Requester``.
    """

    name: str
    action: str
    resource_var: Variable
    selector: tuple[Literal, ...]
    requirements: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.selector:
            raise PolicyError(
                f"content policy {self.name!r} has an empty selector — it "
                "would cover every resource; write that intent explicitly "
                "with a tautological selector instead")
        selector_vars = set()
        for goal in self.selector:
            selector_vars |= goal.variables()
        if self.resource_var not in selector_vars:
            raise PolicyError(
                f"content policy {self.name!r}: the selector never "
                f"constrains the resource variable {self.resource_var}")

    def compile(self) -> Rule:
        """The equivalent PeerTrust release rule:

        ``access(action, R, Requester) $ requirements <- selector.``
        """
        head = Literal(ACCESS_PREDICATE, (
            Constant(self.action),
            self.resource_var,
            Variable("Requester"),
        ))
        return Rule(head, self.selector, guard=self.requirements)

    @staticmethod
    def parse(name: str, action: str, resource_var: str,
              selector: str, requirements: str) -> "ContentPolicy":
        """Build a policy from source-text fragments."""
        return ContentPolicy(
            name=name,
            action=action,
            resource_var=Variable(resource_var),
            selector=parse_goals(selector),
            requirements=parse_goals(requirements),
        )


class ContentPolicyRegistry:
    """A peer's catalogue of content policies over one attribute KB."""

    def __init__(self, combining: str = "any") -> None:
        if combining not in ("any", "all"):
            raise ValueError(f"unknown combining mode {combining!r}")
        self.combining = combining
        self._policies: dict[str, ContentPolicy] = {}
        self._installed_rules: dict[str, Rule] = {}
        self._peer: Optional["Peer"] = None

    # -- authoring ---------------------------------------------------------------

    def add(self, policy: ContentPolicy) -> None:
        if policy.name in self._policies:
            raise PolicyError(f"content policy {policy.name!r} already exists")
        self._policies[policy.name] = policy
        if self._peer is not None:
            self._install_one(policy)

    def names(self) -> list[str]:
        return sorted(self._policies)

    def get(self, name: str) -> ContentPolicy:
        policy = self._policies.get(name)
        if policy is None:
            raise PolicyError(f"unknown content policy {name!r}")
        return policy

    def remove(self, name: str) -> None:
        policy = self._policies.pop(name, None)
        if policy is None:
            raise PolicyError(f"unknown content policy {name!r}")
        rule = self._installed_rules.pop(name, None)
        if self._peer is not None and rule is not None:
            self._peer.kb.remove(rule)

    # -- installation ------------------------------------------------------------------

    def install(self, peer: "Peer") -> None:
        """Attach to ``peer``.

        ``any`` mode compiles each policy into an ordinary release rule —
        the standard negotiation machinery grants on any satisfied policy.
        ``all`` mode instead registers a query hook that merges the
        requirements of *every* covering policy into one conjunction, so a
        single satisfied policy is not enough.
        """
        if self._peer is not None:
            raise PolicyError("registry is already installed on a peer")
        self._peer = peer
        for policy in self._policies.values():
            self._install_one(policy)
        if self.combining == "all":
            peer.query_hooks.append(self._all_mode_hook)
        peer.content_policies = self  # type: ignore[attr-defined]

    def _install_one(self, policy: ContentPolicy) -> None:
        assert self._peer is not None
        if self.combining != "any":
            return  # "all" mode grants exclusively through the query hook
        rule = policy.compile()
        self._installed_rules[policy.name] = rule
        self._peer.kb.add(rule)

    def _all_mode_hook(self, goal: Literal, requester: str, session):
        """Query hook for ``all`` combining: grant ``access(action, R, Req)``
        only when the merged requirements of every covering policy hold.
        A step generator (proving may query other peers); returns the list
        of answer items."""
        from repro.net.message import AnswerItem
        from repro.negotiation.engine import EvalContext

        assert self._peer is not None
        peer = self._peer
        if goal.predicate != ACCESS_PREDICATE or goal.arity != 3 or goal.authority:
            return []
        action_term, resource, holder = goal.args
        if not isinstance(action_term, Constant) or not resource.is_constant():
            return []  # 'all' mode answers ground resource requests only
        action = str(action_term.value)
        requirement_sets = self.requirements_for(action, resource, requester)
        if requirement_sets is None:
            session.log("deny", peer.name, requester,
                        f"no content policy covers {resource}")
            return []
        context = EvalContext(
            peer=peer,
            session=session,
            requester=requester,
            kb=peer.kb,
            stores=[peer.credentials, session.received_for(peer.name)],
            allow_remote=True,
        )
        for goals in requirement_sets:  # single merged set in 'all' mode
            session.counters["release_checks"] += 1
            proof = yield from context.prove_steps(goals)
            if proof is None:
                return []
        answered = goal
        answer_credential = (peer.self_credential(answered)
                             if answered.is_ground() else None)
        return [AnswerItem(bindings={}, credentials=(),
                           answer_credential=answer_credential,
                           answered_literal=answered)]

    # -- coverage queries ---------------------------------------------------------------

    def covering_policies(self, action: str, resource: Term) -> list[ContentPolicy]:
        """Which policies cover ``resource`` for ``action``, per the
        attribute facts currently in the peer's KB (the content trigger)."""
        if self._peer is None:
            raise PolicyError("registry is not installed on a peer")
        from repro.datalog.sld import SLDEngine
        from repro.datalog.substitution import Substitution
        from repro.datalog.unify import unify

        engine = SLDEngine(self._peer.kb, builtins=self._peer.builtins)
        covering = []
        for policy in self._policies.values():
            if policy.action != action:
                continue
            bound = unify(policy.resource_var, resource, Substitution.empty())
            if bound is None:
                continue
            renamed_goals = tuple(g.apply(bound) for g in policy.selector)
            if engine.query(renamed_goals, max_solutions=1):
                covering.append(policy)
        return covering

    def requirements_for(self, action: str, resource: Term,
                         requester: str) -> Optional[list[tuple[Literal, ...]]]:
        """The requirement sets a requester must satisfy.

        ``None`` means no policy covers the resource (default-deny).  In
        ``any`` mode the list holds alternatives (prove one); in ``all``
        mode it holds a single merged conjunction (prove everything).
        """
        from repro.policy.pseudovars import bind_pseudovars_in_goals
        from repro.datalog.substitution import Substitution
        from repro.datalog.unify import unify

        covering = self.covering_policies(action, resource)
        if not covering:
            return None
        assert self._peer is not None
        requirement_sets = []
        for policy in covering:
            bound = unify(policy.resource_var, resource, Substitution.empty())
            assert bound is not None
            goals = tuple(g.apply(bound) for g in policy.requirements)
            requirement_sets.append(
                bind_pseudovars_in_goals(goals, requester, self._peer.name))
        if self.combining == "all":
            merged = tuple(g for goals in requirement_sets for g in goals)
            return [merged]
        return requirement_sets
