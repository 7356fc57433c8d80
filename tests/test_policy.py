"""Pseudo-variable, release-policy, and UniPro tests."""

import pytest

from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.parser import parse_goals, parse_literal, parse_program, parse_rule
from repro.errors import PolicyError
from repro.policy.pseudovars import (
    REQUESTER,
    SELF,
    bind_pseudovars,
    bind_pseudovars_in_literal,
    binder,
    mentions_pseudovars,
)
from repro.policy.release import (
    credential_release_decisions,
    release_obligations,
    rule_shipping_obligations,
)
from repro.policy.unipro import UniProRegistry


class TestPseudovars:
    def test_bind_rule(self):
        rule = parse_rule("greet(Requester) <- known(Requester), here(Self).")
        bound = bind_pseudovars(rule, "Bob", "Server")
        assert str(bound.head) == 'greet("Bob")'
        assert 'here("Server")' in str(bound)

    def test_bind_literal(self):
        literal = parse_literal('member(Requester) @ "ELENA" @ Requester')
        bound = bind_pseudovars_in_literal(literal, "E-Learn", "Bob")
        assert str(bound) == 'member("E-Learn") @ "ELENA" @ "E-Learn"'

    def test_binder_is_reusable(self):
        transform = binder("Bob", "Server")
        rule = parse_rule("a(Requester) <- b(Self).")
        assert str(transform(rule).head) == 'a("Bob")'

    def test_rule_without_pseudovars_is_returned_as_is(self):
        rule = parse_rule("a(X) <- b(X).")
        assert bind_pseudovars(rule, "Bob", "Server") is rule
        assert binder("Bob", "Server")(rule) is rule

    def test_mentions(self):
        assert mentions_pseudovars(parse_rule("a(Requester) <- b(X)."))
        assert mentions_pseudovars(parse_rule("a(X) <- b(Self)."))
        assert not mentions_pseudovars(parse_rule("a(X) <- b(X)."))

    def test_other_variables_untouched(self):
        rule = parse_rule("a(Requester, X) <- b(X).")
        bound = bind_pseudovars(rule, "R", "S")
        assert "X" in str(bound)


class TestReleaseObligations:
    def kb(self, source):
        return KnowledgeBase(parse_program(source))

    def test_no_policy_means_default_deny(self):
        base = self.kb("a(1).")
        assert release_obligations(base, parse_literal("a(1)"),
                                   "R", "S") == []

    def test_guard_instantiated_with_requester(self):
        base = self.kb(
            'student(X) @ Y $ member(Requester) @ "BBB" @ Requester '
            "<-{true} student(X) @ Y.")
        decisions = release_obligations(
            base, parse_literal('student("Alice") @ "UIUC"'), "E-Learn", "Alice")
        assert len(decisions) == 1
        goals = decisions[0].goals
        assert len(goals) == 1  # body filtered (restates the released literal)
        assert str(goals[0]) == 'member("E-Learn") @ "BBB" @ "E-Learn"'

    def test_dollar_true_unconditional(self):
        base = self.kb("c(X) $ true <-{true} c(X).")
        decisions = release_obligations(base, parse_literal("c(1)"), "R", "S")
        assert decisions and decisions[0].unconditional

    def test_equality_guard_filtered_when_satisfied(self):
        base = self.kb("d(C, P) $ Requester = P <- d(C, P).")
        decisions = release_obligations(
            base, parse_literal('d(cs101, "Alice")'), "Alice", "E-Learn")
        assert decisions and decisions[0].unconditional

    def test_equality_guard_drops_on_mismatch(self):
        base = self.kb("d(C, P) $ Requester = P <- d(C, P).")
        decisions = release_obligations(
            base, parse_literal('d(cs101, "Alice")'), "Mallory", "E-Learn")
        assert decisions == []

    def test_head_mismatch_no_decision(self):
        base = self.kb("c(X) $ true <-{true} c(X).")
        assert release_obligations(base, parse_literal("other(1)"), "R", "S") == []

    def test_extra_body_conditions_kept(self):
        base = self.kb("c(X) $ g(Requester) <-{true} c(X), extra(X).")
        decisions = release_obligations(base, parse_literal("c(1)"), "R", "S")
        predicates = [goal.predicate for goal in decisions[0].goals]
        assert predicates == ["g", "extra"]


class TestCredentialDecisions:
    def test_bare_head_matches_chained_policy(self, keys_for):
        from repro.credentials.credential import issue_credential

        base = KnowledgeBase(parse_program(
            'visa(X) @ Y $ true <-{true} visa(X) @ Y.'))
        credential = issue_credential(
            parse_rule('visa("IBM") signedBy ["VISA"].'), keys_for("VISA"))
        assert credential_release_decisions(base, credential, "R", "S")

    def test_bare_policy_matches_bare_head(self, keys_for):
        from repro.credentials.credential import issue_credential

        base = KnowledgeBase(parse_program(
            'visa("IBM") $ true <-{true} visa("IBM").'))
        credential = issue_credential(
            parse_rule('visa("IBM") signedBy ["VISA"].'), keys_for("VISA"))
        assert credential_release_decisions(base, credential, "R", "S")


class TestRuleShipping:
    def test_default_context_never_ships(self):
        rule = parse_rule("secret(X) <- a(X).")
        assert rule_shipping_obligations(rule, "R", "S") is None
        assert rule_shipping_obligations(rule, "S", "S") == ()

    def test_public_rule_ships_unconditionally(self):
        rule = parse_rule("open(X) <-{true} a(X).")
        assert rule_shipping_obligations(rule, "R", "S") == ()

    def test_guarded_context_instantiates(self):
        rule = parse_rule("guarded(X) <-{m(Requester)} a(X).")
        obligations = rule_shipping_obligations(rule, "R", "S")
        assert obligations is not None
        assert str(obligations[0]) == 'm("R")'


class TestUniPro:
    def definition(self):
        return parse_program(
            "policy27(Requester) <- merchant(Requester), member(Requester).")

    def test_register_and_get(self):
        registry = UniProRegistry()
        registry.register("policy27", self.definition(),
                          protection=parse_goals('member(Requester) @ "ELENA"'))
        policy = registry.get("policy27")
        assert policy.is_disclosable
        assert registry.knows("policy27")
        assert registry.names() == ["policy27"]

    def test_wrong_head_rejected(self):
        registry = UniProRegistry()
        with pytest.raises(PolicyError):
            registry.register("policy99", self.definition())

    def test_empty_definition_rejected(self):
        registry = UniProRegistry()
        with pytest.raises(PolicyError):
            registry.register("p", [])

    def test_unknown_policy_raises(self):
        with pytest.raises(PolicyError):
            UniProRegistry().get("ghost")

    def test_disclosed_rules_strip_contexts(self):
        registry = UniProRegistry()
        rules = parse_program("p(X) <-{m(Requester)} q(X).")
        registry.register("p", rules, protection=())
        shipped = registry.get("p").disclosed_rules()
        assert shipped[0].rule_context is None

    def test_undisclosable_policy(self):
        registry = UniProRegistry()
        registry.register("p", parse_program("p(X) <- q(X)."), protection=None)
        assert registry.protection_goals("p") is None
        assert not registry.get("p").is_disclosable

    def test_register_from_kb(self):
        base = KnowledgeBase(parse_program("p(X) <- q(X). p(X) <- r(X). s(1)."))
        registry = UniProRegistry()
        policy = registry.register_from_kb(base, "p", 1, protection=())
        assert len(policy.definition) == 2

    def test_register_from_kb_missing(self):
        registry = UniProRegistry()
        with pytest.raises(PolicyError):
            registry.register_from_kb(KnowledgeBase(), "p", 1)

    def test_protection_cycle_detected(self):
        registry = UniProRegistry()
        registry.register("p1", parse_program("p1(X) <- a(X)."),
                          protection=parse_goals("p2(Requester)"))
        registry.register("p2", parse_program("p2(X) <- b(X)."),
                          protection=parse_goals("p1(Requester)"))
        with pytest.raises(PolicyError):
            registry.validate()

    def test_acyclic_protection_validates(self):
        registry = UniProRegistry()
        registry.register("p1", parse_program("p1(X) <- a(X)."),
                          protection=parse_goals("p2(Requester)"))
        registry.register("p2", parse_program("p2(X) <- b(X)."), protection=())
        registry.validate()
