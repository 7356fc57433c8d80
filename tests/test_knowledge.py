"""Unit tests for the indexed knowledge base."""

from repro.datalog.ast import Literal
from repro.datalog.knowledge import KnowledgeBase, _rule_variant
from repro.datalog.parser import parse_literal, parse_program, parse_rule
from repro.datalog.terms import atom, var


def build(source: str) -> KnowledgeBase:
    return KnowledgeBase(parse_program(source))


class TestAddLookup:
    def test_rules_for_uses_indicator(self):
        base = build("a(1). a(2). b(1).")
        assert len(list(base.rules_for(parse_literal("a(X)")))) == 2

    def test_arity_distinguishes(self):
        base = build("p(1). p(1, 2).")
        assert len(list(base.rules_for(parse_literal("p(X)")))) == 1

    def test_first_argument_indexing_narrows(self):
        base = build("a(1, x). a(2, y). a(3, z). a(X, w) <- t(X).")
        candidates = list(base.rules_for(parse_literal("a(2, W)")))
        heads = [str(rule.head) for rule in candidates]
        assert "a(2, y)" in heads
        assert "a(1, x)" not in heads
        assert any(not rule.is_fact for rule in candidates)  # rule kept

    def test_unbound_first_arg_scans_all(self):
        base = build("a(1, x). a(2, y).")
        assert len(list(base.rules_for(parse_literal("a(X, W)")))) == 2

    def test_program_order_preserved(self):
        base = build("a(2). a(1). a(3).")
        heads = [str(rule.head) for rule in base.rules_for(parse_literal("a(X)"))]
        assert heads == ["a(2)", "a(1)", "a(3)"]

    def test_load_parses_and_adds(self):
        base = KnowledgeBase()
        added = base.load("a(1). b(X) <- a(X).")
        assert len(added) == 2 and len(base) == 2

    def test_program_order_across_indexed_and_unindexed(self):
        # Indexed facts (constant first argument) interleaved with rules and
        # var-first facts; the candidate merge must reproduce program order,
        # not "indexed first, then unindexed".
        base = build(
            "a(1, first). a(X, second) <- t(X). a(1, third). "
            "a(Y, fourth). a(1, fifth).")
        heads = [str(rule.head) for rule in base.rules_for(parse_literal("a(1, W)"))]
        assert heads == [
            "a(1, first)", "a(X, second)", "a(1, third)",
            "a(Y, fourth)", "a(1, fifth)"]


class TestReleaseSeparation:
    def test_release_policies_not_in_content(self):
        base = build("r(X) $ true <- c(X).\nr(X) <- d(X).")
        assert len(list(base.rules_for(parse_literal("r(X)")))) == 1
        assert len(base.release_policies_for(parse_literal("r(X)"))) == 1

    def test_release_policies_iterator(self):
        base = build("r(X) $ true <- c(X).\na(1).")
        assert len(list(base.release_policies())) == 1
        assert len(list(base.content_rules())) == 1


class TestRemoval:
    def test_remove_fact(self):
        rule = parse_rule("a(1).")
        base = KnowledgeBase([rule])
        assert base.remove(rule)
        assert len(base) == 0
        assert not base.remove(rule)

    def test_remove_reindexes(self):
        base = build("a(1). a(2).")
        base.remove(parse_rule("a(1)."))
        assert [str(r.head) for r in base.rules_for(parse_literal("a(2)"))] == ["a(2)"]

    def test_remove_release_policy(self):
        rule = parse_rule("r(X) $ true <- c(X).")
        base = KnowledgeBase([rule])
        assert base.remove(rule) and len(base) == 0


class TestIntrospection:
    def test_predicates(self):
        base = build("a(1). b(1, 2). r(X) $ true <- c(X).")
        assert ("a", 1) in base.predicates()
        assert ("r", 1) in base.predicates()

    def test_has_predicate(self):
        base = build("a(1).")
        assert base.has_predicate(("a", 1))
        assert not base.has_predicate(("a", 2))

    def test_signed_rules(self):
        base = build('a(1) signedBy ["CA"]. b(1).')
        assert len(list(base.signed_rules())) == 1

    def test_facts_filter(self):
        base = build("a(1). a(X) <- b(X). b(2).")
        assert len(list(base.facts(("a", 1)))) == 1

    def test_copy_independent(self):
        base = build("a(1).")
        duplicate = base.copy()
        duplicate.load("a(2).")
        assert len(base) == 1 and len(duplicate) == 2

    def test_filtered(self):
        base = build("a(1). b(2).")
        only_a = base.filtered(lambda rule: rule.head.predicate == "a")
        assert len(only_a) == 1

    def test_contains(self):
        rule = parse_rule("a(1).")
        base = KnowledgeBase([rule])
        assert rule in base
        assert parse_rule("a(2).") not in base


class TestVariants:
    def test_contains_variant_up_to_renaming(self):
        base = build("p(X) <- q(X).")
        assert base.contains_variant(parse_rule("p(Y) <- q(Y)."))
        assert not base.contains_variant(parse_rule("p(Y) <- q(Z)."))

    def test_rule_variant_checks_guard(self):
        left = parse_rule("r(X) $ g(X) <- b(X).")
        right = parse_rule("r(Y) $ g(Y) <- b(Y).")
        different = parse_rule("r(Y) $ h(Y) <- b(Y).")
        assert _rule_variant(left, right)
        assert not _rule_variant(left, different)

    def test_rule_variant_distinguishes_contexts(self):
        public = parse_rule("a(X) <-{true} b(X).")
        private = parse_rule("a(X) <- b(X).")
        assert not _rule_variant(public, private)

    def test_rule_variant_distinguishes_signers(self):
        signed = parse_rule('a(X) signedBy ["CA"].')
        unsigned = parse_rule("a(X).")
        assert not _rule_variant(signed, unsigned)
