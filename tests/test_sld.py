"""Unit tests for the SLD engine: resolution, tabling, negation, proofs."""

import pytest

from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.parser import parse_goals, parse_literal, parse_program
from repro.datalog.sld import SLDEngine, canonical_literal, unify_literals
from repro.datalog.substitution import Substitution
from repro.errors import BuiltinError, DepthLimitExceeded

from tests.helpers import answers, ask


class TestBasicResolution:
    def test_fact_lookup(self, engine_for):
        engine = engine_for("freeCourse(cs101). freeCourse(cs102).")
        assert answers(engine, "freeCourse(C)", "C") == {"cs101", "cs102"}

    def test_ground_query_success_failure(self, engine_for):
        engine = engine_for("a(1).")
        assert ask(engine, "a(1)") and not ask(engine, "a(2)")

    def test_rule_chaining(self, engine_for):
        engine = engine_for("a(X) <- b(X). b(X) <- c(X). c(7).")
        assert answers(engine, "a(X)", "X") == {"7"}

    def test_conjunction_joins(self, engine_for):
        engine = engine_for("p(1). p(2). q(2). q(3).")
        solutions = engine.query(parse_goals("p(X), q(X)"))
        assert [str(s.binding("X")) for s in solutions] == ["2"]

    def test_builtin_in_body(self, engine_for):
        engine = engine_for("cheap(C) <- price(C, P), P < 1500. "
                            "price(cs411, 1000). price(cs500, 5000).")
        assert answers(engine, "cheap(C)", "C") == {"cs411"}

    def test_multiple_clauses_backtrack(self, engine_for):
        engine = engine_for("r(X) <- a(X). r(X) <- b(X). a(1). b(2).")
        assert answers(engine, "r(X)", "X") == {"1", "2"}

    def test_unknown_predicate_fails_silently(self, engine_for):
        engine = engine_for("a(1).")
        assert not ask(engine, "nonexistent(X)")

    def test_max_solutions_limits(self, engine_for):
        engine = engine_for("n(1). n(2). n(3). n(4).")
        assert len(engine.query(parse_goals("n(X)"), max_solutions=2)) == 2

    def test_solve_streams(self, engine_for):
        engine = engine_for("n(1). n(2).")
        stream = engine.solve(parse_goals("n(X)"))
        first = next(stream)
        assert str(first.binding("X")) == "1"


class TestAuthorityChains:
    def test_head_chain_must_match(self, engine_for):
        engine = engine_for('student(alice) @ "UIUC".')
        assert ask(engine, 'student(alice) @ "UIUC"')
        assert not ask(engine, "student(alice)")
        assert not ask(engine, 'student(alice) @ "MIT"')

    def test_chain_variables_bind(self, engine_for):
        engine = engine_for('student(alice) @ "UIUC".')
        assert answers(engine, "student(alice) @ U", "U") == {'"UIUC"'}

    def test_unify_literals_checks_chain_length(self):
        left = parse_literal('p(X) @ "A"')
        right = parse_literal('p(a) @ "A" @ "B"')
        assert unify_literals(left, right, Substitution.empty()) is None


class TestRecursionTabling:
    # Recursive call patterns differ per clause ordering:
    # - RIGHT recursion (edge first) changes the first argument each call,
    #   so untabled variant-pruning never fires and answers are complete;
    # - LEFT recursion (path first) re-enters the same call pattern, which
    #   untabled evaluation prunes (losing answers) and tabling completes.
    PATHS = ("edge(a, b). edge(b, c). edge(c, d). "
             "path(X, Y) <- edge(X, Y). "
             "path(X, Y) <- edge(X, Z), path(Z, Y).")
    LEFT_RECURSIVE = ("edge(a, b). edge(b, c). edge(c, d). "
                      "path(X, Y) <- path(X, Z), edge(Z, Y). "
                      "path(X, Y) <- edge(X, Y).")

    def test_right_recursion_untabled(self, engine_for):
        engine = engine_for(self.PATHS, tabled=False)
        assert answers(engine, "path(a, W)", "W") == {"b", "c", "d"}

    def test_left_recursion_needs_tabling(self, engine_for):
        tabled = engine_for(self.LEFT_RECURSIVE, tabled=True)
        assert answers(tabled, "path(a, W)", "W") == {"b", "c", "d"}

    def test_left_recursion_untabled_prunes_but_terminates(self, engine_for):
        engine = engine_for(self.LEFT_RECURSIVE, tabled=False)
        found = answers(engine, "path(a, W)", "W")
        assert found <= {"b", "c", "d"}  # sound but incomplete

    def test_tabled_results_complete_on_cycles(self, engine_for):
        engine = engine_for(
            "edge(a, b). edge(b, a). edge(b, c). "
            "path(X, Y) <- edge(X, Y). "
            "path(X, Y) <- path(X, Z), edge(Z, Y).", tabled=True)
        assert answers(engine, "path(a, W)", "W") == {"a", "b", "c"}


class TestDepthBounds:
    INFINITE = "spin(X) <- spin(wrap(X))."

    def test_depth_cutoff_prunes(self, engine_for):
        engine = engine_for(self.INFINITE, max_depth=40)
        assert not ask(engine, "spin(seed)")
        assert engine.stats.depth_cutoffs > 0

    def test_strict_depth_raises(self, engine_for):
        engine = engine_for(self.INFINITE, max_depth=40, strict_depth=True)
        with pytest.raises(DepthLimitExceeded):
            engine.query(parse_goals("spin(seed)"))


class TestNegation:
    PROGRAM = ("approved(X) <- account(X), not revoked(X). "
               "account(ibm). account(acme). revoked(acme).")

    def test_negation_as_failure(self, engine_for):
        engine = engine_for(self.PROGRAM)
        assert answers(engine, "approved(X)", "X") == {"ibm"}

    def test_negation_floundering_raises(self, engine_for):
        engine = engine_for("bad(X) <- not revoked(X). revoked(acme).")
        with pytest.raises(BuiltinError):
            engine.query(parse_goals("bad(X)"))

    def test_ground_negation_direct(self, engine_for):
        engine = engine_for("revoked(acme).")
        assert ask(engine, "not revoked(ibm)")
        assert not ask(engine, "not revoked(acme)")


class TestProofs:
    def test_fact_proof(self, engine_for):
        engine = engine_for("a(1).")
        solution = engine.query(parse_goals("a(1)"))[0]
        assert solution.proofs[0].kind == "fact"

    def test_rule_proof_has_children(self, engine_for):
        engine = engine_for("a(X) <- b(X), c(X). b(1). c(1).")
        proof = engine.query(parse_goals("a(X)"))[0].proofs[0]
        assert proof.kind == "rule" and len(proof.children) == 2

    def test_builtin_proof(self, engine_for):
        engine = engine_for("ok(X) <- X < 10.")
        proof = engine.query(parse_goals("ok(5)"))[0].proofs[0]
        assert proof.children[0].kind == "builtin"

    def test_proof_goals_are_resolved(self, engine_for):
        engine = engine_for("a(X) <- b(X). b(7).")
        proof = engine.query(parse_goals("a(X)"))[0].proofs[0]
        assert str(proof.goal) == "a(7)"

    def test_signed_rules_collected(self, engine_for):
        engine = engine_for('a(X) <- signedBy ["CA"] b(X). b(1).')
        solution = engine.query(parse_goals("a(X)"))[0]
        assert len(solution.signed_rules()) == 1

    def test_proof_size_and_render(self, engine_for):
        engine = engine_for("a(X) <- b(X). b(1).")
        proof = engine.query(parse_goals("a(X)"))[0].proofs[0]
        assert proof.size() == 2
        assert "a(1)" in proof.render()


class TestRuleTransform:
    def test_transform_applied_before_rename(self, engine_for):
        from repro.policy.pseudovars import binder

        engine = engine_for("greet(Requester) <- known(Requester). known(\"Bob\").")
        engine.rule_transform = binder("Bob", "Server")
        assert ask(engine, 'greet("Bob")')

    def test_without_transform_requester_is_free(self, engine_for):
        engine = engine_for("greet(Requester) <- known(Requester). known(\"Bob\").")
        assert ask(engine, 'greet("Bob")')  # Requester is an ordinary variable


class TestCanonicalLiteral:
    def test_variant_literals_share_keys(self):
        assert (canonical_literal(parse_literal("p(X, Y)"))
                == canonical_literal(parse_literal("p(A, B)")))

    def test_shared_variables_differ(self):
        assert (canonical_literal(parse_literal("p(X, X)"))
                != canonical_literal(parse_literal("p(A, B)")))

    def test_authority_in_key(self):
        assert (canonical_literal(parse_literal('p(a) @ "U"'))
                != canonical_literal(parse_literal("p(a)")))

    def test_negation_in_key(self):
        assert (canonical_literal(parse_literal("not p(a)"))
                != canonical_literal(parse_literal("p(a)")))


class TestStats:
    def test_resolution_and_builtin_counters(self, engine_for):
        engine = engine_for("a(X) <- b(X), X < 5. b(1). b(9).")
        engine.query(parse_goals("a(X)"))
        assert engine.stats.resolutions >= 3
        assert engine.stats.builtin_calls >= 2
