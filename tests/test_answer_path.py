"""The answer path's work, counted from outside the program.

Three savings on the path a remote answer takes, none of which may change
what a negotiation concludes:

- a ground remote answer is certified once per session; the same answer
  arriving again reuses the stored evidence proof, and a crashed peer
  forgets its certifications with its overlay;
- a clause whose head authority chain differs in length from the goal's is
  skipped before it is renamed apart (it could never unify);
- a ground proof goal stands for its query goal instantiated by the
  solution, since substitutions only grow along a derivation.

Counts come from wrapping program functions in the test, the way
``perfbench/layers.py`` wraps layer entry points; the program keeps no
counter for them.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datalog import sld
from repro.datalog.ast import Literal, Rule
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.parser import parse_goals, parse_literal, parse_program
from repro.datalog.sld import SLDEngine, answered_goal
from repro.datalog.terms import Constant, Variable
from repro.determinism import reset_all
from repro.negotiation import engine as engine_module
from repro.negotiation.session import Session
from repro.net.message import QueryMessage
from repro.storage.recovery import restart_peer
from repro.workloads.generator import build_mutual_membership_workload

KEY_BITS = 512


@pytest.fixture
def counted(monkeypatch):
    """Counts certifications per certifying peer, and clause heads that
    reached unification with an authority chain of the wrong length."""
    counts: Counter = Counter()
    derive = engine_module.EvalContext.derive_evidence
    unify_literals = sld.unify_literals

    def counting_derive(context, goal):
        counts["certifications"] += 1
        counts[f"certifications:{context.peer.name}"] += 1
        return derive(context, goal)

    def counting_unify(goal, head, subst):
        if len(goal.authority) != len(head.authority):
            counts["wrong_chain_unifications"] += 1
        return unify_literals(goal, head, subst)

    monkeypatch.setattr(engine_module.EvalContext, "derive_evidence",
                        counting_derive)
    monkeypatch.setattr(sld, "unify_literals", counting_unify)
    return counts


_FRESH = re.compile(r"_([A-Za-z][A-Za-z0-9]*)_\d+")


def _observed(result) -> dict:
    """What a negotiation concluded: answers, the credential serials of
    every tabled answer's proof, and the transcript (fresh-variable numbers
    masked)."""
    session = result.session
    return {
        "answers": [(str(literal), {name: str(value) for name, value
                                    in sorted(bindings.items())})
                    for literal, bindings in result.answers],
        "proof_serials": [
            (owner, str(answered),
             [c.serial for proof in solution.proofs
              for c in proof.credentials()])
            for (owner, _key), node in session.tables.items()
            for answered, solution in node.answers.values()],
        "transcript": [_FRESH.sub(r"_\1_N", str(event))
                       for event in session.transcript],
    }


def _mutual_membership_run():
    reset_all()
    workload = build_mutual_membership_workload(2, key_bits=KEY_BITS)
    result = workload.run()
    assert result.granted and len(result.answers) == 6
    return result


class TestCertifiedOncePerSession:
    def test_repeated_answers_reuse_their_certification(self, counted,
                                                        monkeypatch):
        result = _mutual_membership_run()
        assert counted["certifications"] == 36
        assert counted["wrong_chain_unifications"] == 0

        # Re-deriving every arrival certifies 63 times and concludes the
        # same: answers, proof credentials and transcript.
        counted.clear()
        monkeypatch.setattr(Session, "certified", lambda self, key: None)
        rederived = _mutual_membership_run()
        assert counted["certifications"] == 63
        assert _observed(result) == _observed(rederived)

    def test_crashed_peer_certifies_again(self, counted):
        reset_all()
        workload = build_mutual_membership_workload(2, key_bits=KEY_BITS)
        world = workload.world
        transport = world.transport
        world.attach_state_stores("memory")
        # Keep the session live so the query can be asked again in it.
        transport.release_session = lambda session_id: None
        try:
            result = workload.run()
            assert counted["certifications:Org0a"] > 0
            query = QueryMessage(sender=workload.requester.name,
                                 receiver=workload.provider_name,
                                 session_id=result.session.id,
                                 goal=workload.goal)

            # The provider's complete table serves the repeat: nothing is
            # evaluated, so nothing is certified.
            counted.clear()
            assert len(transport.request(query).items) == 6
            assert counted["certifications"] == 0

            # Restarted, the provider evaluates again from a cleared
            # overlay, and certifies what it is told afresh.
            restart_peer(transport, "Org0a")
            counted.clear()
            assert len(transport.request(query).items) == 6
            assert counted["certifications:Org0a"] > 0
        finally:
            world.detach_state_stores()


MIXED_CHAINS = """
    p(X) <- q(X).
    p(X) @ "A" <- r(X).
    p("c") @ "A" @ "B".
    p("d").
    q("a").
    r("b").
"""


class TestAuthorityChainFilter:
    def _proofs(self, solution):
        return [proof.render() for proof in solution.proofs]

    @pytest.mark.parametrize("goal, expected, resolutions", [
        # Two of p's four heads have no authority, plus q's one clause.
        ("p(X)", [('p("a")', ['p("a")  [rule]\n  q("a")  [fact]']),
                  ('p("d")', ['p("d")  [fact]'])], 3),
        ('p(X) @ "A"', [('p("b") @ "A"',
                         ['p("b") @ "A"  [rule]\n  r("b")  [fact]'])], 2),
        ('p(X) @ "A" @ "B"', [('p("c") @ "A" @ "B"',
                               ['p("c") @ "A" @ "B"  [fact]'])], 1),
    ])
    def test_mixed_heads_give_the_same_solutions_and_proofs(
            self, goal, expected, resolutions, counted):
        engine = SLDEngine(KnowledgeBase(parse_program(MIXED_CHAINS)))
        query = parse_literal(goal)
        solutions = engine.query([query])
        assert [(str(query.apply(solution.subst)), self._proofs(solution))
                for solution in solutions] == expected
        assert engine.stats.resolutions == resolutions
        assert counted["wrong_chain_unifications"] == 0


# -- ground proof goals stand for their instantiated query goals ---------------

PREDICATES = [("p", 1), ("q", 2), ("r", 1)]
_constant = st.sampled_from([Constant("a", quoted=True),
                             Constant("b", quoted=True), Constant("c")])
_variable = st.sampled_from([Variable("X"), Variable("Y"), Variable("Z")])
_term = st.one_of(_constant, _variable)
_chain = st.lists(st.just(Constant("A", quoted=True)), max_size=1)


@st.composite
def literals(draw):
    predicate, arity = draw(st.sampled_from(PREDICATES))
    return Literal(predicate, tuple(draw(_term) for _ in range(arity)),
                   tuple(draw(_chain)))


@st.composite
def rules(draw):
    return Rule(draw(literals()), tuple(draw(st.lists(literals(),
                                                      max_size=2))))


@st.composite
def conjunctions(draw):
    """One to two goals, sometimes followed by an equality that binds a
    variable an earlier goal left open."""
    goals = draw(st.lists(literals(), min_size=1, max_size=2))
    open_vars = sorted({v for goal in goals for v in goal.variables()},
                       key=lambda v: v.name)
    if open_vars and draw(st.booleans()):
        goals.append(Literal("=", (draw(st.sampled_from(open_vars)),
                                   draw(_constant))))
    return goals


def _check_answered_goals(goals, solutions):
    for solution in solutions:
        for goal, proof in zip(goals, solution.proofs, strict=True):
            instance = goal.apply(solution.subst)
            if proof.goal.is_ground():
                assert proof.goal == instance
            assert answered_goal(goal, proof, solution.subst) == instance


@settings(max_examples=200, deadline=None)
@given(program=st.lists(rules(), max_size=6), goals=conjunctions(),
       tabled=st.booleans())
@example(program=[Rule(parse_literal('q(Z, "b")'))],
         goals=list(parse_goals('q(X, Y), X = "a"')), tabled=False)
def test_ground_proof_goal_is_the_instantiated_goal(program, goals, tabled):
    engine = SLDEngine(KnowledgeBase(program), max_depth=6, tabled=tabled)
    if tabled:
        solutions = engine.query(goals)
    else:
        solutions = list(islice(engine.solve(goals), 50))
    _check_answered_goals(goals, solutions)


def test_later_goal_binding_an_earlier_variable_falls_back_to_apply():
    engine = SLDEngine(KnowledgeBase(parse_program('q(Z, "b").')))
    goals = parse_goals('q(X, Y), X = "a"')
    [solution] = engine.query(goals)
    proof = solution.proofs[0]
    # The fact left X open when q's proof was built; the equality bound
    # it afterwards, so the proof goal is not the answer.
    assert not proof.goal.is_ground()
    assert answered_goal(goals[0], proof, solution.subst) == \
        parse_literal('q("a", "b")')
