"""The signedBy axiom's credential lookup against the loop it replaced.

``EvalContext`` reaches a goal's credentials through
``CredentialStore.vouching_for``, which filters on each credential's cached
statement (``Credential.statement``) before anything is renamed.  The
reference below is the earlier per-candidate loop: rename every candidate of
the goal's indicator apart, attribute a bare head to the primary issuer,
reject a head that names a foreign authority, then unify.  Hypothesis drives
random wallets, overlays and goals through both; every goal must yield the
same sequence of (resolved goal, credential serials) with interning on and
off.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import World, parse_literal
from repro.credentials.credential import Credential, compute_serial
from repro.credentials.store import CredentialStore
from repro.datalog.ast import Literal, Rule
from repro.datalog.builtins import BuiltinRegistry
from repro.datalog.sld import ProofNode, canonical_literal, unify_literals
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Compound, Constant, Variable, set_interning
from repro.errors import CredentialError
from repro.negotiation.engine import EvalContext, evidence_context
from repro.negotiation.session import Session
from repro.storage import recovery

KEY_BITS = 512
PRINCIPALS = ["A", "B", "C"]
PREDICATES = [("p", 1), ("q", 2)]


class ReferenceLoop(EvalContext):
    """An evaluation context that resolves credentials the earlier way."""

    def _credential_solutions(self, goal, subst, depth):
        seen_serials: set[str] = set()
        for store in self.stores:
            candidates = [c for c in store.credentials()
                          if c.rule.head.indicator == goal.indicator]
            for credential in candidates:
                if credential.serial in seen_serials:
                    continue
                seen_serials.add(credential.serial)
                yield from self._reference_one(goal, subst, depth, credential)

    def _reference_one(self, goal, subst, depth, credential):
        try:
            issuer = credential.primary_issuer
        except CredentialError:
            return
        renamed = credential.rule.rename_apart()
        head = renamed.head
        if not head.authority:
            head = Literal(head.predicate, head.args,
                           (Constant(issuer, quoted=True),))
        innermost = head.authority[0]
        if not (isinstance(innermost, Constant)
                and innermost.value == issuer):
            return
        head_subst = unify_literals(goal, head, subst)
        if head_subst is None:
            return
        if not renamed.body:
            yield head_subst, ProofNode(goal.apply(head_subst), "credential",
                                        rule=credential.rule,
                                        credential=credential)
            return
        # Evidence mode never goes remote, so nothing suspends.
        for body_subst, proofs in self.solve_goals(renamed.body, head_subst,
                                                   depth + 1):
            yield body_subst, ProofNode(goal.apply(body_subst), "credential",
                                        rule=credential.rule,
                                        children=proofs,
                                        credential=credential)


# -- builder-independent specs -------------------------------------------------

_string = st.tuples(st.just("constant"),
                    st.sampled_from(["a", "b", *PRINCIPALS]), st.just(True))
_atom = st.tuples(st.just("constant"), st.sampled_from(["a", *PRINCIPALS]),
                  st.just(False))
_variable = st.tuples(st.just("variable"), st.sampled_from(["X", "Y"]))
_constant = st.one_of(_string, _string, _atom)
_term = st.one_of(_constant, _constant, _variable,
                  st.tuples(st.just("compound"), st.one_of(_constant,
                                                           _variable)))
_principal = st.tuples(st.just("constant"), st.sampled_from(PRINCIPALS),
                       st.just(True))
# Authorities are mostly principal names, sometimes unbound or an atom.
_authority = st.one_of(_principal, _principal, _principal, _atom, _variable)
_signers = st.one_of(
    st.lists(_principal, min_size=1, max_size=2),
    st.lists(_principal, min_size=1, max_size=2),
    st.just([]),
    st.lists(st.one_of(_principal, _variable), min_size=1, max_size=2))


@st.composite
def literal_spec(draw, min_authority=0):
    predicate, arity = draw(st.sampled_from(PREDICATES))
    args = tuple(draw(_term) for _ in range(arity))
    authority = tuple(draw(st.lists(_authority, min_size=min_authority,
                                    max_size=2)))
    return predicate, args, authority


@st.composite
def rule_spec(draw):
    """Bare and chained heads, foreign authorities, non-ground delegation
    bodies, multi-signer and signer-less rules."""
    signers = tuple(draw(_signers))
    predicate, args, authority = draw(literal_spec())
    shape = draw(st.sampled_from(["bare", "chain", "chain", "any"]))
    if shape == "bare":
        authority = ()
    elif shape == "chain" and signers:
        authority = (signers[0], *authority[:draw(st.integers(0, 1))])
    body = ()
    if draw(st.integers(0, 2)) == 0:
        body = (draw(literal_spec(min_authority=1)),)
    return (predicate, args, authority), body, signers


def goal_spec(draw, rules):
    """A random goal, or one close to a generated statement: its head
    (attributed to the first signer when bare) with some positions replaced
    by variables or other constants."""
    if not rules or draw(st.integers(0, 4)) == 0:
        return draw(literal_spec(min_authority=1))
    (predicate, args, authority), _body, signers = draw(st.sampled_from(rules))
    if not authority:
        authority = signers[:1] or (draw(_authority),)
    kept = st.integers(0, 4)
    return (predicate,
            tuple(a if draw(kept) else draw(st.one_of(_variable, _constant))
                  for a in args),
            tuple(a if draw(kept) else draw(_authority) for a in authority))


def build_term(spec):
    if spec[0] == "constant":
        return Constant(spec[1], quoted=spec[2])
    if spec[0] == "variable":
        return Variable(spec[1])
    return Compound("f", (build_term(spec[1]),))


def build_literal(spec) -> Literal:
    predicate, args, authority = spec
    return Literal(predicate, tuple(build_term(a) for a in args),
                   tuple(build_term(a) for a in authority))


def build_credential(spec) -> Credential:
    head, body, signers = spec
    rule = Rule(build_literal(head), tuple(build_literal(b) for b in body),
                signers=tuple(build_term(s) for s in signers))
    # The lookup never checks signatures; the serial is the real one.
    return Credential(rule, (), compute_serial(rule, None, None))


def solutions(context_class, wallet, overlay, goal):
    peer = type("Verifier", (), {"name": "Verifier", "max_depth": 4,
                                 "builtins": BuiltinRegistry()})()
    context = context_class(peer, Session("s", "Verifier"), "Verifier", None,
                            [CredentialStore(wallet), CredentialStore(overlay)],
                            allow_remote=False)
    return [(canonical_literal(goal.apply(subst)),
             tuple(c.serial for proof in proofs for c in proof.credentials()))
            for subst, proofs in context.solve_goals((goal,),
                                                     Substitution.empty(), 0)]


@settings(max_examples=300, deadline=None)
@given(wallet=st.lists(rule_spec(), max_size=5),
       extra=st.lists(rule_spec(), max_size=2),
       shared=st.lists(st.integers(0, 4), max_size=2),
       interning=st.booleans(),
       data=st.data())
def test_lookup_yields_what_the_candidate_loop_yields(wallet, extra, shared,
                                                      interning, data):
    goals = [goal_spec(data.draw, wallet + extra) for _ in range(3)]
    was = set_interning(interning)
    try:
        wallet_credentials = [build_credential(spec) for spec in wallet]
        # The overlay repeats some wallet statements (deduplicated by
        # serial across stores) beside statements of its own.
        overlay_credentials = [build_credential(spec) for spec in extra] + [
            build_credential(wallet[index]) for index in shared
            if index < len(wallet)]
        for spec in goals:
            goal = build_literal(spec)
            expected = solutions(ReferenceLoop, wallet_credentials,
                                 overlay_credentials, goal)
            assert solutions(EvalContext, wallet_credentials,
                             overlay_credentials, goal) == expected
    finally:
        set_interning(was)


def test_foreign_authority_and_signerless_statements_vouch_nothing():
    foreign = build_credential(
        (("p", (("constant", "a", True),), (("constant", "B", True),)),
         (), (("constant", "A", True),)))
    unsigned = build_credential(
        (("p", (("constant", "a", True),), ()), (), ()))
    assert foreign.statement is None and unsigned.statement is None
    store = CredentialStore([foreign, unsigned])
    assert store.vouching_for(parse_literal('p("a") @ "B"')) == []
    assert store.vouching_for(parse_literal('p("a") @ "A"')) == []


def test_restored_wallet_credential_still_proves_its_goal(attach_stores):
    world = World(key_bits=KEY_BITS)
    holder = world.add_peer("Holder")
    world.issuer("UIUC")
    world.distribute_keys()
    [issued] = world.give_credentials("Holder",
                                      'student("Alice") signedBy ["UIUC"].')
    attach_stores(world)
    goal = parse_literal('student("Alice") @ "UIUC"')

    recovery.crash_peer(world.transport, "Holder")
    assert holder.credentials.vouching_for(goal) == []
    recovery.recover_peer(world.transport, "Holder")
    [restored] = holder.credentials.vouching_for(goal)
    assert restored is not issued and restored == issued

    context = evidence_context(holder, Session("restart", "Holder"), "Holder")
    proof = context.derive_evidence(goal)
    assert proof is not None
    assert [c.serial for c in proof.credentials()] == [issued.serial]
