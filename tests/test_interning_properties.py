"""Property tests for term interning.

Interning (hash-consing) is an *optimisation*, not a semantic feature: a
term built while interning is disabled must be indistinguishable — under
equality, hashing, unification, matching, variant checks, and substitution
round-trips — from the interned term with the same spelling.  Hypothesis
drives random term shapes through both construction modes.
"""

from hypothesis import example, given, settings, strategies as st

from repro.datalog.terms import (
    Compound,
    Constant,
    Variable,
    set_interning,
)
from repro.datalog.unify import match, unify, variant
from repro.datalog.substitution import Substitution

# -- term strategies ---------------------------------------------------------

_constant_values = st.one_of(
    st.sampled_from(["a", "cs101", "E-Learn", ""]),
    st.integers(-5, 99),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
_quoted = st.booleans()
_var_names = st.sampled_from(["X", "Y", "Course", "Requester"])


@st.composite
def term_spec(draw, depth=2):
    """A builder-independent description of a term: constants, variables,
    and (when depth allows) compounds over smaller specs."""
    choices = ["constant", "variable"]
    if depth > 0:
        choices.append("compound")
    kind = draw(st.sampled_from(choices))
    if kind == "constant":
        return ("constant", draw(_constant_values), draw(_quoted))
    if kind == "variable":
        return ("variable", draw(_var_names))
    functor = draw(st.sampled_from(["f", "g", "pair"]))
    args = draw(st.lists(term_spec(depth=depth - 1), min_size=0, max_size=3))
    return ("compound", functor, tuple(args))


def build(spec):
    kind = spec[0]
    if kind == "constant":
        return Constant(spec[1], quoted=spec[2])
    if kind == "variable":
        return Variable(spec[1])
    return Compound(spec[1], tuple(build(s) for s in spec[2]))


def build_uninterned(spec):
    was = set_interning(False)
    try:
        return build(spec)
    finally:
        set_interning(was)


# -- interning is invisible ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(term_spec())
def test_interned_and_structural_terms_indistinguishable(spec):
    interned = build(spec)
    structural = build_uninterned(spec)
    assert interned == structural
    assert structural == interned
    assert hash(interned) == hash(structural)
    assert str(interned) == str(structural)
    assert repr(interned) == repr(structural)


@settings(max_examples=150, deadline=None)
@given(term_spec(), term_spec())
def test_unify_agrees_across_construction_modes(left_spec, right_spec):
    il, ir = build(left_spec), build(right_spec)
    sl, sr = build_uninterned(left_spec), build_uninterned(right_spec)
    interned_result = unify(il, ir)
    structural_result = unify(sl, sr)
    assert (interned_result is None) == (structural_result is None)
    # Mixed-mode unification must agree too (identity fast paths may only
    # ever short-circuit *equal* terms).
    assert (unify(il, sr) is None) == (interned_result is None)


@settings(max_examples=150, deadline=None)
@given(term_spec(), term_spec())
# A pattern variable meeting an equal but non-identical instance variable
# must not bind to itself, or Substitution.walk never terminates.
@example(("compound", "pair", (("variable", "Y"), ("variable", "Y"))),
         ("compound", "pair", (("variable", "X"), ("variable", "Y"))))
def test_match_and_variant_agree_across_construction_modes(left_spec, right_spec):
    il, ir = build(left_spec), build(right_spec)
    sl, sr = build_uninterned(left_spec), build_uninterned(right_spec)
    assert (match(il, ir) is None) == (match(sl, sr) is None)
    assert variant(il, ir) == variant(sl, sr)
    # A term is always a variant of its other-mode twin.
    assert variant(il, sl)


@settings(max_examples=100, deadline=None)
@given(term_spec())
def test_substitution_round_trip_across_construction_modes(spec):
    interned = build(spec)
    structural = build_uninterned(spec)
    binding = Substitution.empty().bind(Variable("Z"), Constant("w"))
    assert binding.resolve(interned) == binding.resolve(structural)
    # Resolving against the empty substitution is the identity.
    assert Substitution.empty().resolve(structural) == interned
