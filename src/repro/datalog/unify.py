"""Unification, one-way matching, and variance checking.

All three operations are purely functional over :class:`Substitution`:
failure is reported as ``None`` (never by exception), success returns the
extended substitution.
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.substitution import Substitution
from repro.datalog.terms import Compound, Constant, Term, Variable


def occurs(variable: Variable, term: Term, subst: Substitution) -> bool:
    """True when ``variable`` occurs in ``term`` under ``subst``.

    Used by :func:`unify` to reject cyclic bindings such as ``X = f(X)``,
    which would make substitutions non-terminating to resolve.
    """
    term = subst.walk(term)
    if isinstance(term, Variable):
        return term == variable
    if isinstance(term, Compound):
        return any(occurs(variable, arg, subst) for arg in term.args)
    return False


def unify(
    left: Term,
    right: Term,
    subst: Optional[Substitution] = None,
    occurs_check: bool = True,
) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution on success, ``None`` on mismatch.
    The occurs check is on by default: policy programs are small, terms are
    shallow, and soundness of certified proofs matters more than the
    marginal speed of skipping it.
    """
    if subst is None:
        subst = Substitution.empty()
    stack: list[tuple[Term, Term]] = [(left, right)]
    while stack:
        a, b = stack.pop()
        a = subst.walk(a)
        b = subst.walk(b)
        if a is b:
            continue
        # Both sides are walked, so a variable can occur only inside a
        # compound: against a leaf the occurs check is always false.
        if isinstance(a, Variable):
            if isinstance(b, Variable) and a == b:
                continue
            if occurs_check and isinstance(b, Compound) and occurs(a, b, subst):
                return None
            subst = subst.bind(a, b)
        elif isinstance(b, Variable):
            if occurs_check and isinstance(a, Compound) and occurs(b, a, subst):
                return None
            subst = subst.bind(b, a)
        elif isinstance(a, Constant) and isinstance(b, Constant):
            if a != b:
                return None
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return subst


def match(
    pattern: Term,
    instance: Term,
    subst: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """One-way matching: bind variables of ``pattern`` only.

    Variables occurring in ``instance`` are treated as constants — they can
    be matched by a pattern variable but never bound themselves.  This is
    what fact indexing and release-policy template matching need.
    """
    if subst is None:
        subst = Substitution.empty()
    stack: list[tuple[Term, Term]] = [(pattern, instance)]
    while stack:
        p, i = stack.pop()
        p = subst.walk(p)
        if p is i:
            # Identical objects (common with interned ground terms) match
            # with no bindings to add.
            continue
        if isinstance(p, Variable):
            if not (isinstance(i, Variable) and p == i):
                # An equal but non-identical variable (a term built with
                # interning off) must not bind to itself: walk would loop.
                subst = subst.bind(p, i)
            continue
        if isinstance(i, Variable):
            return None
        if isinstance(p, Constant) and isinstance(i, Constant):
            if p != i:
                return None
            continue
        if isinstance(p, Compound) and isinstance(i, Compound):
            if p.functor != i.functor or len(p.args) != len(i.args):
                return None
            stack.extend(zip(p.args, i.args))
            continue
        return None
    return subst


def variant(left: Term, right: Term) -> bool:
    """True when the two terms are equal up to consistent variable renaming.

    Used by the tabling layer to recognise repeated calls: ``p(X, Y)`` and
    ``p(A, B)`` are the same call pattern, ``p(X, X)`` is not.
    """
    forward: dict[Variable, Variable] = {}
    backward: dict[Variable, Variable] = {}
    stack: list[tuple[Term, Term]] = [(left, right)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Variable) and isinstance(b, Variable):
            if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
                return False
            continue
        if a is b and isinstance(a, Constant):
            # Interned ground leaves: identity implies equality.  (Identity
            # of *compound* terms cannot short-circuit here: their variables
            # must still be recorded in the renaming maps.)
            continue
        if isinstance(a, Constant) and isinstance(b, Constant):
            if a != b:
                return False
            continue
        if isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
            continue
        return False
    return True
