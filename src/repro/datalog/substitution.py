"""Triangular substitutions.

A :class:`Substitution` maps variables to terms.  Bindings are *triangular*:
a variable may be bound to a term that itself contains bound variables, and
resolution happens lazily through :meth:`Substitution.walk` /
:meth:`Substitution.resolve`.  This keeps unification cheap (no eager deep
application) while :meth:`resolve` produces fully-dereferenced terms when a
caller needs them (e.g. to report an answer).

Substitutions are persistent from the caller's point of view: ``bind``
returns a new substitution and never mutates the receiver, so SLD search can
branch without copying trails.  Internally each substitution shares its
parent's dictionary until it accumulates enough local bindings to be worth
flattening, which keeps ``walk`` O(chain length) with short chains in
practice.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from repro.datalog.terms import Compound, Term, Variable

# When a substitution's chain of parent links grows past this, flatten into
# a single dict.  Chosen empirically: negotiation goals are small, so chains
# stay short; flattening bounds worst-case walk cost on deep SLD branches.
_FLATTEN_THRESHOLD = 16


class Substitution:
    """An immutable variable-to-term binding map with structural sharing."""

    __slots__ = ("_bindings", "_parent", "_depth")

    def __init__(
        self,
        bindings: Optional[Mapping[Variable, Term]] = None,
        _parent: Optional["Substitution"] = None,
        _depth: int = 0,
    ) -> None:
        self._bindings: dict[Variable, Term] = dict(bindings) if bindings else {}
        self._parent = _parent
        self._depth = _depth

    # -- construction -------------------------------------------------------

    @staticmethod
    def empty() -> "Substitution":
        return _EMPTY

    def bind(self, variable: Variable, term: Term) -> "Substitution":
        """Return a new substitution extending this one with ``variable → term``."""
        if self._depth >= _FLATTEN_THRESHOLD:
            flat = dict(self.items())
            flat[variable] = term
            return Substitution(flat)
        return Substitution({variable: term}, _parent=self, _depth=self._depth + 1)

    # -- lookup --------------------------------------------------------------

    def lookup(self, variable: Variable) -> Optional[Term]:
        node: Optional[Substitution] = self
        while node is not None:
            found = node._bindings.get(variable)
            if found is not None:
                return found
            node = node._parent
        return None

    def walk(self, term: Term) -> Term:
        """Follow variable bindings until reaching a non-variable or an
        unbound variable.  Does not descend into compound arguments."""
        while isinstance(term, Variable):
            node: Optional[Substitution] = self
            while node is not None:
                bound = node._bindings.get(term)
                if bound is not None:
                    break
                node = node._parent
            else:
                return term
            term = bound
        return term

    def resolve(self, term: Term) -> Term:
        """Fully apply this substitution to ``term``, producing a term in
        which every bound variable has been replaced transitively."""
        if isinstance(term, Variable):
            term = self.walk(term)
        if isinstance(term, Compound):
            resolved = tuple(self.resolve(a) for a in term.args)
            if all(a is b for a, b in zip(resolved, term.args)):
                # Nothing changed: reuse the existing (hash-cached) object
                # instead of allocating a structurally-identical copy.
                return term
            return Compound(term.functor, resolved)
        return term

    def is_bound(self, variable: Variable) -> bool:
        return self.lookup(variable) is not None

    # -- iteration / inspection ----------------------------------------------

    def items(self) -> Iterator[tuple[Variable, Term]]:
        """Iterate raw (triangular) bindings, innermost shadowing outermost."""
        seen: set[Variable] = set()
        node: Optional[Substitution] = self
        while node is not None:
            for variable, term in node._bindings.items():
                if variable not in seen:
                    seen.add(variable)
                    yield variable, term
            node = node._parent

    def domain(self) -> set[Variable]:
        return {variable for variable, _ in self.items()}

    def restricted_to(self, variables: set[Variable]) -> dict[Variable, Term]:
        """Fully-resolved bindings for the requested variables only — the
        shape callers want when reporting query answers."""
        return {v: self.resolve(v) for v in variables if self.lookup(v) is not None}

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def __bool__(self) -> bool:
        # An empty substitution is still a successful (identity) substitution;
        # truthiness reflects "has bindings", so use `is None` checks for
        # success/failure, never truthiness.
        return any(True for _ in self.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}={self.resolve(v)}" for v, _ in sorted(
            self.items(), key=lambda pair: pair[0].name))
        return f"Substitution({{{inner}}})"


_EMPTY = Substitution()
