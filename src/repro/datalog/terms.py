"""Term representation for the PeerTrust logic engine.

Terms follow the usual first-order syntax:

- :class:`Variable` — an unbound logic variable (``X``, ``Course``,
  ``Requester``);
- :class:`Constant` — an atomic value: a lowercase atom (``cs101``), a quoted
  string (``"UIUC"``), a number (``2000``), or a boolean;
- :class:`Compound` — a functor applied to argument terms
  (``price(cs411, 1000)`` used as a term, or a nested authority sequence).

All terms are immutable and hashable so they can live in sets, dictionaries,
and tabling memo tables.  Equality is structural.

:class:`Variable` and :class:`Constant` are *hash-consed*: constructing the
same variable or constant twice returns the same object, so the engine's
hottest comparisons (unification, table lookups, fact indexing) hit the
``a is b`` fast path instead of re-walking structure.  Interning is an
optimisation, not a semantic guarantee — equality remains structural, so
terms built while interning was disabled (or surviving a
:func:`clear_intern_tables`) still compare equal to interned ones.

Constants distinguish *atoms* from *strings* only for pretty-printing: the
paper writes peer names as quoted strings (``"E-Learn"``) and resource
identifiers as atoms (``cs101``), and round-tripping programs through the
parser should preserve the author's spelling.  For unification and equality
the two are distinct constants (``atom("x") != string("x")``), mirroring
Prolog's distinction between ``x`` and ``"x"``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Union

NumberValue = Union[int, float]
ConstantValue = Union[str, int, float, bool]


class InternStats:
    """Counters for the term intern tables (process-wide)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


INTERN_STATS = InternStats()

# Interning can be switched off (tests compare interned against
# structurally-built terms; benchmarks measure the before/after).
_interning_enabled = True


def set_interning(enabled: bool) -> bool:
    """Enable/disable hash-consing of new terms; returns the previous state.

    Existing interned terms stay valid either way — equality is structural.
    """
    global _interning_enabled
    previous = _interning_enabled
    _interning_enabled = enabled
    return previous


def clear_intern_tables() -> None:
    """Drop the intern tables (long-running processes, test isolation).

    Terms created before the clear remain usable and structurally equal to
    ones created after it; only the ``is``-identity fast path is lost across
    the boundary.
    """
    Variable._intern.clear()
    Constant._intern.clear()


def reset_intern_stats() -> None:
    INTERN_STATS.hits = 0
    INTERN_STATS.misses = 0


class Term:
    """Abstract base class for all terms.

    Concrete subclasses are :class:`Variable`, :class:`Constant`, and
    :class:`Compound`.  The base class exists so type annotations and
    ``isinstance`` checks have a single root.
    """

    __slots__ = ()

    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    def is_compound(self) -> bool:
        return isinstance(self, Compound)


class Variable(Term):
    """A logic variable, identified by name.

    Two variables with the same name are the same variable *within one
    clause*; clause renaming (see :func:`rename_term`) produces fresh names
    before resolution so distinct clause instances never collide.
    """

    __slots__ = ("name", "_hash")

    _intern: dict = {}

    def __new__(cls, name: str) -> "Variable":
        if _interning_enabled:
            cached = cls._intern.get(name)
            if cached is not None:
                INTERN_STATS.hits += 1
                return cached
            INTERN_STATS.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((Variable, name)))
        if _interning_enabled:
            cls._intern[name] = self
        return self

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"Variable is immutable (tried to set {attr!r})")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Variable) and other.name == self.name

    def __ne__(self, other) -> bool:
        if self is other:
            return False
        return not (isinstance(other, Variable) and other.name == self.name)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Constant(Term):
    """An atomic constant.

    ``value`` is the underlying Python value; ``quoted`` records whether the
    constant was written as a quoted string.  Atoms and strings never unify
    with each other even when their text coincides.
    """

    __slots__ = ("value", "quoted", "_hash")

    _intern: dict = {}

    def __new__(cls, value: ConstantValue, quoted: bool = False) -> "Constant":
        # The intern key includes the value's type: 1, 1.0, and True are
        # `==` in Python, and conflating them would silently rewrite the
        # author's spelling.  Floats key on their repr — 0.0 and -0.0 are
        # `==` with equal hashes but print differently, and the printed form
        # feeds canonical serialisation.  Structural equality is unchanged
        # (see __eq__).
        if _interning_enabled:
            key = (value.__class__,
                   repr(value) if value.__class__ is float else value,
                   quoted)
            cached = cls._intern.get(key)
            if cached is not None:
                INTERN_STATS.hits += 1
                return cached
            INTERN_STATS.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "quoted", quoted)
        object.__setattr__(self, "_hash", hash((Constant, value, quoted)))
        if _interning_enabled:
            cls._intern[key] = self
        return self

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"Constant is immutable (tried to set {attr!r})")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Constant)
                and other.value == self.value
                and other.quoted == self.quoted)

    def __ne__(self, other) -> bool:
        if self is other:
            return False
        return not (isinstance(other, Constant)
                    and other.value == self.value
                    and other.quoted == self.quoted)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Constant, (self.value, self.quoted))

    def __repr__(self) -> str:
        return f"Constant({self.value!r}, quoted={self.quoted})"

    def __str__(self) -> str:
        if isinstance(self.value, str) and self.quoted:
            return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return str(self.value)

    @property
    def is_number(self) -> bool:
        return isinstance(self.value, (int, float)) and not isinstance(self.value, bool)


# Binary operators the parser reads infix; mirrored by Compound.__str__.
_INFIX_FUNCTORS = frozenset({"+", "-", "*", "/"})


class Compound(Term):
    """A functor applied to one or more argument terms.

    Compounds are not interned (their population is unbounded), but the
    hash is computed once at construction — with interned leaves, repeated
    hashing of deep terms in memo tables stays cheap.
    """

    __slots__ = ("functor", "args", "_hash")

    def __init__(self, functor: str, args: tuple[Term, ...]) -> None:
        if not isinstance(args, tuple):
            args = tuple(args)
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((Compound, functor, args)))

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"Compound is immutable (tried to set {attr!r})")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Compound)
                and other._hash == self._hash
                and other.functor == self.functor
                and other.args == self.args)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Compound, (self.functor, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"Compound({self.functor!r}, {self.args!r})"

    def __str__(self) -> str:
        # Arithmetic compounds render infix and parenthesized so the
        # printed form round-trips through the parser (which has no
        # prefix syntax for operators): ``(Balance + Price)``.
        if len(self.args) == 2 and self.functor in _INFIX_FUNCTORS:
            return f"({self.args[0]} {self.functor} {self.args[1]})"
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({inner})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def atom(name: str) -> Constant:
    """Build an unquoted atom constant, e.g. ``atom("cs101")``."""
    return Constant(name, quoted=False)


def string(text: str) -> Constant:
    """Build a quoted string constant, e.g. ``string("UIUC")``."""
    return Constant(text, quoted=True)


def number(value: NumberValue) -> Constant:
    """Build a numeric constant."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("use atom('true')/atom('false') for booleans")
    return Constant(value)


def var(name: str) -> Variable:
    """Build a variable, e.g. ``var("X")``."""
    return Variable(name)


def struct(functor: str, *args: Term) -> Compound:
    """Build a compound term, e.g. ``struct("price", atom("cs411"), number(1000))``."""
    return Compound(functor, tuple(args))


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------

def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its subterms in pre-order."""
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, Compound):
            stack.extend(reversed(current.args))


def variables_in(term: Term) -> set[Variable]:
    """The set of variables occurring anywhere in ``term``."""
    if isinstance(term, Variable):
        return {term}
    if isinstance(term, Constant):
        return set()
    return {t for t in subterms(term) if isinstance(t, Variable)}


def is_ground(term: Term) -> bool:
    """True when ``term`` contains no variables."""
    return not any(isinstance(t, Variable) for t in subterms(term))


def term_size(term: Term) -> int:
    """Number of nodes in the term tree (used for depth/size bounds)."""
    return sum(1 for _ in subterms(term))


def term_depth(term: Term) -> int:
    """Height of the term tree; constants and variables have depth 1."""
    if isinstance(term, Compound):
        if not term.args:
            return 1
        return 1 + max(term_depth(a) for a in term.args)
    return 1


_fresh_counter = itertools.count(1)


def reset_fresh_variables() -> None:
    """Restart the fresh-variable counter (tests only: two runs from a
    reset counter produce identical renamed-variable names, which trace
    byte-identity checks rely on)."""
    global _fresh_counter
    _fresh_counter = itertools.count(1)


def fresh_variable(base: str = "_G") -> Variable:
    """Return a globally fresh variable.

    The counter is process-wide; freshness only needs to hold within one
    engine run, which this guarantees.  Fresh variables bypass the intern
    table: their names never repeat, so interning them would grow the table
    without bound (one entry per resolution step) for zero hit-rate.  The
    single instance created here flows through the whole derivation, so the
    ``is`` fast path still applies wherever it matters.
    """
    name = f"{base}{next(_fresh_counter)}"
    variable = object.__new__(Variable)
    object.__setattr__(variable, "name", name)
    object.__setattr__(variable, "_hash", hash((Variable, name)))
    return variable


def rename_term(term: Term, mapping: dict[Variable, Variable]) -> Term:
    """Rename the variables of ``term`` using (and extending) ``mapping``.

    Every variable not yet in ``mapping`` is assigned a fresh name.  Used to
    rename clauses apart before resolution.
    """
    if isinstance(term, Variable):
        renamed = mapping.get(term)
        if renamed is None:
            renamed = fresh_variable(f"_{term.name}_")
            mapping[term] = renamed
        return renamed
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(rename_term(a, mapping) for a in term.args))
    return term
