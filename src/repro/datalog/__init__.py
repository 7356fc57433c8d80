"""From-scratch logic-programming substrate used by PeerTrust.

The paper's policy language is built on definite Horn clauses ("distributed
logic programs").  This subpackage provides everything the negotiation
runtime needs from a logic engine:

- :mod:`repro.datalog.terms` — terms (variables, constants, compounds)
- :mod:`repro.datalog.substitution` — triangular substitutions
- :mod:`repro.datalog.unify` — unification and one-way matching
- :mod:`repro.datalog.lexer` / :mod:`repro.datalog.parser` — the PeerTrust
  concrete syntax (``@`` authorities, ``$`` contexts, ``signedBy``)
- :mod:`repro.datalog.knowledge` — indexed fact/rule store
- :mod:`repro.datalog.builtins` — comparison/arithmetic/external predicates
- :mod:`repro.datalog.sld` — backward chaining with depth bounds and tabling
- :mod:`repro.datalog.seminaive` — semi-naive forward-chaining fixpoint
  (the paper's declarative semantics)
- :mod:`repro.datalog.stratify` — dependency analysis / stratified negation
"""

from repro.datalog.terms import (
    Term,
    Variable,
    Constant,
    Compound,
    atom,
    string,
    number,
    var,
    struct,
    variables_in,
    is_ground,
    term_size,
)
from repro.datalog.substitution import Substitution
from repro.datalog.unify import unify, match, variant
from repro.datalog.knowledge import Clause, KnowledgeBase
from repro.datalog.sld import SLDEngine, Solution
from repro.datalog.seminaive import seminaive_fixpoint, naive_fixpoint
from repro.datalog.parser import parse_program, parse_rule, parse_literal, parse_term

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Compound",
    "atom",
    "string",
    "number",
    "var",
    "struct",
    "variables_in",
    "is_ground",
    "term_size",
    "Substitution",
    "unify",
    "match",
    "variant",
    "Clause",
    "KnowledgeBase",
    "SLDEngine",
    "Solution",
    "seminaive_fixpoint",
    "naive_fixpoint",
    "parse_program",
    "parse_rule",
    "parse_literal",
    "parse_term",
]
