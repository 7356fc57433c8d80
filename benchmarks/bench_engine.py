"""E7 — Logic-engine ablations.

Compares the evaluation modes the engine offers on transitive-closure
workloads (the classic deductive-database yardstick):

- naive vs semi-naive bottom-up: semi-naive re-derives nothing, so its
  advantage grows with the closure's diameter;
- tabled top-down vs bottom-up, plus the tabling-off cycle-pruning mode.
"""

import time

from conftest import KEY_BITS  # noqa: F401 - uniform import, not used here

from repro.bench.reporting import print_table
from repro.datalog.knowledge import KnowledgeBase
from repro.datalog.parser import parse_goals, parse_program
from repro.datalog.seminaive import naive_fixpoint, seminaive_fixpoint
from repro.datalog.sld import SLDEngine


def chain_program(length: int, components: int = 4) -> str:
    """`components` disjoint chains of `length` edges + transitive closure."""
    lines = []
    for component in range(components):
        for index in range(length):
            lines.append(f"edge(n{component}_{index}, n{component}_{index + 1}).")
    lines.append("path(X, Y) <- edge(X, Y).")
    lines.append("path(X, Y) <- edge(X, Z), path(Z, Y).")
    return "\n".join(lines)


def test_e7_naive_vs_seminaive(benchmark):
    rows = []
    for length in (8, 16, 32):
        program = parse_program(chain_program(length))
        started = time.perf_counter()
        naive = naive_fixpoint(program)
        naive_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        semi = seminaive_fixpoint(program)
        semi_ms = (time.perf_counter() - started) * 1000
        assert naive.facts == semi.facts
        rows.append({
            "chain length": length,
            "facts": len(semi.facts),
            "naive derivations": naive.derivations,
            "semi-naive derivations": semi.derivations,
            "naive_ms": round(naive_ms, 2),
            "seminaive_ms": round(semi_ms, 2),
        })
    print_table(rows, title="E7a - naive vs semi-naive bottom-up")
    for row in rows:
        assert row["semi-naive derivations"] < row["naive derivations"]

    program = parse_program(chain_program(16))
    benchmark(lambda: seminaive_fixpoint(program))


def test_e7_tabled_sld(benchmark):
    program_text = chain_program(16)
    goals = parse_goals("path(n0_0, W)")

    rows = []
    for label, tabled in (("tabled", True), ("untabled (pruning)", False)):
        engine = SLDEngine(KnowledgeBase(parse_program(program_text)),
                           tabled=tabled, max_depth=4000)
        started = time.perf_counter()
        solutions = engine.query(goals)
        elapsed_ms = (time.perf_counter() - started) * 1000
        rows.append({
            "mode": label,
            "answers": len(solutions),
            "resolutions": engine.stats.resolutions,
            "table hits": engine.stats.table_hits,
            "wall_ms": round(elapsed_ms, 2),
        })
    print_table(rows, title="E7c - top-down evaluation modes")

    def tabled_query():
        engine = SLDEngine(KnowledgeBase(parse_program(program_text)),
                           tabled=True, max_depth=4000)
        return engine.query(goals)

    benchmark(tabled_query)
