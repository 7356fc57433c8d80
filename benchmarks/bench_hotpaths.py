"""E13 — Hot-path caches: before/after microbenchmarks.

Measures the three optimisation layers introduced by the hot-path pass, each
as a *before vs after* pair so the speedup is computed inside one process on
one machine:

- ``credential_verify``   — the same credential re-verified N times, RSA
  signature cache disabled vs enabled (the cross-session re-presentation
  pattern: a wallet credential shown to many peers);
- ``scenario1_requery``   — the paper's scenario 1 negotiation re-run, all
  process-wide caches cleared before every run vs kept warm;
- ``scenario2_requery``   — the same cold/warm contrast on scenario 2
  (free enrollment via the IBM employee credential);
- ``delegation_sweep``    — grid-style delegation chains of increasing
  depth, cold caches per negotiation vs warm;
- ``interning_unify``     — ground-term unification with hash-consing
  disabled vs enabled (identity fast path).

Writes ``benchmarks/reports/bench_hotpaths.json`` — the repo's first
``BENCH_*`` trajectory point; ``benchmarks/regress.py`` compares later runs
against it and fails CI on a >20% regression.

Runs under pytest (``pytest benchmarks/bench_hotpaths.py -s``) or standalone
(``PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick]``).
"""

import json
import time
from pathlib import Path

try:
    from conftest import KEY_BITS
except ImportError:  # standalone execution
    KEY_BITS = 512

from repro.bench.reporting import format_table
from repro.crypto import rsa
from repro.crypto.canonical import clear_canonical_bytes_cache
from repro.crypto.keys import keypair_for
from repro.credentials.credential import issue_credential, verify_credential
from repro.datalog.parser import parse_literal, parse_rule
from repro.datalog.sld import clear_canonical_cache
from repro.datalog.terms import atom, number, set_interning, struct
from repro.datalog.unify import unify
from repro.negotiation.strategies import negotiate
from repro.serialize import _credential_payload

REPORT_PATH = Path(__file__).resolve().parent / "reports" / "bench_hotpaths.json"
TRAJECTORY = "BENCH_HOTPATHS_V1"

# The negotiation benches use deployment-realistic 1024-bit keys rather than
# the 512-bit test keys: the whole point of the crypto caches is to remove
# RSA work from repeated negotiations, and halving the modulus understates
# that share by ~4x.
NEGOTIATION_KEY_BITS = 1024


def clear_hot_caches() -> None:
    """Drop every process-wide cache the hot-path pass introduced.

    Intern tables are deliberately left alone: interned terms are plain
    values, not memoised derivations, and clearing them mid-benchmark would
    only measure re-warming a table that never invalidates.
    """
    rsa.clear_signature_cache()
    clear_canonical_cache()
    clear_canonical_bytes_cache()
    _credential_payload.cache_clear()


def clear_world_memos(world) -> None:
    """Drop per-peer answer-credential memos — used by the *cold* side of
    the negotiation benches so 'before' really re-issues every credential."""
    for peer in world.peers.values():
        getattr(peer, "_self_credentials", {}).clear()


def _time(callable_, repeats: int, rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of ``repeats`` calls, in milliseconds.

    Taking the minimum across rounds filters out GC pauses and scheduler
    noise, which dominate at the few-millisecond scale these benches run at.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repeats):
            callable_()
        best = min(best, (time.perf_counter() - started) * 1000)
    return best


# -- individual benchmarks ----------------------------------------------------


def bench_credential_verify(quick: bool) -> dict:
    repeats = 40 if quick else 200
    issuer = keypair_for("StateU", KEY_BITS)
    ring_source = {"StateU": issuer.public}
    from repro.crypto.keys import KeyRing

    keyring = KeyRing(ring_source)
    credential = issue_credential(
        parse_rule('student("Alice") signedBy ["StateU"].'), issuer)

    def verify_once():
        verify_credential(credential, keyring)

    was_enabled = rsa.set_signature_cache(False)
    clear_hot_caches()
    before_ms = _time(verify_once, repeats)
    rsa.set_signature_cache(True)
    clear_hot_caches()
    verify_once()  # warm
    after_ms = _time(verify_once, repeats)
    rsa.set_signature_cache(was_enabled)
    return {
        "benchmark": "credential_verify",
        "repeats": repeats,
        "before_ms": round(before_ms, 3),
        "after_ms": round(after_ms, 3),
        "speedup": round(before_ms / after_ms, 2) if after_ms else float("inf"),
    }


def bench_scenario1_requery(quick: bool) -> dict:
    from repro.scenarios.elearn import build_scenario1

    repeats = 2 if quick else 5
    scenario = build_scenario1(key_bits=NEGOTIATION_KEY_BITS)
    alice = scenario.world.peers["Alice"]
    goal = parse_literal('discountEnroll(Course, "Alice")')

    def run_negotiation():
        result = negotiate(alice, "E-Learn", goal)
        assert result.granted

    run_negotiation()  # steady-state the world (sessions, overlays)

    def cold_negotiation():
        clear_hot_caches()
        clear_world_memos(scenario.world)
        run_negotiation()

    before_ms = _time(cold_negotiation, repeats)
    clear_hot_caches()
    run_negotiation()  # warm the caches
    after_ms = _time(run_negotiation, repeats)
    return {
        "benchmark": "scenario1_requery",
        "repeats": repeats,
        "before_ms": round(before_ms, 3),
        "after_ms": round(after_ms, 3),
        "speedup": round(before_ms / after_ms, 2) if after_ms else float("inf"),
    }


def bench_scenario2_requery(quick: bool) -> dict:
    from repro.scenarios.services import build_scenario2, run_free_enrollment

    repeats = 2 if quick else 5
    scenario = build_scenario2(key_bits=NEGOTIATION_KEY_BITS)

    def run_negotiation():
        result = run_free_enrollment(scenario)
        assert result.granted

    run_negotiation()  # steady-state the world (sessions, overlays)

    def cold_negotiation():
        clear_hot_caches()
        clear_world_memos(scenario.world)
        run_negotiation()

    before_ms = _time(cold_negotiation, repeats)
    clear_hot_caches()
    run_negotiation()  # warm the caches
    after_ms = _time(run_negotiation, repeats)
    return {
        "benchmark": "scenario2_requery",
        "repeats": repeats,
        "before_ms": round(before_ms, 3),
        "after_ms": round(after_ms, 3),
        "speedup": round(before_ms / after_ms, 2) if after_ms else float("inf"),
    }


def bench_delegation_sweep(quick: bool) -> dict:
    from repro.scenarios.grid import build_grid_scenario

    lengths = (2, 3) if quick else (2, 4, 6)
    before_total = after_total = 0.0
    per_depth = []
    for length in lengths:
        scenario = build_grid_scenario(chain_length=length,
                                       key_bits=NEGOTIATION_KEY_BITS)
        bob = scenario.world.peers["Bob"]
        goal = parse_literal('clusterAccess("Bob")')

        def run_negotiation():
            result = negotiate(bob, "Cluster", goal)
            assert result.granted

        run_negotiation()

        def cold_negotiation():
            clear_hot_caches()
            clear_world_memos(scenario.world)
            run_negotiation()

        repeats = 2 if quick else 3
        before_ms = _time(cold_negotiation, repeats)
        clear_hot_caches()
        run_negotiation()
        after_ms = _time(run_negotiation, repeats)
        before_total += before_ms
        after_total += after_ms
        per_depth.append({
            "chain_length": length,
            "before_ms": round(before_ms, 3),
            "after_ms": round(after_ms, 3),
        })
    return {
        "benchmark": "delegation_sweep",
        "depths": per_depth,
        "before_ms": round(before_total, 3),
        "after_ms": round(after_total, 3),
        "speedup": round(before_total / after_total, 2) if after_total else float("inf"),
    }


def bench_interning_unify(quick: bool) -> dict:
    repeats = 200 if quick else 1000

    def build_pair():
        left = struct("grant", atom("cs101"), struct("who", atom("alice")),
                      number(2000))
        right = struct("grant", atom("cs101"), struct("who", atom("alice")),
                       number(2000))
        return left, right

    def unify_fresh_pairs():
        for _ in range(20):
            left, right = build_pair()
            assert unify(left, right) is not None

    was_interned = set_interning(False)
    before_ms = _time(unify_fresh_pairs, repeats)
    set_interning(True)
    build_pair()  # populate the intern tables
    after_ms = _time(unify_fresh_pairs, repeats)
    set_interning(was_interned)
    return {
        "benchmark": "interning_unify",
        "repeats": repeats,
        "before_ms": round(before_ms, 3),
        "after_ms": round(after_ms, 3),
        "speedup": round(before_ms / after_ms, 2) if after_ms else float("inf"),
    }


BENCHMARKS = (
    bench_credential_verify,
    bench_scenario1_requery,
    bench_scenario2_requery,
    bench_delegation_sweep,
    bench_interning_unify,
)


def run_suite(quick: bool = False) -> list[dict]:
    rows = []
    for bench in BENCHMARKS:
        clear_hot_caches()
        rows.append(bench(quick))
    clear_hot_caches()
    return rows


def write_report(rows: list[dict], path: Path = REPORT_PATH,
                 quick: bool = False) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "experiment": "E13",
        "trajectory": TRAJECTORY,
        "quick": quick,
        "key_bits": KEY_BITS,
        "benchmarks": rows,
    }, indent=2) + "\n")
    return path


def summary_rows(rows: list[dict]) -> list[dict]:
    return [{
        "benchmark": row["benchmark"],
        "before_ms": row["before_ms"],
        "after_ms": row["after_ms"],
        "speedup": row["speedup"],
    } for row in rows]


def check_shape(rows: list[dict]) -> None:
    by_name = {row["benchmark"]: row for row in rows}
    # The acceptance bar: >= 1.5x on at least two of the three headline
    # workloads (credential re-verification, scenario-1 re-query, the
    # delegation-chain sweep).
    headline = ("credential_verify", "scenario1_requery", "delegation_sweep")
    fast = [name for name in headline if by_name[name]["speedup"] >= 1.5]
    assert len(fast) >= 2, f"expected >=1.5x on two headline benches, got {by_name}"


def test_e13_hotpath_caches():
    rows = run_suite(quick=True)
    print()
    print(format_table(summary_rows(rows), title="E13 - hot-path caches (quick)"))
    check_shape(rows)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--out", type=Path, default=REPORT_PATH,
                        help=f"report path (default {REPORT_PATH})")
    args = parser.parse_args(argv)
    rows = run_suite(quick=args.quick)
    print(format_table(summary_rows(rows),
                       title="E13 - hot-path caches: before/after"))
    report = write_report(rows, args.out, quick=args.quick)
    print(f"JSON report: {report}")
    check_shape(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
