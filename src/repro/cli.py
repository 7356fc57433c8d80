"""Command-line interface.

Usage (installed as ``peertrust`` via the packaging entry point, or
``python -m repro``)::

    peertrust parse policies.pt            # check & pretty-print a program
    peertrust lint policies.pt             # static policy analysis
    peertrust demo scenario1               # run a paper scenario
    peertrust save-demo scenario2 out.json # snapshot a scenario world
    peertrust query out.json --peer E-Learn --goal 'freeCourse(C)'
    peertrust negotiate out.json --requester Bob --provider E-Learn \\
        --goal 'enroll(cs101, "Bob", Company, Email, 0)'

Every subcommand returns a conventional exit status (0 success, 1 failure,
2 usage error), so the CLI scripts cleanly.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import PeerTrustError

DEMOS = ("quickstart", "scenario1", "scenario2", "grid", "mutual")


@contextmanager
def _obs_scope(args, world):
    """Activate tracing/metrics for one CLI run when requested.

    ``--trace PATH`` binds a :class:`repro.obs.trace.Tracer` to the world's
    simulated clock for the duration of the command and exports the JSONL
    trace on the way out (same seed ⇒ byte-identical file).
    ``--metrics-out PATH`` dumps the full registry in Prometheus text
    format after the run.  ``--flight-recorder PATH`` starts the run with
    a clean flight recorder and writes any post-mortem dumps it collected
    (negotiation failures, crash recoveries) to ``PATH`` as JSONL."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    flightrec_path = getattr(args, "flight_recorder", None)
    tracer = None
    if trace_path:
        from repro.obs import trace as obs_trace

        transport = world.transport
        tracer = obs_trace.Tracer(clock=lambda: transport.now_ms)
        obs_trace.activate(tracer)
    if flightrec_path:
        from repro.obs.flightrec import RECORDER

        RECORDER.reset()
    try:
        yield
    finally:
        if tracer is not None:
            from repro.obs import trace as obs_trace

            obs_trace.deactivate()
            tracer.export(trace_path)
        if metrics_path:
            from repro.obs.metrics import (
                global_registry,
                install_default_collectors,
            )

            from repro.storage.atomic import atomic_write_text

            install_default_collectors()
            atomic_write_text(metrics_path,
                              global_registry().render_prometheus())
        if flightrec_path:
            import json

            from repro.obs.flightrec import RECORDER
            from repro.storage.atomic import atomic_write_text

            atomic_write_text(flightrec_path, "".join(
                json.dumps(dump, sort_keys=True) + "\n"
                for dump in RECORDER.dumps))


def _build_demo_world(name: str):
    """Returns (world, suggested-negotiation description) for a demo."""
    if name == "quickstart":
        from repro.world import World

        world = World(key_bits=512)
        world.add_peer("Server",
                       'hello(Requester) $ true <- '
                       'friend(Requester) @ "CA" @ Requester.')
        world.add_peer("Client",
                       'friend(X) @ Y $ true <-{true} friend(X) @ Y.')
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Client", 'friend("Client") signedBy ["CA"].')
        return world, ("Client", "Server", 'hello("Client")')
    if name == "scenario1":
        from repro.scenarios.elearn import build_scenario1

        scenario = build_scenario1(key_bits=512)
        return scenario.world, ("Alice", "E-Learn",
                                'discountEnroll(Course, "Alice")')
    if name == "scenario2":
        from repro.scenarios.services import build_scenario2

        scenario = build_scenario2(key_bits=512)
        return scenario.world, ("Bob", "E-Learn",
                                'enroll(cs101, "Bob", Company, Email, 0)')
    if name == "grid":
        from repro.scenarios.grid import build_grid_scenario

        scenario = build_grid_scenario(chain_length=2, key_bits=512)
        return scenario.world, ("Bob", "Cluster", 'clusterAccess("Bob")')
    if name == "mutual":
        from repro.scenarios.mutual_membership import build_mutual_membership

        scenario = build_mutual_membership(key_bits=512)
        return scenario.world, ("Client", "StateU", "member(X)")
    raise PeerTrustError(f"unknown demo {name!r}")


def _configure_chaos(world, args) -> None:
    """Apply the optional fault-injection / resilience flags to a world."""
    drop = getattr(args, "drop", 0.0) or 0.0
    duplicate = getattr(args, "duplicate", 0.0) or 0.0
    corrupt = getattr(args, "corrupt", 0.0) or 0.0
    if drop or duplicate or corrupt:
        from repro.net.faults import uniform_plan

        world.inject_faults(uniform_plan(
            seed=getattr(args, "fault_seed", 0) or 0,
            drop=drop, duplicate=duplicate, corrupt=corrupt))
    retries = getattr(args, "retries", None)
    if retries and retries > 1:
        from repro.net.transport import RetryPolicy

        world.set_retry(RetryPolicy(max_attempts=retries))
    max_in_flight = getattr(args, "max_in_flight", None)
    if max_in_flight and max_in_flight > 1:
        world.transport.max_in_flight = max_in_flight
    if getattr(args, "disclosure_deltas", False):
        world.transport.disclosure_deltas = True


@contextmanager
def _storage_scope(world, args):
    """Attach per-peer state stores for one CLI run when requested.

    ``--store-backend durable --state-dir DIR`` gives every peer a durable
    store under ``DIR/<peer>/``, so the run's wallets survive a crash (and a
    rerun pointed at the same directory starts with them).
    ``--store-backend memory`` exercises the same write-through path
    without touching disk.  Stores are checkpointed and closed on the way
    out."""
    backend = getattr(args, "store_backend", None)
    if not backend:
        yield
        return
    world.attach_state_stores(backend,
                              state_dir=getattr(args, "state_dir", None))
    try:
        yield
    finally:
        world.detach_state_stores()


def _print_cache_stats(out, session=None) -> None:
    """The ``--stats`` block: hot-path cache counters across every layer,
    sourced from the unified metrics registry (the legacy stats objects
    publish through it; the printed lines are unchanged)."""
    from repro.obs.metrics import global_registry, install_default_collectors

    install_default_collectors()
    snap = global_registry().snapshot()
    print("\ncache stats:", file=out)
    print(f"  intern_hits:     {snap['peertrust_intern_hits_total']} "
          f"({snap['peertrust_intern_misses_total']} misses)", file=out)
    print(f"  sig_cache_hits:  {snap['peertrust_sig_cache_hits_total']} "
          f"({snap['peertrust_sig_cache_misses_total']} misses, "
          f"{snap['peertrust_sig_cache_size']} cached)", file=out)
    print(f"  canonical_hits:  {snap['peertrust_canonical_hits_total']} "
          f"({snap['peertrust_canonical_misses_total']} misses)",
          file=out)
    if session is not None:
        for counter in ("sig_cache_hits",):
            if session.counters.get(counter):
                print(f"  session {counter}: {session.counters[counter]}",
                      file=out)


def _run_negotiation(world, requester_name: str, provider_name: str,
                     goal_text: str, strategy: str, out,
                     deadline_ms: Optional[float] = None,
                     show_stats: bool = False) -> int:
    from repro.datalog.parser import parse_literal
    from repro.negotiation.strategies import negotiate

    requester = world.peers.get(requester_name)
    if requester is None:
        print(f"error: no peer named {requester_name!r} "
              f"(have: {', '.join(sorted(world.peers))})", file=sys.stderr)
        return 2
    goal = parse_literal(goal_text)
    result = negotiate(requester, provider_name, goal, strategy=strategy,
                       deadline_ms=deadline_ms)
    print(f"goal:     {goal}", file=out)
    print(f"granted:  {result.granted}", file=out)
    if result.first_bindings:
        for name, term in sorted(result.first_bindings.items()):
            print(f"  {name} = {term}", file=out)
    if not result.granted and result.failure_reason:
        print(f"reason:   {result.failure_reason}", file=out)
    stats = world.stats
    print(f"traffic:  {stats.messages} messages, {stats.bytes} bytes, "
          f"{stats.simulated_ms:.1f} simulated ms", file=out)
    if stats.retries or stats.dropped or stats.duplicates_suppressed:
        print(f"faults:   {stats.dropped} dropped, {stats.retries} retries, "
              f"{stats.duplicates_suppressed} duplicate(s) suppressed",
              file=out)
    print("\ntranscript:", file=out)
    print(result.session.render_transcript(), file=out)
    if show_stats:
        from repro.workloads.metrics import (
            negotiation_quantiles,
            record_negotiation,
        )

        record_negotiation(stats)
        _print_transport_stats(out, stats)
        _print_cache_stats(out, session=result.session)
        quantiles = negotiation_quantiles()
        print("\nnegotiation distributions (this process):", file=out)
        for label, values in (("sim_ms", quantiles["sim_ms"]),
                              ("messages", quantiles["messages"])):
            rendered = ", ".join(
                f"p{int(q * 100)}={value:g}"
                for q, value in sorted(values.items()) if value is not None)
            print(f"  {label}: {rendered}", file=out)
    return 0 if result.granted else 1


def _print_transport_stats(out, stats) -> None:
    """The ``--stats`` transport block: the full snapshot, including the
    per-kind message/byte breakdown and the event-scheduler figures."""
    snapshot = stats.snapshot()
    print("\ntransport stats:", file=out)
    for kind in sorted(snapshot["by_kind"]):
        print(f"  {kind}: {snapshot['by_kind'][kind]} message(s), "
              f"{snapshot['bytes_by_kind'].get(kind, 0)} bytes", file=out)
    print(f"  events_processed: {snapshot['events_processed']}", file=out)
    print(f"  max_queue_depth:  {snapshot['max_queue_depth']}", file=out)


# -- subcommands -------------------------------------------------------------------


def cmd_parse(args, out) -> int:
    from repro.datalog.parser import parse_program
    from repro.datalog.pretty import format_program

    try:
        source = Path(args.file).read_text()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        program = parse_program(source)
    except PeerTrustError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 1
    release = sum(1 for rule in program if rule.is_release_policy)
    signed = sum(1 for rule in program if rule.is_signed)
    print(f"% {len(program)} rule(s): {len(program) - release} content, "
          f"{release} release polic{'y' if release == 1 else 'ies'}, "
          f"{signed} signed", file=out)
    print(format_program(program), file=out)
    return 0


def cmd_lint(args, out) -> int:
    from repro.datalog.parser import parse_program
    from repro.policy.lint import lint_program, worst_severity

    try:
        source = Path(args.file).read_text()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        program = parse_program(source)
    except PeerTrustError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 1
    findings = lint_program(program)
    if args.quiet:
        findings = [f for f in findings if f.severity != "info"]
    for finding in findings:
        print(str(finding), file=out)
    worst = worst_severity(findings)
    if not findings:
        print("clean: no findings", file=out)
    return 1 if worst == "error" else 0


def cmd_demo(args, out) -> int:
    world, (requester, provider, goal) = _build_demo_world(args.name)
    _configure_chaos(world, args)
    with _obs_scope(args, world), _storage_scope(world, args):
        return _run_negotiation(world, requester, provider, goal,
                                args.strategy, out,
                                deadline_ms=args.deadline_ms,
                                show_stats=args.stats)


def cmd_save_demo(args, out) -> int:
    from repro.serialize import save_world

    world, _ = _build_demo_world(args.name)
    save_world(world, args.output)
    print(f"saved demo {args.name!r} world "
          f"({len(world.peers)} peers) to {args.output}", file=out)
    return 0


def cmd_negotiate(args, out) -> int:
    from repro.serialize import load_world

    world = load_world(args.world)
    _configure_chaos(world, args)
    with _obs_scope(args, world), _storage_scope(world, args):
        return _run_negotiation(world, args.requester, args.provider,
                                args.goal, args.strategy, out,
                                deadline_ms=args.deadline_ms,
                                show_stats=args.stats)


def cmd_query(args, out) -> int:
    from repro.datalog.parser import parse_literal
    from repro.serialize import load_world

    world = load_world(args.world)
    peer = world.peers.get(args.peer)
    if peer is None:
        print(f"error: no peer named {args.peer!r}", file=sys.stderr)
        return 2
    goal = parse_literal(args.goal)
    with _obs_scope(args, world):
        solutions = peer.local_query(goal, allow_remote=not args.local_only)
    if not solutions:
        if args.stats:
            _print_cache_stats(out)
        print("no.", file=out)
        return 1
    for solution in solutions:
        print(str(goal.apply(solution.subst)), file=out)
        if args.explain:
            from repro.datalog.explain import explain

            print(explain(solution.proofs[0], indent=2), file=out)
    if args.stats:
        _print_cache_stats(out)
    return 0


def cmd_trace_view(args, out) -> int:
    from repro.obs.timeline import load_records, render_summary, render_timeline

    try:
        records = load_records(args.file)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.critical_path:
        from repro.obs.critpath import render_critical_path

        print(render_critical_path(records), file=out, end="")
    elif args.summary:
        print(render_summary(records), file=out, end="")
    else:
        print(render_timeline(records, width=args.width), file=out, end="")
    return 0


def cmd_slo_check(args, out) -> int:
    from repro.obs.slo import load_spec
    from repro.workloads.generator import build_bilateral_fleet

    spec = load_spec(args.spec)
    fleet = build_bilateral_fleet(args.pairs, key_bits=args.key_bits)
    _report, slo_report = fleet.run_against_slo(
        spec, stagger_ms=args.stagger_ms)
    print(slo_report.render(), file=out, end="")
    if args.json:
        import json

        from repro.storage.atomic import atomic_write_text

        atomic_write_text(
            args.json,
            json.dumps(slo_report.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0 if slo_report.ok else 1


def cmd_version(args, out) -> int:
    import repro

    print(f"peertrust (repro) {repro.__version__}", file=out)
    return 0


# -- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peertrust",
        description="PeerTrust trust-negotiation toolkit (paper reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("parse", help="check and pretty-print a program")
    p.add_argument("file", help="PeerTrust source file")
    p.set_defaults(handler=cmd_parse)

    p = subparsers.add_parser("lint", help="static checks on a program")
    p.add_argument("file", help="PeerTrust source file")
    p.add_argument("--quiet", action="store_true", help="hide info findings")
    p.set_defaults(handler=cmd_lint)

    def add_chaos_options(sub) -> None:
        group = sub.add_argument_group(
            "fault injection", "seeded network chaos + resilience knobs")
        group.add_argument("--drop", type=float, default=0.0, metavar="RATE",
                           help="message drop probability (0..1)")
        group.add_argument("--duplicate", type=float, default=0.0,
                           metavar="RATE", help="duplication probability")
        group.add_argument("--corrupt", type=float, default=0.0,
                           metavar="RATE", help="payload corruption probability")
        group.add_argument("--fault-seed", type=int, default=0, metavar="N",
                           help="fault plan seed (runs replay per seed)")
        group.add_argument("--retries", type=int, default=None, metavar="N",
                           help="total delivery attempts per message (default 1)")
        group.add_argument("--deadline-ms", type=float, default=None,
                           metavar="MS",
                           help="simulated-ms budget for the negotiation")
        group.add_argument("--max-in-flight", type=int, default=None,
                           metavar="N",
                           help="scatter-gather window: independent remote "
                                "sub-queries issued concurrently (default 1 "
                                "= sequential)")
        group.add_argument("--disclosure-deltas", action="store_true",
                           help="send repeat credentials as compact hash "
                                "references within a session")

    def add_stats_option(sub) -> None:
        sub.add_argument("--stats", action="store_true",
                         help="print hot-path cache counters "
                              "(interning, signature cache, canonical forms)")

    def add_obs_options(sub) -> None:
        group = sub.add_argument_group(
            "observability", "span tracing and metrics export")
        group.add_argument("--trace", metavar="PATH", default=None,
                           help="export a JSONL span trace of the run "
                                "(deterministic per seed; render with "
                                "'peertrust trace-view PATH')")
        group.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write a Prometheus-style text dump of the "
                                "metrics registry after the run")
        group.add_argument("--flight-recorder", metavar="PATH", default=None,
                           help="write the flight recorder's post-mortem "
                                "dumps (negotiation failures, crash "
                                "recoveries) to PATH as JSONL")

    def add_storage_options(sub) -> None:
        group = sub.add_argument_group(
            "durable state", "per-peer state stores and crash recovery")
        group.add_argument("--store-backend", default=None,
                           choices=("memory", "durable"), metavar="BACKEND",
                           help="attach a state store to every peer: "
                                "'memory' (write-through, process-local) or "
                                "'durable' (journal + snapshot on disk; "
                                "requires --state-dir)")
        group.add_argument("--state-dir", default=None, metavar="DIR",
                           help="directory for durable per-peer state "
                                "(one subdirectory per peer)")

    p = subparsers.add_parser("demo", help="run one of the paper scenarios")
    p.add_argument("name", choices=DEMOS)
    p.add_argument("--strategy", default="parsimonious",
                   choices=("parsimonious", "eager"))
    add_chaos_options(p)
    add_stats_option(p)
    add_obs_options(p)
    add_storage_options(p)
    p.set_defaults(handler=cmd_demo)

    p = subparsers.add_parser("save-demo", help="snapshot a demo world to JSON")
    p.add_argument("name", choices=DEMOS)
    p.add_argument("output", help="output JSON path")
    p.set_defaults(handler=cmd_save_demo)

    p = subparsers.add_parser("negotiate", help="negotiate in a saved world")
    p.add_argument("world", help="world JSON (see save-demo)")
    p.add_argument("--requester", required=True)
    p.add_argument("--provider", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--strategy", default="parsimonious",
                   choices=("parsimonious", "eager"))
    add_chaos_options(p)
    add_stats_option(p)
    add_obs_options(p)
    add_storage_options(p)
    p.set_defaults(handler=cmd_negotiate)

    p = subparsers.add_parser("query", help="evaluate a goal as one peer")
    p.add_argument("world", help="world JSON (see save-demo)")
    p.add_argument("--peer", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--local-only", action="store_true",
                   help="forbid remote sub-queries")
    p.add_argument("--explain", action="store_true",
                   help="print the proof tree of each answer")
    add_stats_option(p)
    add_obs_options(p)
    p.set_defaults(handler=cmd_query)

    p = subparsers.add_parser("trace-view",
                              help="render a JSONL trace as a sim-time "
                                   "timeline")
    p.add_argument("file", help="JSONL trace (see --trace)")
    p.add_argument("--width", type=int, default=64,
                   help="timeline width in characters (default 64)")
    p.add_argument("--summary", action="store_true",
                   help="aggregate per-name durations instead of the tree")
    p.add_argument("--critical-path", action="store_true",
                   help="extract the longest sim-time path and per-category "
                        "blame instead of the tree")
    p.set_defaults(handler=cmd_trace_view)

    p = subparsers.add_parser(
        "slo-check",
        help="run the bilateral fleet workload against a declarative SLO "
             "spec; exit 0 on pass, 1 on violation")
    p.add_argument("spec", help="SLO spec JSON (see repro.obs.slo)")
    p.add_argument("--pairs", type=int, default=4, metavar="N",
                   help="bilateral client/server pairs in the fleet "
                        "(default 4)")
    p.add_argument("--stagger-ms", type=float, default=0.0, metavar="MS",
                   help="per-pair start offset on the simulated clock")
    p.add_argument("--key-bits", type=int, default=512, metavar="N",
                   help="RSA modulus size for the fleet's keys (default 512)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the machine-readable report to PATH")
    p.set_defaults(handler=cmd_slo_check)

    p = subparsers.add_parser("version", help="print the library version")
    p.set_defaults(handler=cmd_version)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except PeerTrustError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
