"""E9 — Network-size sweep: n-peer negotiations.

The vouching-ring workload chains a query across n peers, each of which
must answer (with a signed assertion) before the previous hop can grant.
Messages grow as 2n (query/answer per hop) and simulated latency
accumulates per hop — the negotiation-depth cost of peer-to-peer trust
without any central server, plus the brokered-authority variant from §4.2.
"""

import time

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.determinism import reset_all
from repro.scenarios.services import build_scenario2, run_paid_enrollment
from repro.workloads.generator import build_peer_ring
from repro.workloads.metrics import measure_negotiation

RING_SIZES = (2, 4, 8, 16)


def test_e9_peer_ring_sweep(benchmark):
    rows = []
    for size in RING_SIZES:
        reset_all()  # fresh-variable names, hence bytes, start from fixed counters
        workload = build_peer_ring(size, key_bits=KEY_BITS)
        started = time.perf_counter()
        result, report = measure_negotiation(workload)
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert result.granted
        rows.append({
            "peers": size,
            "messages": report.messages,
            "bytes": report.bytes,
            "sim_ms": round(report.simulated_ms, 2),
            "wall_ms": round(elapsed_ms, 2),
        })
    print_table(rows, title="E9 - n-peer vouching rings")

    # Shape: messages exactly 2n (one query+answer per hop incl. the client).
    for row in rows:
        assert row["messages"] == 2 * row["peers"]

    def ring_of_8():
        workload = build_peer_ring(8, key_bits=KEY_BITS)
        result, _ = measure_negotiation(workload)
        assert result.granted

    benchmark(ring_of_8)


def test_e9_broker_lookup_cost(benchmark):
    rows = []
    for label, use_broker in (("direct authority", False), ("via broker", True)):
        reset_all()
        scenario = build_scenario2(key_bits=KEY_BITS, use_broker=use_broker)
        scenario.world.reset_metrics()
        result = run_paid_enrollment(scenario)
        assert result.granted
        rows.append({
            "routing": label,
            "messages": scenario.world.stats.messages,
            "bytes": scenario.world.stats.bytes,
        })
    print_table(rows, title="E9 - authority broker overhead (Scenario 2 paid)")
    assert rows[1]["messages"] > rows[0]["messages"]

    def brokered_once():
        scenario = build_scenario2(key_bits=KEY_BITS, use_broker=True)
        result = run_paid_enrollment(scenario)
        assert result.granted

    benchmark(brokered_once)


def test_e9_superpeer_topology(benchmark):
    """Super-peer hypercube sweep: the same negotiation pays more simulated
    latency the farther apart the parties sit in the cube (the Edutella
    routing substrate of the paper's §1)."""
    import time

    from repro.datalog.parser import parse_literal
    from repro.negotiation.strategies import negotiate
    from repro.net.superpeer import SuperPeerNetwork
    from repro.world import World

    rows = []
    for cube_label, position in (("same super-peer", 0b000),
                                 ("1 cube hop", 0b001),
                                 ("2 cube hops", 0b011),
                                 ("3 cube hops", 0b111)):
        reset_all()
        world = World(key_bits=KEY_BITS)
        server = world.add_peer("Server",
                                'resource(Requester) $ true <- '
                                'token(Requester) @ "CA" @ Requester.')
        client = world.add_peer("Client",
                                'token(X) @ Y $ true <-{true} token(X) @ Y.')
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Client", 'token("Client") signedBy ["CA"].')
        network = SuperPeerNetwork(world, superpeer_count=8, hop_latency_ms=2.0)
        network.assign("Server", 0b000)
        network.assign("Client", position)
        world.reset_metrics()
        result = negotiate(client, "Server", parse_literal('resource("Client")'))
        assert result.granted
        rows.append({
            "client position": cube_label,
            "route hops": network.hops("Client", "Server"),
            "messages": world.stats.messages,
            "sim_ms": round(world.stats.simulated_ms, 2),
        })
    print_table(rows, title="E9 - super-peer hypercube distance sweep")

    # Latency strictly increases with cube distance; message count does not.
    sims = [row["sim_ms"] for row in rows]
    assert all(a < b for a, b in zip(sims, sims[1:]))
    assert len({row["messages"] for row in rows}) == 1

    def far_negotiation():
        world = World(key_bits=KEY_BITS)
        world.add_peer("Server",
                       'resource(Requester) $ true <- '
                       'token(Requester) @ "CA" @ Requester.')
        client = world.add_peer("Client",
                                'token(X) @ Y $ true <-{true} token(X) @ Y.')
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Client", 'token("Client") signedBy ["CA"].')
        network = SuperPeerNetwork(world, superpeer_count=8)
        network.assign("Server", 0b000)
        network.assign("Client", 0b111)
        assert negotiate(client, "Server",
                         parse_literal('resource("Client")')).granted

    benchmark(far_negotiation)
