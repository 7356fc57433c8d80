"""Parametric negotiation-workload generators.

Every builder returns a :class:`Workload`: a world, the requesting peer,
the provider name, and the goal to negotiate.  Builders are deterministic
given their parameters (and ``seed`` where randomness is involved), so
benchmark runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datalog.ast import Literal
from repro.datalog.parser import parse_literal
from repro.negotiation.peer import Peer
from repro.negotiation.result import NegotiationResult
from repro.negotiation.strategies import negotiate
from repro.world import World


@dataclass
class Workload:
    """A ready-to-run negotiation."""

    world: World
    requester: Peer
    provider_name: str
    goal: Literal
    description: str = ""
    expect_success: bool = True

    def run(self, strategy: str = "parsimonious") -> NegotiationResult:
        return negotiate(self.requester, self.provider_name, self.goal,
                         strategy=strategy)


# ---------------------------------------------------------------------------
# E4: delegation chains
# ---------------------------------------------------------------------------

def build_delegation_chain(length: int, key_bits: int = 512,
                           max_nesting: int = 64) -> Workload:
    """A resource guarded by one credential whose authority delegates
    through ``length`` signed rules (the registrar pattern of §3.1,
    stretched)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    world = World(key_bits=key_bits)
    server = world.add_peer("Server", max_nesting=max_nesting)
    client = world.add_peer("Client", max_nesting=max_nesting)
    server.load_program(
        'resource(Requester) $ true <- '
        'member(Requester) @ "Root" @ Requester.')
    client.load_program(
        'member(X) @ Y $ true <-{true} member(X) @ Y.')

    for level in range(length):
        world.issuer(f"Auth{level}")
    world.distribute_keys()

    lines = []
    for level in range(length - 1):
        upper = "Root" if level == 0 else f"Auth{level}"
        lower = f"Auth{level + 1}"
        lines.append(f'member(X) @ "{upper}" <- signedBy ["{upper}"] '
                     f'member(X) @ "{lower}".')
    leaf = "Root" if length == 1 else f"Auth{length - 1}"
    lines.append(f'member("Client") @ "{leaf}" signedBy ["{leaf}"].')
    # "Root" must exist as an issuer even when length == 1.
    world.issuer("Root")
    world.distribute_keys()
    world.give_credentials("Client", "\n".join(lines))

    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description=f"delegation chain length={length}")


# ---------------------------------------------------------------------------
# E5: policy trees
# ---------------------------------------------------------------------------

def build_policy_tree(depth: int, branching: int, key_bits: int = 512) -> Workload:
    """A resource guarded by a policy tree: internal predicates fan out with
    the given ``branching`` down to ``depth``; each leaf demands one client
    credential.  Leaf count = branching ** depth."""
    if depth < 1 or branching < 1:
        raise ValueError("depth and branching must be >= 1")
    world = World(key_bits=key_bits)
    server = world.add_peer("Server")
    client = world.add_peer("Client")

    rules: list[str] = []
    leaves: list[str] = []

    def expand(node: str, level: int) -> None:
        if level == depth:
            leaves.append(node)
            return
        children = [f"{node}_{i}" for i in range(branching)]
        body = ", ".join(f"pol_{child}(Requester)" for child in children)
        rules.append(f"pol_{node}(Requester) <- {body}.")
        for child in children:
            expand(child, level + 1)

    expand("r", 0)
    for leaf in leaves:
        rules.append(f'pol_{leaf}(Requester) <- '
                     f'cred_{leaf}(Requester) @ "CA_{leaf}" @ Requester.')
    rules.insert(0, "resource(Requester) $ true <- pol_r(Requester).")
    server.load_program("\n".join(rules))

    client.load_program("\n".join(
        f'cred_{leaf}(X) @ Y $ true <-{{true}} cred_{leaf}(X) @ Y.'
        for leaf in leaves))
    for leaf in leaves:
        world.issuer(f"CA_{leaf}")
    world.distribute_keys()
    world.give_credentials("Client", "\n".join(
        f'cred_{leaf}("Client") signedBy ["CA_{leaf}"].' for leaf in leaves))

    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description=f"policy tree depth={depth} branching={branching}")


# ---------------------------------------------------------------------------
# E6: alternating bilateral release chains
# ---------------------------------------------------------------------------

def build_alternating_chain(rounds: int, key_bits: int = 512,
                            max_nesting: int = 0) -> Workload:
    """Client and server credentials locked against each other in an
    alternating chain of the given depth.

    resource needs c0; releasing c_i needs s_(i+1); releasing s_j needs c_j;
    the deepest client credential is unconditionally releasable.  A safe
    disclosure sequence always exists (the chain is acyclic), so both the
    eager and parsimonious strategies must succeed — with very different
    message/disclosure profiles (experiment E6).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    nesting = max_nesting or (4 * rounds + 12)
    world = World(key_bits=key_bits)
    server = world.add_peer("Server", max_nesting=nesting)
    client = world.add_peer("Client", max_nesting=nesting)

    server_rules = ['resource(Requester) $ true <- '
                    'c0(Requester) @ "CCA0" @ Requester.']
    client_rules = []
    server_creds = []
    client_creds = []

    for i in range(rounds):
        if i < rounds - 1:
            client_rules.append(
                f'c{i}(X) @ Y $ s{i + 1}(Requester) @ "SCA{i + 1}" @ Requester '
                f'<-{{true}} c{i}(X) @ Y.')
            server_rules.append(
                f's{i + 1}(X) @ Y $ c{i + 1}(Requester) @ "CCA{i + 1}" @ Requester '
                f'<-{{true}} s{i + 1}(X) @ Y.')
            server_creds.append(f's{i + 1}("Server") signedBy ["SCA{i + 1}"].')
        else:
            client_rules.append(f'c{i}(X) @ Y $ true <-{{true}} c{i}(X) @ Y.')
        client_creds.append(f'c{i}("Client") signedBy ["CCA{i}"].')
        world.issuer(f"CCA{i}")
        world.issuer(f"SCA{i + 1}")

    server.load_program("\n".join(server_rules))
    client.load_program("\n".join(client_rules))
    world.distribute_keys()
    world.give_credentials("Server", "\n".join(server_creds) if server_creds else "")
    world.give_credentials("Client", "\n".join(client_creds))

    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description=f"alternating chain rounds={rounds}")


# ---------------------------------------------------------------------------
# E9: n-peer vouching rings
# ---------------------------------------------------------------------------

def build_peer_ring(peer_count: int, key_bits: int = 512) -> Workload:
    """``peer_count`` peers where P0's resource requires a vouching
    statement from P1, which requires one from P2, ...; the last peer holds
    a local fact.  Exercises n-peer negotiation and answer credentials."""
    if peer_count < 2:
        raise ValueError("peer_count must be >= 2")
    world = World(key_bits=key_bits)
    nesting = 2 * peer_count + 10
    peers = []
    for index in range(peer_count):
        peers.append(world.add_peer(f"P{index}", max_nesting=nesting))
    client = world.add_peer("Client", max_nesting=nesting)

    peers[0].load_program(
        'resource(Requester) $ true <- vouch0(Requester) @ "P1".')
    for index in range(1, peer_count):
        if index < peer_count - 1:
            peers[index].load_program(
                f"vouch{index - 1}(X) $ true <- "
                f'vouch{index}(X) @ "P{index + 1}".')
        else:
            peers[index].load_program(
                f"vouch{index - 1}(X) $ true <- goodStanding(X).\n"
                'goodStanding("Client").')
    world.distribute_keys()

    return Workload(world, client, "P0",
                    parse_literal('resource("Client")'),
                    description=f"vouching ring peers={peer_count}")


# ---------------------------------------------------------------------------
# E15: delegation fan-out (scatter-gather width sweeps)
# ---------------------------------------------------------------------------

def build_fanout_workload(width: int, key_bits: int = 512) -> Workload:
    """A resource requiring one vouching statement from each of ``width``
    *distinct* peers: ``resource(R) <- vouch0(R) @ "P0", ..``.

    Once the requester is bound, the body literals are ground and share no
    variables, so all ``width`` remote sub-queries are independent — the
    canonical scatter-gather shape.  Sequentially the negotiation costs
    ~``width`` round-trips; gathered, one."""
    if width < 1:
        raise ValueError("width must be >= 1")
    world = World(key_bits=key_bits)
    body = ", ".join(f'vouch{i}(Requester) @ "P{i}"' for i in range(width))
    world.add_peer("Server", f"resource(Requester) $ true <- {body}.")
    client = world.add_peer("Client")
    for i in range(width):
        world.add_peer(
            f"P{i}",
            f"vouch{i}(X) $ true <- good{i}(X).\n"
            f'good{i}("Client").')
    world.distribute_keys()
    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description=f"delegation fan-out width={width}")


# ---------------------------------------------------------------------------
# E18: mutually recursive cross-peer policies (tabling depth sweeps)
# ---------------------------------------------------------------------------

def build_mutual_membership_workload(depth: int = 1,
                                     key_bits: int = 512) -> Workload:
    """A federation of ``depth + 1`` institution pairs with mutually
    recursive membership policies, generalising
    :mod:`repro.scenarios.mutual_membership`.

    ``Org0a``/``Org0b`` recognise each other's members directly; each
    deeper pair additionally delegates to the pair above it, so the goal
    ``member(X)`` on ``Org0a`` crosses ``depth`` nested mutual cycles
    before bottoming out.  Every ``Org<i><side>`` holds one local member,
    so the complete answer relation has ``2 * (depth + 1)`` tuples."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    world = World(key_bits=key_bits)
    pair_count = depth + 1
    answers = 2 * pair_count
    nesting = 6 * pair_count + 20
    for level in range(pair_count):
        for side, other in (("a", "b"), ("b", "a")):
            lines = [
                "member(X) <-{true} localMember(X).",
                f'member(X) <-{{true}} member(X) @ "Org{level}{other}".',
                f'localMember("m{level}{side}").',
            ]
            if level + 1 < pair_count:
                lines.append(
                    f'member(X) <-{{true}} member(X) @ "Org{level + 1}{side}".')
            world.add_peer(f"Org{level}{side}", "\n".join(lines),
                           max_answers=answers + 2, max_nesting=nesting)
    client = world.add_peer("Client", max_answers=answers + 2,
                            max_nesting=nesting)
    world.distribute_keys()
    return Workload(world, client, "Org0a", parse_literal("member(X)"),
                    description=f"mutual membership depth={depth}")


# ---------------------------------------------------------------------------
# E10: negotiations that must terminate in failure
# ---------------------------------------------------------------------------

def build_cyclic_release(key_bits: int = 512) -> Workload:
    """Deadlocked release policies: the client credential unlocks only on a
    server credential and vice versa.  No safe disclosure sequence exists —
    every strategy must terminate with failure (E10)."""
    world = World(key_bits=key_bits)
    server = world.add_peer("Server")
    client = world.add_peer("Client")
    server.load_program(
        'resource(Requester) $ true <- cA(Requester) @ "CCA" @ Requester.\n'
        'sB(X) @ Y $ cA(Requester) @ "CCA" @ Requester <-{true} sB(X) @ Y.')
    client.load_program(
        'cA(X) @ Y $ sB(Requester) @ "SCA" @ Requester <-{true} cA(X) @ Y.')
    world.issuer("CCA")
    world.issuer("SCA")
    world.distribute_keys()
    world.give_credentials("Client", 'cA("Client") signedBy ["CCA"].')
    world.give_credentials("Server", 'sB("Server") signedBy ["SCA"].')
    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description="cyclic release deadlock",
                    expect_success=False)


def build_divergent_world(key_bits: int = 512) -> Workload:
    """A server policy that recurses through a growing term
    (``spiral(X) <- spiral(wrap(X))``): only the engine's depth bound stops
    it.  Terminates with failure in bounded time (E10)."""
    world = World(key_bits=key_bits)
    server = world.add_peer("Server", max_depth=60)
    client = world.add_peer("Client")
    server.load_program(
        "resource(Requester) $ true <- spiral(seed).\n"
        "spiral(X) <- spiral(wrap(X)).")
    world.distribute_keys()
    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description="divergent recursion (depth-bounded)",
                    expect_success=False)


# ---------------------------------------------------------------------------
# Randomised bilateral workloads (property tests, strategy comparisons)
# ---------------------------------------------------------------------------

def build_random_bilateral(
    seed: int,
    client_credentials: int = 4,
    lock_probability: float = 0.6,
    key_bits: int = 512,
) -> Workload:
    """A randomized two-party workload with an acyclic release-dependency
    graph (so a safe disclosure sequence always exists when the resource's
    required credentials are present).

    Client credentials ``c0..cN-1``; each may be locked on a server
    credential, which in turn may be locked on a strictly later client
    credential (index order gives acyclicity).  The resource requires a
    random non-empty subset of client credentials.
    """
    generator = random.Random(seed)
    world = World(key_bits=key_bits)
    nesting = 6 * client_credentials + 20
    server = world.add_peer("Server", max_nesting=nesting)
    client = world.add_peer("Client", max_nesting=nesting)

    client_rules, server_rules = [], []
    client_creds, server_creds = [], []
    required = sorted(generator.sample(
        range(client_credentials),
        generator.randint(1, client_credentials)))

    for i in range(client_credentials):
        client_creds.append(f'c{i}("Client") signedBy ["CCA{i}"].')
        world.issuer(f"CCA{i}")
        locked = generator.random() < lock_probability and i < client_credentials - 1
        if locked:
            client_rules.append(
                f'c{i}(X) @ Y $ s{i}(Requester) @ "SCA{i}" @ Requester '
                f'<-{{true}} c{i}(X) @ Y.')
            server_creds.append(f's{i}("Server") signedBy ["SCA{i}"].')
            world.issuer(f"SCA{i}")
            if generator.random() < lock_probability:
                unlock_index = generator.randint(i + 1, client_credentials - 1)
                server_rules.append(
                    f's{i}(X) @ Y $ c{unlock_index}(Requester) '
                    f'@ "CCA{unlock_index}" @ Requester <-{{true}} s{i}(X) @ Y.')
            else:
                server_rules.append(
                    f's{i}(X) @ Y $ true <-{{true}} s{i}(X) @ Y.')
        else:
            client_rules.append(f'c{i}(X) @ Y $ true <-{{true}} c{i}(X) @ Y.')

    body = ", ".join(f'c{i}(Requester) @ "CCA{i}" @ Requester' for i in required)
    server_rules.insert(0, f"resource(Requester) $ true <- {body}.")

    server.load_program("\n".join(server_rules))
    client.load_program("\n".join(client_rules))
    world.distribute_keys()
    if server_creds:
        world.give_credentials("Server", "\n".join(server_creds))
    world.give_credentials("Client", "\n".join(client_creds))

    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description=f"random bilateral seed={seed}")


# ---------------------------------------------------------------------------
# Multiparty workloads (third-party release dependencies)
# ---------------------------------------------------------------------------

def build_third_party_endorsement(provider_hint: bool = False,
                                  key_bits: int = 512) -> Workload:
    """The requester's credential unlocks only on an endorsement of the
    *provider* that a third peer holds.

    Bilaterally this deadlocks: the provider has nothing to push, and
    two-party eager never contacts the endorser.  With ``provider_hint``
    the provider gains a delegation-hint rule so *parsimonious* evaluation
    can fetch the endorsement itself; without it, only multiparty eager
    negotiation (endorser included as a participant) succeeds.
    """
    world = World(key_bits=key_bits)
    server_program = (
        'resource(Requester) $ true <- c0(Requester) @ "CCA" @ Requester.\n')
    if provider_hint:
        server_program += (
            'endorsement(X) @ "TCA" <-{true} '
            'endorsement(X) @ "TCA" @ "Endorser".\n')
    server = world.add_peer("Server", server_program)
    client = world.add_peer("Client", (
        'c0(X) @ Y $ endorsement(Requester) @ "TCA" @ Requester '
        '<-{true} c0(X) @ Y.'))
    endorser = world.add_peer("Endorser", (
        'endorsement(X) @ Y $ true <-{true} endorsement(X) @ Y.'))
    world.issuer("CCA")
    world.issuer("TCA")
    world.distribute_keys()
    world.give_credentials("Client", 'c0("Client") signedBy ["CCA"].')
    world.give_credentials("Endorser",
                           'endorsement("Server") signedBy ["TCA"].')
    return Workload(world, client, "Server",
                    parse_literal('resource("Client")'),
                    description="third-party endorsement"
                    + (" (with hint)" if provider_hint else ""))


# ---------------------------------------------------------------------------
# E14: interleaved-negotiation fleets (one transport, many bilateral pairs)
# ---------------------------------------------------------------------------

@dataclass
class FleetWorkload:
    """``pair_count`` independent client/server negotiations sharing one
    world (and hence one transport, clock, and event scheduler) — the input
    shape of :func:`repro.runtime.run_many` and the E14 benchmark."""

    world: World
    specs: list  # list[repro.runtime.NegotiationSpec]
    description: str = ""

    def run_serial(self) -> list[NegotiationResult]:
        """One at a time through the synchronous facade (the baseline the
        interleaved run is compared against)."""
        from repro.runtime import run_negotiation

        return [run_negotiation(spec.requester, spec.provider, spec.goal,
                                deadline_ms=spec.deadline_ms)
                for spec in self.specs]

    def run_interleaved(self, stagger_ms: float = 0.0):
        from repro.runtime import run_many

        return run_many(self.specs, stagger_ms=stagger_ms)

    def run_against_slo(self, spec, stagger_ms: float = 0.0):
        """Run interleaved and score the run against an SLO spec.

        Installs the default registry collectors, snapshots the registry
        around the run, feeds each negotiation's span into the
        per-negotiation sim-latency histogram, and evaluates ``spec`` over
        the snapshot delta (absolute samples serve the point-in-time
        gauges).  Returns ``(ConcurrencyReport, SLOReport)`` — the second
        is the machine-readable pass/fail verdict."""
        from repro.obs.metrics import global_registry, install_default_collectors
        from repro.obs.slo import evaluate
        from repro.workloads.metrics import observe_negotiation_span

        install_default_collectors()
        registry = global_registry()
        self.world.transport.reset_stats()
        before = registry.snapshot()
        report = self.run_interleaved(stagger_ms=stagger_ms)
        for start_ms, end_ms in report.spans:
            observe_negotiation_span(end_ms - start_ms)
        after = registry.snapshot()
        window = registry.delta(before, after)
        return report, evaluate(spec, window, absolute=after)


def build_bilateral_fleet(pair_count: int, key_bits: int = 512) -> FleetWorkload:
    """``pair_count`` disjoint client/server pairs, each negotiating the
    quickstart handshake (a release guard answered by one client
    credential) on one shared transport.  Deterministic given its
    parameters, so interleaved runs replay identically."""
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    from repro.runtime import NegotiationSpec

    world = World(key_bits=key_bits)
    specs = []
    for index in range(pair_count):
        world.add_peer(
            f"Server{index}",
            f'hello{index}(Requester) $ true <- '
            f'friend{index}(Requester) @ "CA{index}" @ Requester.')
        client = world.add_peer(
            f"Client{index}",
            f'friend{index}(X) @ Y $ true <-{{true}} friend{index}(X) @ Y.')
        world.issuer(f"CA{index}")
        world.give_credentials(
            f"Client{index}",
            f'friend{index}("Client{index}") signedBy ["CA{index}"].')
        specs.append(NegotiationSpec(
            requester=client,
            provider=f"Server{index}",
            goal=parse_literal(f'hello{index}("Client{index}")'),
        ))
    world.distribute_keys()
    return FleetWorkload(world, specs,
                         description=f"bilateral fleet x{pair_count}")
