"""The three benchmark workloads.

Each workload builds its world in :meth:`build` (the part ``setup_s``
times), then runs one *operation* per :meth:`step` call and reports what
the operation produced.  Every step checks its outcome against the
expected one; a mismatch is returned as a failed operation rather than
raised, so the run counts it in ``failed``.

All inputs derive from the workload seed: the fault-plan seed of
``fleet`` and the write schedule of ``elearn_churn``.  ``gem_durable``
takes no random input; its seed only names the run.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.datalog.parser import parse_literal, parse_rule
from repro.determinism import reset_all
from repro.negotiation.strategies import negotiate
from repro.net.faults import uniform_plan
from repro.net.transport import RetryPolicy
from repro.scenarios import elearn, services
from repro.storage import recovery
from repro.workloads.generator import (
    build_bilateral_fleet,
    build_mutual_membership_workload,
)

KEY_BITS = 512
"""The key size of the repository's own benchmark suite."""


@dataclass
class OpResult:
    """What one operation did.  ``sim_ms`` holds one simulated duration per
    negotiation; ``bytes`` and ``messages`` are wire totals."""

    negotiations: int
    good: int
    sim_ms: list = field(default_factory=list)
    bytes: int = 0
    messages: int = 0

    @property
    def ok(self) -> bool:
        return self.good == self.negotiations


def _wire(transport) -> tuple[int, int]:
    stats = transport.stats
    return stats.bytes, stats.messages


def _single(transport, requester, provider: str, goal, check) -> OpResult:
    """One ``negotiate`` call, its outcome judged by ``check(result)``."""
    bytes0, messages0 = _wire(transport)
    start_ms = transport.now_ms
    result = negotiate(requester, provider, goal)
    bytes1, messages1 = _wire(transport)
    return OpResult(1, int(check(result)), [transport.now_ms - start_ms],
                    bytes1 - bytes0, messages1 - messages0)


class Workload:
    name = ""
    # Operations of the timed phase whose wire and simulated-time figures
    # must repeat exactly for a seed: the run lasts at least this long.
    fixed_ops = 1
    # Operations in the untimed warm-up pass.
    warmup_ops = 1

    def __init__(self, seed: int, scratch_dir: str) -> None:
        self.seed = seed
        self.scratch_dir = scratch_dir

    def build(self) -> None:
        raise NotImplementedError

    def step(self, index: int) -> OpResult:
        raise NotImplementedError

    def transports(self) -> list:
        raise NotImplementedError

    def journal_bytes(self) -> int:
        return 0

    def close(self) -> None:
        pass


class Fleet(Workload):
    """64 bilateral pairs interleaved on one scheduler, under a seeded
    drop/duplicate plan with retries.  One operation is one ``run_many``
    round over every pair; every pair must be granted."""

    name = "fleet"
    pairs = 64
    fixed_ops = 20
    warmup_ops = 2

    def build(self) -> None:
        reset_all()
        self.fleet = build_bilateral_fleet(self.pairs, key_bits=KEY_BITS)
        world = self.fleet.world
        world.inject_faults(uniform_plan(seed=self.seed, drop=0.03,
                                         duplicate=0.03))
        world.set_retry(RetryPolicy(max_attempts=5))

    def transports(self) -> list:
        return [self.fleet.world.transport]

    def step(self, index: int) -> OpResult:
        transport = self.fleet.world.transport
        bytes0, messages0 = _wire(transport)
        report = self.fleet.run_interleaved()
        bytes1, messages1 = _wire(transport)
        return OpResult(len(report.results), report.granted,
                        [end - start for start, end in report.spans],
                        bytes1 - bytes0, messages1 - messages0)


class ElearnChurn(Workload):
    """The paper's section 4.1 discount enrollment and section 4.2 free and
    paid enrollments, in rotation.  One operation in ten first applies a
    write to VISA's knowledge base, given as policy text: it loads the
    ``revokedCard("IBM")`` fact, or removes it when it is present.  Paid
    enrollment is granted exactly while the card is not revoked.  The seed
    places the write inside each block of ten operations."""

    name = "elearn_churn"
    fixed_ops = 300
    warmup_ops = 30
    REVOKED = 'revokedCard("IBM").'

    def build(self) -> None:
        reset_all()
        self.alice_world = elearn.build_scenario1(key_bits=KEY_BITS)
        self.bob_world = services.build_scenario2(key_bits=KEY_BITS)
        self.goals = (
            parse_literal('discountEnroll(Course, "Alice")'),
            parse_literal('enroll(cs101, "Bob", Company, Email, 0)'),
            parse_literal('enroll(cs411, "Bob", "IBM", Email, Price)'),
        )
        self.revoked = False
        self._schedule = random.Random(self.seed)
        self._write_at = -1

    def transports(self) -> list:
        return [self.alice_world.transport, self.bob_world.transport]

    def _maybe_write(self, index: int) -> None:
        block, offset = divmod(index, 10)
        if offset == 0:
            self._write_at = block * 10 + self._schedule.randrange(10)
        if index != self._write_at:
            return
        kb = self.bob_world.visa.kb
        if self.revoked:
            kb.remove(parse_rule(self.REVOKED))
        else:
            kb.load(self.REVOKED)
        self.revoked = not self.revoked

    def step(self, index: int) -> OpResult:
        self._maybe_write(index)
        kind = index % 3
        goal = self.goals[kind]
        if kind == 0:
            world = self.alice_world
            return _single(world.transport, world.alice, "E-Learn", goal,
                           lambda result: result.granted)
        world = self.bob_world
        expected = kind == 1 or not self.revoked
        return _single(world.transport, world.bob, "E-Learn", goal,
                       lambda result: result.granted == expected)


def _journal_size(store) -> int:
    return os.path.getsize(os.path.join(store.directory, store.JOURNAL))


class GemDurable(Workload):
    """Mutually recursive membership policies over three organisation
    pairs, evaluated with GEM distributed tabling, every peer journaling
    to a durable store.  Every 20th operation first restarts one
    organisation peer from its store and compacts that store; the peers
    take turns.  Every negotiation must return exactly six answers."""

    name = "gem_durable"
    depth = 2
    fixed_ops = 60
    warmup_ops = 6

    def build(self) -> None:
        reset_all()
        self.workload = build_mutual_membership_workload(self.depth,
                                                         key_bits=KEY_BITS)
        world = self.workload.world
        world.transport.tabling = "gem"
        os.makedirs(self.scratch_dir, exist_ok=True)
        self.state_dir = tempfile.mkdtemp(prefix="gem-", dir=self.scratch_dir)
        self.stores = world.attach_state_stores("durable",
                                                state_dir=self.state_dir)
        self.orgs = sorted(name for name in world.peers
                           if name.startswith("Org"))
        pairs = self.depth + 1
        self.expected = frozenset(
            f'member("m{level}{side}")'
            for level in range(pairs) for side in "ab")
        self._journalled = 0

    def transports(self) -> list:
        return [self.workload.world.transport]

    def step(self, index: int) -> OpResult:
        transport = self.workload.world.transport
        if index % 20 == 19:
            org = self.orgs[(index // 20) % len(self.orgs)]
            recovery.restart_peer(transport, org)
            store = self.stores[org]
            self._journalled += _journal_size(store)
            store.checkpoint()

        def check(result) -> bool:
            answers = frozenset(str(literal) for literal, _ in result.answers)
            return (result.granted and len(result.answers) == len(self.expected)
                    and answers == self.expected)

        return _single(transport, self.workload.requester,
                       self.workload.provider_name, self.workload.goal, check)

    def journal_bytes(self) -> int:
        return self._journalled + sum(
            _journal_size(store) for store in self.stores.values())

    def close(self) -> None:
        self.workload.world.detach_state_stores()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        try:
            os.rmdir(self.scratch_dir)
        except OSError:
            pass  # another run's state is still there


WORKLOADS = {cls.name: cls for cls in (Fleet, ElearnChurn, GemDurable)}
