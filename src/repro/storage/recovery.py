"""Peer crash/restart recovery over :class:`~repro.storage.store.StateStore`.

What persists
    A peer's store holds what outlives a negotiation: its credential
    wallet.  :func:`bind_peer` attaches a store to one peer on a transport
    and mirrors every wallet insert/removal into the ``wallet`` namespace,
    keyed by serial, as it happens.

    Session state — disclosure overlays, disclosure-delta wire ledgers,
    cached replies, goal tables, release decisions, certified answers —
    lives in RAM only and dies with the process.  A negotiation is
    released as soon as it ends, so a disk copy of its state would be
    written on every event and read on none.

The recovery side
    :func:`crash_peer` models process death *in place*: wallet and overlay
    contents vanish from the very objects suspended evaluations captured,
    ledger entries on the peer's links disappear, and its cached replies,
    release decisions and certified answers are dropped.
    :func:`recover_peer` restores the wallet from the store.  A live
    session continues *cold* for the restarted peer: replayed
    requests are evaluated again, repeat credentials re-ship in full, and
    credentials disclosed to it earlier in the session are asked for
    again — a branch may lose answers, never gain unverified ones.
    :func:`restart_peer` composes both, and :func:`schedule_crash_restart`
    puts the whole outage — fault-plan crash window plus the restart
    event — on the event scheduler, so a peer can die and come back
    mid-fleet.

Everything here is deterministic: no wall clock, no randomness, and with
no store attached the wallet has no sink, so the default path stays
byte-identical to the pre-storage behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import flightrec as _flightrec
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serialize import credential_from_dict, credential_to_dict
from repro.storage.store import StateStore

RECOVERIES = _metrics.global_registry().counter(
    "peertrust_recovery_total",
    help="peer restarts, by outcome (warm = state store attached)",
    labels=("outcome",))
RESTORED_ITEMS = _metrics.global_registry().counter(
    "peertrust_recovery_restored_total",
    help="state items restored from peer stores, by kind",
    labels=("kind",))
RECOVERY_ITEMS = _metrics.global_registry().histogram(
    "peertrust_recovery_items",
    buckets=(0, 1, 2, 5, 10, 20, 50, 100, 250, 1000),
    help="total items restored per recovery")
RECOVERY_MS = _metrics.global_registry().histogram(
    "peertrust_recovery_ms", buckets=_metrics.DEFAULT_MS_BUCKETS,
    help="simulated outage duration per scheduled crash/restart cycle")

WALLET = "wallet"  # the one namespace a peer's store holds


@dataclass
class RecoveryReport:
    """What one :func:`recover_peer` call restored."""

    peer: str
    warm: bool = False
    credentials: int = 0
    torn_journal_lines: int = 0


class StoreSink:
    """Write-through sink mirroring a peer's wallet (a
    :class:`CredentialStore`) into its store's ``wallet`` namespace."""

    __slots__ = ("store",)

    def __init__(self, store: StateStore) -> None:
        self.store = store

    def added(self, credential) -> None:
        self.store.put(WALLET, credential.serial,
                       credential_to_dict(credential))

    def removed(self, serial: str) -> None:
        self.store.delete(WALLET, serial)


# ---------------------------------------------------------------------------
# Attach / crash / recover
# ---------------------------------------------------------------------------

def bind_peer(transport, peer_name: str, store: StateStore) -> None:
    """Start wallet write-through for ``peer_name``; called by
    :meth:`Transport.attach_state_store`.  The wallet's current contents
    are snapshotted into the store, so attach-mid-run is safe."""
    peer = transport.registry.get(peer_name)
    peer.credentials.bind_sink(StoreSink(store), replay=True)


def crash_peer(transport, peer_name: str) -> None:
    """Tear down ``peer_name``'s in-memory state, *in place* — the wallet
    and overlay objects captured by suspended evaluations empty out exactly
    as a dead process's heap would.  The attached store (the "disk") is
    untouched; unbinding the wallet's sink first keeps it that way."""
    peer = transport.registry.get(peer_name)
    _flightrec.RECORDER.note(transport.now_ms, "", "crash", peer_name, "",
                             "in-memory state torn down")
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.event("peer.crash", peer=peer_name)
    peer.credentials.unbind_sink()
    peer.credentials.clear()
    # Self-signed credentials are content-addressed (deterministic serials),
    # so dropping the memo only costs re-issuance.
    peer.__dict__.pop("_self_credentials", None)
    for session in transport.sessions.sessions():
        overlay = session._received.get(peer_name)
        if overlay is not None:
            overlay.clear()
        for link in [link for link in session._wire_ledger
                     if peer_name in link]:
            del session._wire_ledger[link]
        for holders in session._holders.values():
            holders.discard(peer_name)
        # Loop/tabling state is evaluation-stack residue, not durable state:
        # a restarted peer has no suspended evaluations, so it must not
        # inherit phantom in-flight markers (which would make fresh queries
        # look re-entrant) or goal tables (whose ACTIVE/TENTATIVE entries
        # belong to the dead process's call stack).
        for entry in [entry for entry in session.in_flight
                      if entry[0] == peer_name]:
            session.in_flight.discard(entry)
        session.drop_tables_for(peer_name)
        session.drop_decisions_for(peer_name)
    for cache in transport._reply_cache.values():
        for key in [key for key in cache if key[1] == peer_name]:
            del cache[key]
    for delivered in transport._delivered_oneway.values():
        for key in [key for key in delivered if key[1] == peer_name]:
            delivered.discard(key)


def recover_peer(transport, peer_name: str) -> RecoveryReport:
    """Restore ``peer_name``'s wallet from its attached store.  Without a
    store this is a *cold* restart: nothing comes back, and the peer
    re-earns every disclosure."""
    store = transport.state_stores.get(peer_name)
    report = RecoveryReport(peer=peer_name, warm=store is not None)
    if store is None:
        RECOVERIES.labels("cold").inc()
        _flightrec.dump_recovery(transport, peer_name,
                                 {"warm": False, "restored_items": 0})
        return report
    peer = transport.registry.get(peer_name)
    tracer = _trace.ACTIVE
    span = None
    if tracer is not None:
        span = tracer.begin("peer.recover", peer=peer_name,
                            backend=store.backend)
    try:
        report.torn_journal_lines = store.take_torn_lines()
        for data in store.items(WALLET).values():
            if peer.credentials.add(credential_from_dict(data)):
                report.credentials += 1
        peer.credentials.bind_sink(StoreSink(store), replay=False)
    finally:
        RECOVERIES.labels("warm").inc()
        if report.credentials:
            RESTORED_ITEMS.labels("credential").inc(report.credentials)
        RECOVERY_ITEMS.observe(report.credentials)
        if tracer is not None and span is not None:
            tracer.end(span, warm=True, credentials=report.credentials)
        _flightrec.dump_recovery(transport, peer_name, {
            "warm": True,
            "restored_items": report.credentials,
            "credentials": report.credentials,
            "torn_journal_lines": report.torn_journal_lines,
        })
    return report


def restart_peer(transport, peer_name: str) -> RecoveryReport:
    """One atomic restart: the process dies (in-memory state lost) and
    comes back up from whatever its store holds."""
    crash_peer(transport, peer_name)
    return recover_peer(transport, peer_name)


def schedule_crash_restart(transport, peer_name: str, at_ms: float,
                           until_ms: float) -> None:
    """Arrange a *survivable* outage mid-fleet: messages to/from
    ``peer_name`` fail for simulated clock in ``[at_ms, until_ms)`` (a
    fault-plan crash window), and at ``until_ms`` the peer restarts from its
    store.  Requesters with patient retry policies ride it out; with a
    store attached the restarted peer comes back with its wallet."""
    from repro.net.faults import FaultPlan
    from repro.runtime.scheduler import scheduler_for

    if transport.faults is None:
        transport.faults = FaultPlan()
    transport.faults.crash(peer_name, at_ms, until_ms)
    scheduler = scheduler_for(transport)

    def _restart() -> None:
        restart_peer(transport, peer_name)
        # The outage the fleet actually saw: crash-window open to restart.
        RECOVERY_MS.observe(max(0.0, until_ms - at_ms))

    scheduler.schedule(max(0.0, until_ms - transport.now_ms),
                       f"restart {peer_name}", _restart)
