"""Peer crash/restart recovery over :class:`~repro.storage.store.StateStore`.

The write-through side
    :func:`bind_peer` attaches a store to one peer on a transport.  From
    then on, every durable mutation of that peer's state is mirrored into
    the store as it happens:

    - wallet inserts/removals (``wallet`` namespace, keyed by serial);
    - session-overlay absorption (``overlay:<sid>``), via the same
      :class:`CredentialStore` sink mechanism as the wallet;
    - disclosure-delta wire-ledger entries (``ledger:<sid>``) for links the
      peer is on — *both* directions, because "I shipped this payload" and
      "I hold this payload and can resolve references to it" are each one
      peer's durable knowledge;
    - replies this peer computed, mirrored from the transport's idempotent
      reply cache (``replies:<sid>``);
    - session metadata (``sessions``), so recovery knows which sessions to
      re-attach or abort.

The recovery side
    :func:`crash_peer` models process death *in place*: wallet and overlay
    contents vanish from the very objects suspended evaluations captured,
    ledger entries on the peer's links disappear, and its cached replies
    are dropped.  :func:`recover_peer` rebuilds all of it from the store —
    sessions still live in the transport's table are **re-attached**
    (overlays, ledgers, and cached replies land back in the live objects,
    so the continuation table's pending exchanges resume against warm
    state and replayed requests dedupe against restored replies); sessions
    only the store remembers are **aborted** (their namespaces dropped).
    :func:`restart_peer` composes both, and
    :func:`schedule_crash_restart` puts the whole outage — fault-plan
    crash window plus the restart event — on the event scheduler, so a
    peer can die and come back warm mid-fleet.

Everything here is deterministic: no wall clock, no randomness, and with
no store attached every hook is behind a ``None``/empty-dict check, so the
default path stays byte-identical to the pre-storage behaviour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import flightrec as _flightrec
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.storage.store import StateStore, iter_namespace

RECOVERIES = _metrics.global_registry().counter(
    "peertrust_recovery_total",
    help="peer restarts, by outcome (warm = state store attached)",
    labels=("outcome",))
RECOVERED_SESSIONS = _metrics.global_registry().counter(
    "peertrust_recovery_sessions_total",
    help="sessions handled during recovery, by action",
    labels=("action",))
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


def _ledger_key(sender: str, receiver: str, serial: str) -> str:
    return json.dumps([sender, receiver, serial])


def _dedup_key_str(key: tuple) -> str:
    return json.dumps(list(key))


@dataclass
class RecoveryReport:
    """What one :func:`recover_peer` call restored."""

    peer: str
    warm: bool = False
    credentials: int = 0
    overlays: int = 0
    ledger_entries: int = 0
    replies: int = 0
    sessions_reattached: int = 0
    sessions_aborted: int = 0
    torn_journal_lines: int = 0

    @property
    def restored_items(self) -> int:
        return (self.credentials + self.overlays + self.ledger_entries
                + self.replies)


class StoreSink:
    """Write-through sink binding one :class:`CredentialStore` to a store
    namespace (the wallet, or one session overlay)."""

    __slots__ = ("store", "namespace")

    def __init__(self, store: StateStore, namespace: str) -> None:
        self.store = store
        self.namespace = namespace

    def added(self, credential) -> None:
        from repro.storage.codec import credential_to_dict

        self.store.put(self.namespace, credential.serial,
                       credential_to_dict(credential))

    def removed(self, serial: str) -> None:
        self.store.delete(self.namespace, serial)


class SessionPersistence:
    """The transport-side persistence hooks: installed on the
    :class:`~repro.negotiation.session.SessionTable` once any peer has a
    store attached, consulted by sessions as state-bearing events happen."""

    def __init__(self, transport) -> None:
        self.transport = transport

    def _store_for(self, peer_name: str) -> Optional[StateStore]:
        return self.transport.state_stores.get(peer_name)

    def session_created(self, session) -> None:
        meta = {"initiator": session.initiator,
                "max_nesting": session.max_nesting}
        for store in self.transport.state_stores.values():
            store.put("sessions", session.id, meta)

    def overlay_created(self, session, peer_name: str, overlay) -> None:
        store = self._store_for(peer_name)
        if store is not None:
            overlay.bind_sink(StoreSink(store, f"overlay:{session.id}"),
                              replay=True)

    def ledger_noted(self, session, sender: str, receiver: str,
                     serial: str) -> None:
        key = _ledger_key(sender, receiver, serial)
        for name in (sender, receiver):
            store = self._store_for(name)
            if store is not None:
                store.put(f"ledger:{session.id}", key, True)

    def reply_cached(self, message, reply) -> None:
        store = self._store_for(message.receiver)
        if store is not None:
            from repro.storage.codec import message_to_dict

            store.put(f"replies:{message.session_id}",
                      _dedup_key_str(message.dedup_key),
                      message_to_dict(reply))

    def session_evicted(self, session_id: str) -> None:
        for store in self.transport.state_stores.values():
            store.delete("sessions", session_id)
            for namespace in (f"overlay:{session_id}",
                              f"ledger:{session_id}",
                              f"replies:{session_id}"):
                store.drop(namespace)


# ---------------------------------------------------------------------------
# Attach / crash / recover
# ---------------------------------------------------------------------------

def bind_peer(transport, peer_name: str, store: StateStore) -> None:
    """Start write-through persistence for ``peer_name``; called by
    :meth:`Transport.attach_state_store`.  Existing state (wallet contents,
    live-session overlays and ledgers) is snapshotted into the store so
    attach-mid-run is safe."""
    peer = transport.registry.get(peer_name)
    peer.credentials.bind_sink(StoreSink(store, "wallet"), replay=True)
    persistence = transport.sessions.persistence
    for session in transport.sessions.sessions():
        store.put("sessions", session.id,
                  {"initiator": session.initiator,
                   "max_nesting": session.max_nesting})
        overlay = session._received.get(peer_name)
        if overlay is not None:
            overlay.bind_sink(StoreSink(store, f"overlay:{session.id}"),
                              replay=True)
        for (sender, receiver), serials in session._wire_ledger.items():
            if peer_name in (sender, receiver):
                for serial in serials:
                    store.put(f"ledger:{session.id}",
                              _ledger_key(sender, receiver, serial), True)
    if persistence is not None:
        from repro.storage.codec import message_to_dict

        for session_id, cache in transport._reply_cache.items():
            for key, reply in cache.items():
                if key[1] == peer_name:
                    store.put(f"replies:{session_id}", _dedup_key_str(key),
                              message_to_dict(reply))


def crash_peer(transport, peer_name: str) -> None:
    """Tear down ``peer_name``'s in-memory state, *in place* — the wallet
    and overlay objects captured by suspended evaluations empty out exactly
    as a dead process's heap would.  The attached store (the "disk") is
    untouched; unbinding the sinks first keeps it that way."""
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
            overlay.unbind_sink()
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
    for cache in transport._reply_cache.values():
        for key in [key for key in cache if key[1] == peer_name]:
            del cache[key]
    for delivered in transport._delivered_oneway.values():
        for key in [key for key in delivered if key[1] == peer_name]:
            delivered.discard(key)


def recover_peer(transport, peer_name: str) -> RecoveryReport:
    """Rebuild ``peer_name``'s state from its attached store.  Without a
    store this is a *cold* restart: nothing comes back, and the peer
    re-earns every disclosure."""
    store = transport.state_stores.get(peer_name)
    report = RecoveryReport(peer=peer_name, warm=store is not None)
    if store is None:
        RECOVERIES.labels("cold").inc()
        _flightrec.dump_recovery(transport, peer_name,
                                 {"warm": False, "restored_items": 0})
        return report
    from repro.storage.codec import credential_from_dict, message_from_dict

    peer = transport.registry.get(peer_name)
    tracer = _trace.ACTIVE
    span = None
    if tracer is not None:
        span = tracer.begin("peer.recover", peer=peer_name,
                            backend=store.backend)
    try:
        report.torn_journal_lines = getattr(
            store, "recovered", {}).get("torn_lines", 0)
        for data in store.items("wallet").values():
            if peer.credentials.add(credential_from_dict(data)):
                report.credentials += 1
        peer.credentials.bind_sink(StoreSink(store, "wallet"), replay=False)

        for session_id in list(store.items("sessions")):
            live = transport.sessions.get(session_id)
            if live is None:
                # Only the store remembers this session: the negotiation is
                # gone, so abort cleanly — drop its state rather than haul
                # it forward forever.
                report.sessions_aborted += 1
                RECOVERED_SESSIONS.labels("aborted").inc()
                store.delete("sessions", session_id)
                for namespace in (f"overlay:{session_id}",
                                  f"ledger:{session_id}",
                                  f"replies:{session_id}"):
                    store.drop(namespace)
                continue
            report.sessions_reattached += 1
            RECOVERED_SESSIONS.labels("reattached").inc()

            overlay = live.received_for(peer_name)
            overlay.unbind_sink()  # restore without re-journalling
            for data in store.items(f"overlay:{session_id}").values():
                credential = credential_from_dict(data)
                if overlay.add(credential):
                    report.overlays += 1
                live.mark_holder(credential.serial, peer_name)
            overlay.bind_sink(StoreSink(store, f"overlay:{session_id}"),
                              replay=False)

            for key in store.items(f"ledger:{session_id}"):
                sender, receiver, serial = json.loads(key)
                serials = live._wire_ledger.setdefault((sender, receiver),
                                                       set())
                if serial not in serials:
                    serials.add(serial)
                    report.ledger_entries += 1

            cache = transport._reply_cache.setdefault(session_id, {})
            for key, data in store.items(f"replies:{session_id}").items():
                dedup_key = tuple(json.loads(key))
                if dedup_key not in cache:
                    cache[dedup_key] = message_from_dict(data)
                    report.replies += 1
    finally:
        RECOVERIES.labels("warm").inc()
        for kind, count in (("credential", report.credentials),
                            ("overlay", report.overlays),
                            ("ledger", report.ledger_entries),
                            ("reply", report.replies)):
            if count:
                RESTORED_ITEMS.labels(kind).inc(count)
        RECOVERY_ITEMS.observe(report.restored_items)
        if tracer is not None and span is not None:
            tracer.end(span, warm=True,
                       credentials=report.credentials,
                       overlays=report.overlays,
                       ledger_entries=report.ledger_entries,
                       replies=report.replies,
                       reattached=report.sessions_reattached,
                       aborted=report.sessions_aborted)
        _flightrec.dump_recovery(transport, peer_name, {
            "warm": True,
            "restored_items": report.restored_items,
            "credentials": report.credentials,
            "overlays": report.overlays,
            "ledger_entries": report.ledger_entries,
            "replies": report.replies,
            "sessions_reattached": report.sessions_reattached,
            "sessions_aborted": report.sessions_aborted,
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
    ``peer_name`` fail for simulated clock in ``[at_ms, until_ms)`` (the
    PR 1 crash window), and at ``until_ms`` the peer restarts from its
    store.  Requesters with patient retry policies ride it out; with a
    store attached the restarted peer resumes warm."""
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


def save_answer_tables(engine, store: StateStore,
                       namespace: str = "tables") -> int:
    """Persist an engine's completed memo tables (see
    :meth:`SLDEngine.export_tables`); returns the call-pattern count.  The
    export replaces the namespace wholesale — retention semantics live in
    the engine, not the store."""
    data = engine.export_tables()
    store.drop(namespace)
    store.put(namespace, "answer_tables", data)
    return len(data["tables"])


def load_answer_tables(engine, store: StateStore,
                       namespace: str = "tables") -> int:
    """Restore persisted memo tables into ``engine`` (a warm-start of the
    tabled evaluator); returns adopted call patterns — zero when nothing was
    saved or the knowledge base has since changed (fingerprint mismatch)."""
    data = store.get(namespace, "answer_tables")
    if data is None:
        return 0
    adopted = engine.import_tables(data)
    if adopted:
        RESTORED_ITEMS.labels("table").inc(adopted)
    return adopted


def stale_session_namespaces(store: StateStore) -> list[str]:
    """Session-scoped namespaces present in ``store`` (diagnostics: after a
    clean run with every session released these should be empty)."""
    return sorted(
        namespace
        for prefix in ("overlay:", "ledger:", "replies:")
        for namespace in iter_namespace(store, prefix))
