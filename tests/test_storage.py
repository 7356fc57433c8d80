"""Storage subsystem: backends, the credential codec, the session table,
crash recovery.

Covers the state-store contract both backends must satisfy, the durable
backend's journal/snapshot recovery semantics (torn trailing lines and a
crash at every byte of a wallet journal), the credential codec, the
session table, and the crash → restart-from-store path: a store holds only
the wallet, so a restarted peer comes back with its credentials and
continues any live session cold."""

from __future__ import annotations

import json

import pytest

from repro import World, negotiate, parse_literal
from repro.datalog.parser import parse_rule
from repro.errors import StorageError
from repro.negotiation.session import SessionTable
from repro.net.message import QueryMessage
from repro.storage import (
    DurableStore,
    MemoryStore,
    atomic_write_text,
    open_store,
)
from repro.storage.recovery import (
    RecoveryReport,
    crash_peer,
    recover_peer,
    restart_peer,
)

KEY_BITS = 512


def _quickstart():
    world = World(key_bits=KEY_BITS)
    world.add_peer("Server",
                   'hello(Requester) $ true <- '
                   'friend(Requester) @ "CA" @ Requester.')
    client = world.add_peer(
        "Client", 'friend(X) @ Y $ true <-{true} friend(X) @ Y.')
    world.issuer("CA")
    world.distribute_keys()
    world.give_credentials("Client", 'friend("Client") signedBy ["CA"].')
    return world, client


# ---------------------------------------------------------------------------
# StateStore contract (both backends)
# ---------------------------------------------------------------------------


@pytest.fixture
def backends(tmp_path):
    """One store per backend, closed at teardown (a durable store holds its
    journal open)."""
    stores = [MemoryStore(), DurableStore(tmp_path / "durable")]
    yield stores
    for store in stores:
        store.close()


class TestStoreContract:
    def test_put_get_delete_roundtrip(self, backends):
        for store in backends:
            store.put("wallet", "s1", {"x": 1})
            assert store.get("wallet", "s1") == {"x": 1}
            assert store.get("wallet", "missing", "dflt") == "dflt"
            assert store.delete("wallet", "s1")
            assert not store.delete("wallet", "s1")
            assert store.get("wallet", "s1") is None

    def test_empty_buckets_vanish(self, backends):
        for store in backends:
            store.put("ns", "k", 1)
            store.delete("ns", "k")
            assert store.namespaces() == []

    def test_drop_namespace(self, backends):
        for store in backends:
            store.put("overlay:s1", "a", 1)
            store.put("overlay:s1", "b", 2)
            store.put("wallet", "c", 3)
            assert store.drop("overlay:s1")
            assert not store.drop("overlay:s1")
            assert store.namespaces() == ["wallet"]

    def test_snapshot_restore(self, backends):
        for store in backends:
            store.put("wallet", "s1", {"x": 1})
            snap = store.snapshot()
            store.put("wallet", "s2", {"x": 2})
            store.restore(snap)
            assert store.items("wallet") == {"s1": {"x": 1}}
            # Snapshots are copies, not views.
            snap["wallet"]["s1"] = "mutated"
            assert store.get("wallet", "s1") == {"x": 1}

    def test_len_counts_keys(self, backends):
        for store in backends:
            store.put("a", "1", None)
            store.put("b", "1", None)
            store.put("b", "2", None)
            assert len(store) == 3

    def test_closed_store_refuses_mutations(self, backends):
        for store in backends:
            store.put("ns", "k", 1)
            store.close()
            with pytest.raises(StorageError):
                store.put("ns", "k2", 2)
            # Reads still work (recovery inspects closed stores).
            assert store.get("ns", "k") == 1


class TestOpenStore:
    def test_backend_selection(self, tmp_path):
        assert isinstance(open_store("memory"), MemoryStore)
        durable = open_store("durable", state_dir=tmp_path, name="alice")
        assert isinstance(durable, DurableStore)
        assert durable.directory == tmp_path / "alice"

    def test_unknown_backend_raises(self):
        with pytest.raises(StorageError):
            open_store("redis")

    def test_durable_requires_state_dir(self):
        with pytest.raises(StorageError):
            open_store("durable")


# ---------------------------------------------------------------------------
# Durable backend: journal replay, checkpoints, torn lines
# ---------------------------------------------------------------------------


class TestDurableRecovery:
    def test_journal_replay_without_checkpoint(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("wallet", "s1", {"x": 1})
        store.put("wallet", "s2", {"x": 2})
        store.delete("wallet", "s2")
        # No close/checkpoint: reopen replays the journal from scratch.
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.items("wallet") == {"s1": {"x": 1}}
        assert reopened.recovered["journal_records"] == 3
        assert not reopened.recovered["from_snapshot"]
        reopened.close()
        store.close()

    def test_open_store_always_has_its_journal(self, tmp_path):
        # A store may never append (a peer with an empty wallet), yet its
        # journal's size must be readable from the moment it opens.
        store = DurableStore(tmp_path / "peer")
        assert (tmp_path / "peer" / "journal.jsonl").read_bytes() == b""
        store.put("wallet", "s1", {"x": 1})
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.items("wallet") == {"s1": {"x": 1}}
        reopened.close()
        store.close()

    def test_checkpoint_collapses_journal(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("wallet", "s1", {"x": 1})
        store.checkpoint()
        assert (tmp_path / "peer" / "journal.jsonl").read_text() == ""
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.get("wallet", "s1") == {"x": 1}
        assert reopened.recovered["from_snapshot"]
        assert reopened.recovered["journal_records"] == 0

    def test_restore_journals_full_state(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("junk", "k", 1)
        store.restore({"wallet": {"s1": {"x": 1}}})
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.snapshot() == {"wallet": {"s1": {"x": 1}}}
        reopened.close()
        store.close()

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("wallet", "s1", {"x": 1})
        journal = tmp_path / "peer" / "journal.jsonl"
        with open(journal, "a") as handle:
            handle.write('{"txn":99,"op":"put","ns":"wal')  # crash mid-append
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.get("wallet", "s1") == {"x": 1}
        assert reopened.recovered["torn_lines"] == 1
        reopened.close()
        store.close()

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("ns", "a", 1)
        journal = tmp_path / "peer" / "journal.jsonl"
        kept = journal.read_bytes()
        with open(journal, "a") as handle:
            handle.write('{"txn": 3, "op": "put", "ns": "ns", "ke')
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.recovered["torn_lines"] == 1
        assert journal.read_bytes() == kept
        reopened.put("ns", "c", 3)
        reopened.put("ns", "d", 4)
        again = DurableStore(tmp_path / "peer")
        assert again.items("ns") == {"a": 1, "c": 3, "d": 4}
        assert again.recovered["torn_lines"] == 0
        for opened in (again, reopened, store):
            opened.close()

    def test_unterminated_record_is_torn(self, tmp_path):
        # A record counts once its newline is on disk: a whole record cut
        # off before it is discarded like any torn append, and the next
        # record starts a line of its own.
        store = DurableStore(tmp_path / "peer")
        store.put("ns", "a", 1)
        journal = tmp_path / "peer" / "journal.jsonl"
        with open(journal, "a") as handle:
            handle.write('{"txn":99,"op":"put","ns":"ns","key":"b","value":2}')
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.items("ns") == {"a": 1}
        assert reopened.recovered["torn_lines"] == 1
        reopened.put("ns", "c", 3)
        again = DurableStore(tmp_path / "peer")
        assert again.items("ns") == {"a": 1, "c": 3}
        assert again.recovered["torn_lines"] == 0
        for opened in (again, reopened, store):
            opened.close()

    def test_undecodable_last_line_is_torn(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("ns", "a", 1)
        journal = tmp_path / "peer" / "journal.jsonl"
        kept = journal.read_bytes()
        with open(journal, "ab") as handle:
            handle.write(b'{"txn":9,"op":"put","ns":"\xff\xfe\n')
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.items("ns") == {"a": 1}
        assert reopened.recovered["torn_lines"] == 1
        assert journal.read_bytes() == kept
        reopened.close()
        store.close()

    def test_put_after_checkpoint_lands_in_the_new_journal(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("ns", "a", 1)
        store.checkpoint()
        store.put("ns", "b", 2)
        journal = tmp_path / "peer" / "journal.jsonl"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [record["key"] for record in records] == ["b"]
        reopened = DurableStore(tmp_path / "peer")
        assert reopened.items("ns") == {"a": 1, "b": 2}
        reopened.close()
        store.close()

    def test_second_store_beside_an_open_one_replays_every_record(
            self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        for index in range(5):
            store.put("ns", f"k{index}", index)
        beside = DurableStore(tmp_path / "peer")
        assert beside.recovered["journal_records"] == 5
        assert beside.items("ns") == store.items("ns")
        beside.close()
        store.close()

    def test_corrupt_mid_journal_raises(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("wallet", "s1", {"x": 1})
        journal = tmp_path / "peer" / "journal.jsonl"
        valid = journal.read_text()
        store.close()
        journal.write_text("GARBAGE\n" + valid)
        with pytest.raises(StorageError, match="not a torn tail"):
            DurableStore(tmp_path / "peer")

    def test_corrupt_snapshot_raises(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("wallet", "s1", {"x": 1})
        store.close()
        (tmp_path / "peer" / "snapshot.json").write_text("{not json")
        with pytest.raises(StorageError, match="corrupt snapshot"):
            DurableStore(tmp_path / "peer")

    def test_destroy_removes_footprint(self, tmp_path):
        store = DurableStore(tmp_path / "peer")
        store.put("wallet", "s1", {"x": 1})
        store.destroy()
        assert not (tmp_path / "peer").exists()

    def test_checkpoint_is_deterministic_bytes(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            store = DurableStore(tmp_path / name)
            store.put("z", "k2", 2)
            store.put("a", "k1", 1)
            store.checkpoint()
            texts.append((tmp_path / name / "snapshot.json").read_text())
        assert texts[0] == texts[1]
        assert json.loads(texts[0]) == {"z": {"k2": 2}, "a": {"k1": 1}}


class TestAtomicWrites:
    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_save_world_is_atomic_and_loadable(self, tmp_path):
        from repro.serialize import load_world, save_world

        world, _ = _quickstart()
        path = tmp_path / "world.json"
        save_world(world, path)
        assert [p.name for p in tmp_path.iterdir()] == ["world.json"]
        assert sorted(load_world(path).peers) == ["Client", "Server"]


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------


class TestCodec:
    def test_credential_roundtrip(self):
        from repro.serialize import credential_from_dict, credential_to_dict

        world, _ = _quickstart()
        credential = world.credential('friend("Client") signedBy ["CA"].')
        restored = credential_from_dict(credential_to_dict(credential))
        assert restored.serial == credential.serial
        assert str(restored.rule) == str(credential.rule)


# ---------------------------------------------------------------------------
# Session table
# ---------------------------------------------------------------------------


class TestSessionTable:
    def test_lookup_across_shards(self):
        table = SessionTable()
        ids = [f"session-{n}" for n in range(40)]
        for session_id in ids:
            table.get_or_create(session_id, "A")
        assert len(table) == 40
        for session_id in ids:
            assert table.get(session_id).id == session_id

    def test_get_or_create_is_idempotent(self):
        table = SessionTable()
        first = table.get_or_create("s1", "A")
        assert table.get_or_create("s1", "A") is first

    def test_capacity_evicts_globally_oldest(self):
        evicted = []
        table = SessionTable(capacity=3, on_evict=evicted.append)
        for n in range(5):
            table.get_or_create(f"session-{n}", "A")
        assert evicted == ["session-0", "session-1"]
        assert table.evictions == 2
        assert len(table) == 3
        assert table.get("session-0") is None

    def test_forget_fires_evict_hook_once(self):
        evicted = []
        table = SessionTable(on_evict=evicted.append)
        table.get_or_create("s1", "A")
        table.forget("s1")
        table.forget("s1")
        assert evicted == ["s1"]
        assert len(table) == 0

    def test_sessions_iterates_in_insertion_order(self):
        table = SessionTable()
        for name in ("zz", "aa", "mm"):
            table.get_or_create(name, "A")
        assert [s.id for s in table.sessions()] == ["zz", "aa", "mm"]


# ---------------------------------------------------------------------------
# Crash / recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_cold_restart_loses_the_wallet(self):
        world, client = _quickstart()
        report = restart_peer(world.transport, "Client")
        assert report == RecoveryReport(peer="Client", warm=False)
        assert len(client.credentials) == 0
        result = negotiate(client, "Server", parse_literal('hello("Client")'))
        assert not result.granted

    def test_warm_restart_restores_the_wallet(self, attach_stores):
        world, client = _quickstart()
        attach_stores(world)
        report = restart_peer(world.transport, "Client")
        assert report.warm
        assert report.credentials == 1
        assert len(client.credentials) == 1
        result = negotiate(client, "Server", parse_literal('hello("Client")'))
        assert result.granted

    def test_recovery_restores_only_the_wallet(self, attach_stores):
        world, client = _quickstart()
        stores = attach_stores(world)
        # A mid-flight session: the Client's overlay holds one disclosure.
        transport = world.transport
        session = transport.sessions.get_or_create("inflight", "Server")
        received = world.credential('member("Client") signedBy ["CA"].')
        client.hold_received(received, session)
        report = restart_peer(transport, "Client")
        assert report == RecoveryReport(peer="Client", warm=True,
                                        credentials=1)
        assert [c.rule for c in client.credentials.credentials()] == [
            parse_rule('friend("Client") signedBy ["CA"].')]
        # The overlay lived in RAM only: the live session continues cold.
        assert len(session.received_for("Client")) == 0
        assert not session.holds(received.serial, "Client")
        assert stores["Client"].namespaces() == ["wallet"]

    def test_replay_after_restart_is_answered_again(self, attach_stores):
        world, client = _quickstart()
        attach_stores(world)
        transport = world.transport
        session = transport.sessions.get_or_create("replay", "Server")
        query = QueryMessage(sender="Server", receiver="Client",
                             session_id=session.id,
                             goal=parse_literal('friend(X) @ "CA"'))
        first = transport.request(query)
        assert len(first.items) == 1
        suppressed_before = transport.stats.duplicates_suppressed
        restart_peer(transport, "Client")
        replayed = transport.request(query)
        # The reply cache lived in RAM only: the restarted Client evaluates
        # the replay again, from its restored wallet, to the same answer.
        assert transport.stats.duplicates_suppressed == suppressed_before
        assert replayed.message_id != first.message_id
        assert [item.bindings for item in replayed.items] == [
            item.bindings for item in first.items]
        assert [item.answer_credential.serial for item in replayed.items] == [
            item.answer_credential.serial for item in first.items]

    def test_restarted_peer_asks_for_release_credentials_again(self):
        from repro.scenarios.elearn import (
            build_scenario1,
            run_discount_negotiation,
        )

        scenario = build_scenario1(key_bits=KEY_BITS)
        world = scenario.world
        transport = world.transport
        world.attach_state_stores("memory")
        # Keep the session live so E-Learn can ask Alice again in it.
        transport.release_session = lambda session_id: None
        try:
            session = run_discount_negotiation(scenario).session
            restart_peer(transport, "Alice")
            seen = len(session.transcript)
            reply = transport.request(QueryMessage(
                sender="E-Learn", receiver="Alice", session_id=session.id,
                goal=parse_literal('student("Alice") @ "UIUC"')))
            assert len(reply.items) == 1
            # Alice's release decision was proved from an overlay the
            # restart emptied: she asks for E-Learn's BBB membership again.
            assert [(event.actor, event.detail) for event
                    in session.transcript[seen:] if event.kind == "query"] \
                == [("Alice", 'member("E-Learn") @ "BBB"')]
        finally:
            world.detach_state_stores()

    def test_torn_tail_is_reported_once(self, tmp_path):
        world, _client = _quickstart()
        journal = tmp_path / "client" / DurableStore.JOURNAL
        journal.parent.mkdir()
        journal.write_text('{"txn":1,"op":"put","ns":"wal')  # crash mid-append
        world.transport.attach_state_store("Client",
                                           DurableStore(tmp_path / "client"))
        try:
            assert [restart_peer(world.transport, "Client").torn_journal_lines
                    for _ in range(3)] == [1, 0, 0]
        finally:
            world.detach_state_stores()

    def test_session_release_leaves_no_stale_namespaces(self, attach_stores):
        for backend in ("memory", "durable"):
            world, client = _quickstart()
            stores = attach_stores(world, backend=backend)
            result = negotiate(client, "Server",
                               parse_literal('hello("Client")'))
            assert result.granted
            assert stores["Client"].namespaces() == ["wallet"]
            for store in stores.values():
                assert set(store.namespaces()) <= {"wallet"}
                if backend == "durable":
                    journal = store.directory / DurableStore.JOURNAL
                    assert {json.loads(line)["ns"] for line
                            in journal.read_text().splitlines()} <= {"wallet"}

    def test_recovery_metrics_and_span(self, attach_stores):
        from repro.obs.metrics import global_registry
        from repro.obs.trace import Tracer, tracing

        world, client = _quickstart()
        attach_stores(world)
        registry = global_registry()
        warm_before = registry.snapshot().get(
            'peertrust_recovery_total{outcome="warm"}', 0)
        tracer = Tracer()
        with tracing(tracer):
            restart_peer(world.transport, "Client")
        snap = registry.snapshot()
        assert snap['peertrust_recovery_total{outcome="warm"}'] == \
            warm_before + 1
        names = [r.get("name") for r in tracer.all_records()]
        assert "peer.recover" in names


class TestWalletCrashPoints:
    """A store holds only the wallet, so its journal is the whole crash
    surface: a process dying at any byte of an append, or between a
    checkpoint's two writes, must reopen to a wallet the peer once had."""

    STATEMENTS = ('badge("1") signedBy ["CA"].', 'badge("2") signedBy ["CA"].',
                  'badge("3") signedBy ["CA"].')

    def _wallet_journal(self, tmp_path):
        """Three credentials added and one removed through the wallet's
        write-through sink: four journal records, and the wallet state
        after each of them (``states[n]`` = after the first ``n``)."""
        world = World(key_bits=KEY_BITS)
        client = world.add_peer("Client")
        world.issuer("CA")
        world.distribute_keys()
        store = DurableStore(tmp_path / "source")
        world.transport.attach_state_store("Client", store)
        states = [{}]
        issued = []
        for statement in self.STATEMENTS:
            issued += world.give_credentials("Client", statement)
            states.append(store.items("wallet"))
        assert client.credentials.remove(issued[1].serial)
        states.append(store.items("wallet"))
        journal = (store.directory / DurableStore.JOURNAL).read_bytes()
        world.detach_state_stores()
        assert journal.count(b"\n") == len(states) - 1 == 4
        return world, journal, states

    def _assert_recovers_into_crashed_peer(self, world, store, wallet):
        transport = world.transport
        crash_peer(transport, "Client")
        transport.attach_state_store("Client", store)
        report = recover_peer(transport, "Client")
        assert report.credentials == len(wallet)
        assert world.peers["Client"].credentials.serials() == set(wallet)
        world.detach_state_stores()

    def test_every_journal_cut_reopens_to_a_prefix_of_the_wallet(
            self, tmp_path):
        world, journal, states = self._wallet_journal(tmp_path)
        cut_dir = tmp_path / "cut"
        for offset in range(len(journal) + 1):
            cut_dir.mkdir()
            (cut_dir / DurableStore.JOURNAL).write_bytes(journal[:offset])
            store = DurableStore(cut_dir)
            # A record counts once its newline is on disk: a whole record
            # cut just before its newline is torn like any partial one.
            complete = journal[:offset].count(b"\n")
            torn = offset > 0 and journal[offset - 1:offset] != b"\n"
            assert store.items("wallet") == states[complete], offset
            assert store.recovered["torn_lines"] == int(torn), offset
            assert store.recovered["journal_records"] == complete, offset
            store.destroy()
        # A cut inside the last record: recovery restores the wallet as it
        # stood before the removal.
        cut_dir.mkdir()
        (cut_dir / DurableStore.JOURNAL).write_bytes(journal[:-2])
        self._assert_recovers_into_crashed_peer(world, DurableStore(cut_dir),
                                                states[3])

    def test_crash_between_snapshot_replace_and_journal_truncate(
            self, tmp_path, monkeypatch):
        from repro.storage import store as store_module

        world, journal, states = self._wallet_journal(tmp_path)
        directory = tmp_path / "checkpointing"
        directory.mkdir()
        (directory / DurableStore.JOURNAL).write_bytes(journal)
        store = DurableStore(directory)
        writes = []
        real_write = store_module.atomic_write_text

        def write_then_die(path, text):
            if writes:  # the journal truncate, after the snapshot replace
                raise OSError("crashed before the journal truncate")
            writes.append(path)
            real_write(path, text)

        monkeypatch.setattr(store_module, "atomic_write_text", write_then_die)
        with pytest.raises(OSError, match="journal truncate"):
            store.checkpoint()
        monkeypatch.undo()
        assert writes == [directory / DurableStore.SNAPSHOT]
        assert (directory / DurableStore.JOURNAL).read_bytes() == journal
        # The journal replays over a snapshot that already holds it.
        reopened = DurableStore(directory)
        assert reopened.recovered["from_snapshot"]
        assert reopened.recovered["journal_records"] == 4
        assert reopened.items("wallet") == states[-1]
        self._assert_recovers_into_crashed_peer(world, reopened, states[-1])
        store.destroy()
