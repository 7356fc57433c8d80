"""Pluggable peer state stores.

A :class:`StateStore` is a namespaced key/value store holding **plain
JSON-able data** (dicts, lists, strings, numbers, bools, None).  A peer's
store holds its credential wallet; credentials cross the boundary through
:func:`repro.serialize.credential_to_dict` (see
:mod:`repro.storage.recovery`), so a store never imports negotiation code
and every backend serialises identically.

Two backends:

- :class:`MemoryStore` — a dict of dicts; the zero-dependency default.
  State "survives" only as long as the object does, which is exactly what
  crash-recovery tests need to separate *protocol* correctness from disk
  formats.
- :class:`DurableStore` — an append-only JSONL journal plus a snapshot
  file in a directory.  Every mutation appends one journal record;
  :meth:`DurableStore.checkpoint` collapses journal + snapshot into a new
  snapshot written atomically (temp file + ``os.replace``, see
  :mod:`repro.storage.atomic`) and truncates the journal.  Opening a store
  loads the snapshot and replays the journal; a torn trailing journal line
  (a crash mid-append) is discarded, counted and cut off, never fatal.

Determinism: no store operation reads the wall clock, fsyncs, or draws
randomness.  Transaction ids come from a process-wide counter with a reset
hook (:func:`reset_txn_ids`) folded into
:func:`repro.determinism.reset_all`, so byte-identical trace runs stay
byte-identical with persistence enabled.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Optional

from repro.errors import StorageError
from repro.storage.atomic import atomic_write_text

_txn_counter = itertools.count(1)


def next_txn_id() -> int:
    return next(_txn_counter)


def reset_txn_ids() -> None:
    """Restart the process-wide store transaction-id counter (see
    :func:`repro.net.message.reset_message_ids` for why determinism tests
    need counter resets)."""
    global _txn_counter
    _txn_counter = itertools.count(1)


class StateStore:
    """Namespaced key/value store of plain JSON-able values.

    Subclasses implement the mutation primitives; the read surface and the
    snapshot/restore contract are shared.  ``snapshot()`` returns a plain
    nested dict ``{namespace: {key: value}}`` and ``restore()`` replaces the
    whole contents with one — the explicit full-state path recovery and
    tests use alongside the incremental write-through."""

    backend = "abstract"

    def __init__(self) -> None:
        self._data: dict[str, dict[str, Any]] = {}
        self._closed = False

    # -- mutation ------------------------------------------------------------

    def put(self, namespace: str, key: str, value: Any) -> None:
        self._ensure_open()
        self._data.setdefault(namespace, {})[key] = value
        self._journal("put", namespace, key, value)

    def delete(self, namespace: str, key: str) -> bool:
        self._ensure_open()
        bucket = self._data.get(namespace)
        if bucket is None or key not in bucket:
            return False
        del bucket[key]
        if not bucket:
            del self._data[namespace]
        self._journal("del", namespace, key, None)
        return True

    def drop(self, namespace: str) -> bool:
        """Remove a whole namespace."""
        self._ensure_open()
        if self._data.pop(namespace, None) is None:
            return False
        self._journal("drop", namespace, None, None)
        return True

    def restore(self, state: dict[str, dict[str, Any]]) -> None:
        """Replace the entire contents with ``state`` (a snapshot dict)."""
        self._ensure_open()
        self._data = {ns: dict(bucket) for ns, bucket in state.items()}
        self._journal("restore", None, None, None)

    # -- reads ---------------------------------------------------------------

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self._data.get(namespace, {}).get(key, default)

    def items(self, namespace: str) -> dict[str, Any]:
        return dict(self._data.get(namespace, {}))

    def namespaces(self) -> list[str]:
        return list(self._data)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {ns: dict(bucket) for ns, bucket in self._data.items()}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._data.values())

    # -- lifecycle -----------------------------------------------------------

    def take_torn_lines(self) -> int:
        """Torn journal tails cut since the last call, so a recovery
        reports each tail once (memory stores have no journal)."""
        return 0

    def checkpoint(self) -> None:
        """Compact durable state (no-op for memory stores)."""

    def close(self) -> None:
        """Checkpoint (where applicable) and refuse further mutations."""
        if not self._closed:
            self.checkpoint()
            self._closed = True

    # -- backend hooks -------------------------------------------------------

    def _journal(self, op: str, namespace: Optional[str], key: Optional[str],
                 value: Any) -> None:
        """Mutation hook for durable backends; memory stores ignore it."""

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"{type(self).__name__} is closed")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self._data)} namespace(s), "
                f"{len(self)} key(s))")


class MemoryStore(StateStore):
    """The in-process backend: plain dicts, no files."""

    backend = "memory"


class DurableStore(StateStore):
    """Journal + snapshot backend rooted at a directory.

    Layout::

        <directory>/snapshot.json    last checkpoint (atomic replace)
        <directory>/journal.jsonl    one record per mutation since

    Journal records are ``{"txn": n, "op": ..., "ns": ..., "key": ...,
    "value": ...}``, one per line, written and flushed through one open
    append handle.  Replay applies them in order on top of the snapshot.
    A record counts once its newline is on disk: whatever follows the last
    newline, or an undecodable last line, is a torn append from a crash,
    dropped (counted in ``recovered``) and cut from the file.  A corrupt
    line *followed by others* is real damage and raises
    :class:`StorageError`.
    """

    backend = "durable"
    SNAPSHOT = "snapshot.json"
    JOURNAL = "journal.jsonl"

    def __init__(self, directory: str | Path) -> None:
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._snapshot_path = self.directory / self.SNAPSHOT
        self._journal_path = self.directory / self.JOURNAL
        # How this store came back: journal records replayed on open, torn
        # trailing lines discarded.  Recovery observability reads these.
        self.recovered = {"journal_records": 0, "torn_lines": 0,
                          "from_snapshot": False}
        self._torn_taken = 0  # of recovered["torn_lines"], already reported
        self._handle = None  # the journal's append handle, opened on demand
        self._load()

    # -- open-time recovery ----------------------------------------------------

    def _load(self) -> None:
        if self._snapshot_path.exists():
            try:
                self._data = json.loads(self._snapshot_path.read_text())
            except json.JSONDecodeError as error:
                # Snapshots are written atomically; a corrupt one is real
                # damage, not a crash artifact.
                raise StorageError(
                    f"corrupt snapshot {self._snapshot_path}: {error}")
            self.recovered["from_snapshot"] = True
        if not self._journal_path.exists():
            # An open store always has its journal, even before its first
            # record, so its size can be read at any time.
            self._journal_path.touch()
            return
        data = self._journal_path.read_bytes()
        lines = data.split(b"\n")
        records = []
        end = 0  # offset just past the last applied record's newline
        for index, line in enumerate(lines[:-1]):  # newline-terminated
            if line:
                try:
                    records.append(json.loads(line))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    if any(lines[index + 1:]):
                        raise StorageError(
                            f"corrupt journal line {index + 1} in "
                            f"{self._journal_path} (not a torn tail)")
                    break
            end += len(line) + 1
        if end < len(data):
            self.recovered["torn_lines"] += 1
            os.truncate(self._journal_path, end)
        for record in records:
            self._apply(record)
        self.recovered["journal_records"] = len(records)

    def take_torn_lines(self) -> int:
        torn = self.recovered["torn_lines"] - self._torn_taken
        self._torn_taken += torn
        return torn

    def _apply(self, record: dict) -> None:
        op, ns, key = record["op"], record.get("ns"), record.get("key")
        if op == "put":
            self._data.setdefault(ns, {})[key] = record.get("value")
        elif op == "del":
            bucket = self._data.get(ns)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._data[ns]
        elif op == "drop":
            self._data.pop(ns, None)
        elif op == "restore":
            # A full restore invalidates everything before it; the record
            # carries the replacement state inline.
            self._data = {n: dict(b)
                          for n, b in record.get("value", {}).items()}
        else:
            raise StorageError(f"unknown journal op {op!r}")

    # -- journalling -----------------------------------------------------------

    def _journal(self, op: str, namespace: Optional[str], key: Optional[str],
                 value: Any) -> None:
        record: dict[str, Any] = {"txn": next_txn_id(), "op": op}
        if namespace is not None:
            record["ns"] = namespace
        if key is not None:
            record["key"] = key
        if op == "put":
            record["value"] = value
        elif op == "restore":
            record["value"] = self.snapshot()
        if self._handle is None:
            self._handle = open(self._journal_path, "a")
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()

    def checkpoint(self) -> None:
        """Collapse journal + snapshot into a fresh snapshot, atomically,
        then truncate the journal.  Crash-safe at every step: the snapshot
        replace is atomic, and until the truncate lands the journal merely
        replays mutations the snapshot already contains (idempotent).  The
        truncate replaces the file, so the append handle is closed first
        (:meth:`close` and :meth:`destroy` checkpoint too)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        atomic_write_text(self._snapshot_path,
                          json.dumps(self._data, separators=(",", ":"),
                                     sort_keys=True))
        atomic_write_text(self._journal_path, "")

    def destroy(self) -> None:
        """Close and delete the on-disk footprint (teardown hygiene — the
        durable-backend CI job asserts nothing leaks)."""
        self.close()
        for path in (self._snapshot_path, self._journal_path):
            if path.exists():
                path.unlink()
        try:
            self.directory.rmdir()
        except OSError:
            pass  # foreign files present; leave the directory alone


def open_store(backend: str, state_dir: Optional[str | Path] = None,
               name: str = "peer") -> StateStore:
    """Open a store by backend name (the CLI's ``--store-backend`` values).

    ``durable`` roots the store at ``<state_dir>/<name>``; ``memory``
    ignores ``state_dir``."""
    if backend == "memory":
        return MemoryStore()
    if backend == "durable":
        if state_dir is None:
            raise StorageError(
                "the durable backend needs a state directory "
                "(--state-dir PATH)")
        return DurableStore(Path(state_dir) / name)
    raise StorageError(f"unknown store backend {backend!r} "
                       "(expected 'memory' or 'durable')")
