"""Pluggable peer state persistence.

A peer's store holds what outlives a negotiation: its credential wallet.
Session state (disclosure overlays, wire ledgers, cached replies) lives in
RAM only and dies with the process.

Public surface:

- :func:`~repro.storage.store.open_store` /
  :class:`~repro.storage.store.MemoryStore` /
  :class:`~repro.storage.store.DurableStore` — the backends;
- :func:`~repro.storage.atomic.atomic_write_text` — the shared
  write-temp-then-replace helper every on-disk artifact goes through;
- :mod:`repro.storage.recovery` — wallet write-through and crash/restart
  (imported lazily by low-level modules; it depends on the peer layer).
"""

from repro.storage.atomic import atomic_write_bytes, atomic_write_text
from repro.storage.store import (
    DurableStore,
    MemoryStore,
    StateStore,
    next_txn_id,
    open_store,
    reset_txn_ids,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "DurableStore",
    "MemoryStore",
    "StateStore",
    "next_txn_id",
    "open_store",
    "reset_txn_ids",
]
