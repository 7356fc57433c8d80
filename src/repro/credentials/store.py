"""A peer's credential wallet.

Holds verified :class:`~repro.credentials.credential.Credential` objects,
indexed by the head indicator of the underlying rule, so the negotiation
engine can answer "which of my credentials could prove this goal?" without
scanning.  Deduplication is by serial.

The store deliberately does *not* verify on insert — insertion happens
either for self-issued credentials or after the negotiation layer has
verified an incoming disclosure; keeping verification at the trust boundary
(one place) avoids double work and split policy.

Persistence: a *sink* (see :class:`repro.storage.recovery.StoreSink`) may
be bound, after which every insert/removal is mirrored to a state store as
it happens.  Unbound (the default) there is no overhead beyond one ``None``
check, and no import of the storage layer at all.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Optional

from repro.credentials.credential import Credential
from repro.datalog.ast import Literal
from repro.datalog.terms import Constant

Indicator = tuple[str, int]


class CredentialStore:
    """Serial-deduplicated credential collection with head indexing."""

    def __init__(self, credentials: Optional[Iterable[Credential]] = None) -> None:
        self._by_serial: dict[str, Credential] = {}
        self._by_indicator: dict[Indicator, list[Credential]] = defaultdict(list)
        self._sink = None  # optional write-through persistence sink
        if credentials:
            for credential in credentials:
                self.add(credential)

    def add(self, credential: Credential) -> bool:
        """Insert; returns False when the serial is already present."""
        if credential.serial in self._by_serial:
            return False
        self._by_serial[credential.serial] = credential
        self._by_indicator[credential.rule.head.indicator].append(credential)
        if self._sink is not None:
            self._sink.added(credential)
        return True

    def add_all(self, credentials: Iterable[Credential]) -> int:
        return sum(1 for credential in credentials if self.add(credential))

    def remove(self, serial: str) -> bool:
        credential = self._by_serial.pop(serial, None)
        if credential is None:
            return False
        bucket = self._by_indicator[credential.rule.head.indicator]
        bucket.remove(credential)
        if self._sink is not None:
            self._sink.removed(serial)
        return True

    # -- persistence ----------------------------------------------------------

    def bind_sink(self, sink, replay: bool = True) -> None:
        """Mirror every future insert/removal into ``sink``.  With
        ``replay`` the current contents are pushed through first, so
        binding mid-run snapshots what the store already holds."""
        self._sink = sink
        if replay:
            for credential in self._by_serial.values():
                sink.added(credential)

    def unbind_sink(self) -> None:
        self._sink = None

    def clear(self) -> None:
        """Empty the store *without* notifying any sink: this models state
        loss (a crashed process's heap), not deletion — a bound durable
        store must keep its copy so recovery can restore from it.  Crash
        paths unbind first; see :func:`repro.storage.recovery.crash_peer`."""
        self._by_serial.clear()
        self._by_indicator.clear()

    # -- queries ---------------------------------------------------------------

    def get(self, serial: str) -> Optional[Credential]:
        return self._by_serial.get(serial)

    def has_candidates(self, indicator: Indicator) -> bool:
        """True when some credential's rule head has this predicate
        indicator (the index bucket, before any unification)."""
        return bool(self._by_indicator.get(indicator))

    def vouching_for(self, goal: Literal) -> list[Credential]:
        """The credentials, in store order, whose vouched statement (see
        :func:`~repro.credentials.credential.vouched_statement`) may unify
        with ``goal``: an authority chain of the same length, and no
        position where both sides hold different constants.  A cheap
        filter that spares the engine renaming the rest apart."""
        matches = []
        for credential in self._by_indicator.get(goal.indicator, ()):
            statement = credential.statement
            if statement is not None and _may_unify(statement.head, goal):
                matches.append(credential)
        return matches

    def credentials(self) -> Iterator[Credential]:
        return iter(self._by_serial.values())

    def serials(self) -> set[str]:
        return set(self._by_serial)

    def __len__(self) -> int:
        return len(self._by_serial)

    def __contains__(self, credential: Credential) -> bool:
        return credential.serial in self._by_serial

    def __repr__(self) -> str:
        return f"CredentialStore({len(self)} credentials)"


def _may_unify(head: Literal, goal: Literal) -> bool:
    """False when ``head`` and ``goal`` (same indicator) cannot unify.
    Constants compare with ``!=`` as in unification: interning is optional."""
    if len(head.authority) != len(goal.authority):
        return False
    for mine, theirs in zip(head.args + head.authority,
                            goal.args + goal.authority):
        if (isinstance(mine, Constant) and isinstance(theirs, Constant)
                and mine != theirs):
            return False
    return True
