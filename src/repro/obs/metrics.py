"""Metrics registry: counters, gauges, histograms; snapshot/delta; export.

One process-wide registry (:func:`global_registry`) absorbs every stats
surface in the reproduction behind a single naming scheme::

    peertrust_<layer>_<what>[_total]        counters  (monotonic)
    peertrust_<layer>_<what>                gauges    (point-in-time)
    peertrust_<what>_<unit>                 histograms (explicit buckets)

Two publication styles coexist:

- **Push metrics** — objects with ``inc``/``set``/``observe`` that call
  sites update directly (engine per-query totals, negotiation histograms).
  High-frequency push sites (per-message histograms, per-event gauges)
  additionally guard on :data:`PUSH_ENABLED` so the default path stays at
  one global load + bool check.
- **Sourced metrics** — zero-overhead pull: a callback registered with
  :meth:`MetricsRegistry.register_callback` is sampled only at
  snapshot/render time.  The legacy stats objects (``INTERN_STATS``,
  ``SIGNATURE_CACHE_STATS``, ``TransportStats``) remain the storage — their
  attribute access keeps working unchanged — while the registry becomes the
  one reporting surface (:func:`install_default_collectors`).

The **snapshot/delta protocol**: :meth:`MetricsRegistry.snapshot` returns a
flat ``{sample_name: number}`` mapping (histograms expand into
``name_bucket{le="..."}"``, ``name_sum``, ``name_count``);
:meth:`MetricsRegistry.delta` subtracts one snapshot from another so a
caller can attribute counter movement to one negotiation or benchmark
window.  :meth:`MetricsRegistry.render_prometheus` emits the standard
text exposition format for ``--metrics-out``.
"""

from __future__ import annotations

import bisect
import weakref
from fractions import Fraction
from typing import Callable, Optional, Sequence

# Cheap guard for high-frequency push sites (per-message, per-event).  The
# registry itself always works; this only gates the hot-path observes.
PUSH_ENABLED = False


def set_push_metrics(enabled: bool) -> bool:
    """Enable/disable hot-path push metrics; returns the previous state."""
    global PUSH_ENABLED
    previous = PUSH_ENABLED
    PUSH_ENABLED = enabled
    return previous


DEFAULT_MS_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1000.0, 2000.0, 5000.0)
DEFAULT_BYTE_BUCKETS = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
                        65536)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount

    def samples(self, name: str, labels: str):
        yield f"{name}{labels}", self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def track_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def samples(self, name: str, labels: str):
        yield f"{name}{labels}", self.value


class Histogram:
    """Cumulative-bucket histogram with explicit upper bounds.

    Prometheus semantics: an observation ``v`` lands in every bucket whose
    bound satisfies ``v <= le`` (bounds are inclusive), plus the implicit
    ``+Inf`` bucket; ``sum`` and ``count`` accumulate alongside.  Bucket
    *edges are inclusive*: ``observe(10)`` with a ``10`` bound counts in
    the ``le="10"`` bucket (tested in tests/test_obs.py).
    """

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        # One slot per finite bound plus the +Inf overflow slot; stored
        # non-cumulative, cumulated at sample time.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile with ``histogram_quantile`` semantics.

        Linear interpolation inside the bucket containing the rank, with
        the Prometheus conventions: the first bucket interpolates from 0
        (or from its own bound when that bound is <= 0), and a rank that
        lands in the ``+Inf`` bucket clamps to the highest finite bound.
        Returns ``None`` for an empty histogram; ``q`` outside [0, 1] is
        clamped.
        """
        if self.count == 0:
            return None
        q = min(1.0, max(0.0, float(q)))
        rank = q * self.count
        running = 0
        for index, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[index]
            if in_bucket and running + in_bucket >= rank:
                start = 0.0 if index == 0 else self.bounds[index - 1]
                if index == 0 and bound <= 0:
                    start = bound
                return start + (bound - start) * ((rank - running) / in_bucket)
            running += in_bucket
        return self.bounds[-1]

    def cumulative(self) -> list[tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        out, running = [], 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            label = f"{bound:g}"
            out.append((label, running))
        out.append(("+Inf", running + self.bucket_counts[-1]))
        return out

    def samples(self, name: str, labels: str):
        trimmed = labels[1:-1] if labels else ""
        for le, count in self.cumulative():
            inner = f'{trimmed},le="{le}"' if trimmed else f'le="{le}"'
            yield f"{name}_bucket{{{inner}}}", count
        yield f"{name}_sum{labels}", round(self.sum, 6)
        yield f"{name}_count{labels}", self.count


class Family:
    """A named metric with zero or more label dimensions.

    ``labels(value, ...)`` returns (creating on first use) the child for
    one label combination; an unlabelled family has a single anonymous
    child reachable through the family's own ``inc``/``set``/``observe``.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "children", "_make")

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Sequence[str], make: Callable) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.children: dict[tuple, object] = {}
        self._make = make
        if not self.labelnames:
            self.children[()] = make()

    def labels(self, *values):
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values}")
        key = tuple(str(v) for v in values)
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self._make()
        return child

    # Unlabelled convenience passthrough.

    def _solo(self):
        return self.children[()]

    def inc(self, amount=1):
        self._solo().inc(amount)

    def set(self, value):
        self._solo().set(value)

    def dec(self, amount=1):
        self._solo().dec(amount)

    def track_max(self, value):
        self._solo().track_max(value)

    def observe(self, value):
        self._solo().observe(value)

    def quantile(self, q):
        return self._solo().quantile(q)

    @property
    def value(self):
        return self._solo().value

    def _label_string(self, key: tuple) -> str:
        if not key:
            return ""
        parts = ",".join(f'{n}="{escape_label_value(v)}"'
                         for n, v in zip(self.labelnames, key))
        return "{" + parts + "}"

    def samples(self):
        for key in sorted(self.children):
            yield from self.children[key].samples(
                self.name, self._label_string(key))


class _SourcedMetric:
    """A pull metric: value(s) read from a callback at sample time.

    The callback returns a number (unlabelled) or a ``{label_value:
    number}`` mapping (one label dimension, named at registration)."""

    __slots__ = ("name", "kind", "help", "labelname", "fn")

    def __init__(self, name: str, kind: str, help_text: str,
                 labelname: Optional[str], fn: Callable) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelname = labelname
        self.fn = fn

    def samples(self):
        value = self.fn()
        if isinstance(value, dict):
            for label_value in sorted(value):
                escaped = escape_label_value(label_value)
                yield (f'{self.name}{{{self.labelname}="{escaped}"}}',
                       value[label_value])
        else:
            yield self.name, value


class MetricsRegistry:
    """Holds metric families and sourced metrics; samples them on demand."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    # -- registration ------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                labelnames: Sequence[str], make: Callable) -> Family:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Family) or existing.kind != kind:
                raise ValueError(f"metric {name!r} already registered "
                                 f"as a different type")
            return existing
        family = Family(name, kind, help_text, labelnames, make)
        self._metrics[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Family:
        return self._family(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Family:
        return self._family(name, "gauge", help, labels, Gauge)

    def histogram(self, name: str, buckets: Sequence[float],
                  help: str = "", labels: Sequence[str] = ()) -> Family:
        bucket_tuple = tuple(buckets)
        return self._family(name, "histogram", help, labels,
                            lambda: Histogram(bucket_tuple))

    def register_callback(self, name: str, fn: Callable, kind: str = "counter",
                          help: str = "", label: Optional[str] = None) -> None:
        """Register (or replace) a sourced metric — see
        :class:`_SourcedMetric` for the callback contract."""
        self._metrics[name] = _SourcedMetric(name, kind, help, label, fn)

    def unregister(self, name: str) -> None:
        self._metrics.pop(name, None)

    def names(self) -> list[str]:
        return list(self._metrics)

    # -- collection --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat ``{sample_name: number}`` of every metric right now."""
        samples: dict = {}
        for name in self._metrics:
            for sample_name, value in self._metrics[name].samples():
                samples[sample_name] = value
        return samples

    def delta(self, before: dict, after: Optional[dict] = None) -> dict:
        """Per-sample difference between two snapshots (``after`` defaults
        to a fresh snapshot).  Samples absent from ``before`` count from
        zero; gauges subtract like everything else (the delta of a gauge is
        its net movement over the window)."""
        after = after if after is not None else self.snapshot()
        return {name: value - before.get(name, 0)
                for name, value in after.items()}

    def render_prometheus(self) -> str:
        """The text exposition format: ``# HELP`` / ``# TYPE`` headers and
        one ``name{labels} value`` line per sample."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, value in metric.samples():
                if isinstance(value, float):
                    value = round(value, 6)
                lines.append(f"{sample_name} {value}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL


# -- default collectors: the four legacy stats surfaces ---------------------------

# Live transports, tracked weakly so the registry never keeps a dead world
# alive; each maps to the finalizer that retires its current stats object.
# The ``_total`` samples add the live counters to those of every transport
# already collected and every stats object swapped out by ``reset_stats``,
# so they never run backwards.  simulated_ms retires as an exact Fraction:
# float sums regrouped as transports retire could read one ulp lower.
_LIVE_TRANSPORTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_COUNT_FIELDS = ("messages", "bytes", "retries", "dropped",
                 "duplicates_suppressed", "events_processed")
_KIND_FIELDS = ("by_kind", "bytes_by_kind")
_RETIRED: dict = {**dict.fromkeys(_COUNT_FIELDS, 0),
                  "simulated_ms": Fraction(0),
                  **{field: {} for field in _KIND_FIELDS}}


def track_transport(transport) -> None:
    """Count ``transport`` in the sourced ``peertrust_transport_*`` metrics.

    Call it again after swapping ``transport.stats``: the counters it held
    until then move to the retired totals, as do those of a transport that
    is garbage-collected (the finalizer holds its stats, not the transport)."""
    previous = _LIVE_TRANSPORTS.get(transport)
    if previous is not None:
        previous()  # retires the swapped-out stats; a finalizer runs once
    retire = weakref.finalize(transport, _retire_stats, transport.stats)
    retire.atexit = False
    _LIVE_TRANSPORTS[transport] = retire


def _retire_stats(stats) -> None:
    for field in _COUNT_FIELDS:
        _RETIRED[field] += getattr(stats, field)
    _RETIRED["simulated_ms"] += Fraction(stats.simulated_ms)
    for field in _KIND_FIELDS:
        retired = _RETIRED[field]
        for kind, count in getattr(stats, field).items():
            retired[kind] = retired.get(kind, 0) + count


def _live_transports() -> list:
    # Strong references for the duration of one read: no transport can
    # retire between being summed and the retired totals being read.
    return list(_LIVE_TRANSPORTS)


def _transport_sum(field: str):
    def total():
        live = _live_transports()
        return _RETIRED[field] + sum(getattr(t.stats, field) for t in live)
    return total


def _transport_simulated_ms() -> float:
    live = _live_transports()
    return float(_RETIRED["simulated_ms"]
                 + sum(Fraction(t.stats.simulated_ms) for t in live))


def _transport_by_kind(field: str):
    def per_kind():
        live = _live_transports()
        combined: dict[str, int] = dict(_RETIRED[field])
        for transport in live:
            for kind, value in getattr(transport.stats, field).items():
                combined[kind] = combined.get(kind, 0) + value
        return combined
    return per_kind


def install_default_collectors(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register sourced metrics for the legacy stats surfaces.

    Idempotent (re-registration replaces the callback with an identical
    one).  Imports live inside the function: this module must stay
    importable by the lowest layers (datalog, net) without cycles.
    """
    reg = registry if registry is not None else _GLOBAL

    from repro.crypto import rsa
    from repro.crypto.rsa import SIGNATURE_CACHE_STATS
    from repro.datalog.sld import canonical_cache_info
    from repro.datalog.terms import INTERN_STATS

    reg.register_callback(
        "peertrust_intern_hits_total", lambda: INTERN_STATS.hits,
        help="term intern-table hits (process-wide)")
    reg.register_callback(
        "peertrust_intern_misses_total", lambda: INTERN_STATS.misses,
        help="term intern-table misses (process-wide)")

    reg.register_callback(
        "peertrust_sig_cache_hits_total", lambda: SIGNATURE_CACHE_STATS.hits,
        help="signature verifications served from cache")
    reg.register_callback(
        "peertrust_sig_cache_misses_total",
        lambda: SIGNATURE_CACHE_STATS.misses,
        help="signature verifications computed")
    reg.register_callback(
        "peertrust_sig_cache_evictions_total",
        lambda: SIGNATURE_CACHE_STATS.evictions,
        help="signature-cache evictions (capacity)")
    reg.register_callback(
        "peertrust_sig_cache_sign_hits_total",
        lambda: SIGNATURE_CACHE_STATS.sign_hits,
        help="deterministic signings served from cache")
    reg.register_callback(
        "peertrust_sig_cache_size",
        lambda: len(rsa._signature_cache), kind="gauge",
        help="entries currently in the signature verification cache")

    from repro.datalog.sld import GLOBAL_COUNTERS

    reg.register_callback(
        "peertrust_table_reuse_total",
        lambda: GLOBAL_COUNTERS.get("table_reuse", 0),
        help="goals served from answer tables retained across queries")

    reg.register_callback(
        "peertrust_canonical_hits_total",
        lambda: canonical_cache_info().hits,
        help="memoised canonical-literal hits")
    reg.register_callback(
        "peertrust_canonical_misses_total",
        lambda: canonical_cache_info().misses,
        help="memoised canonical-literal misses")

    for field in _COUNT_FIELDS:
        reg.register_callback(
            f"peertrust_transport_{field}_total", _transport_sum(field),
            help=f"transport {field} summed over every transport so far")
    reg.register_callback(
        "peertrust_transport_simulated_ms_total", _transport_simulated_ms,
        help="simulated milliseconds accumulated by every transport so far")
    reg.register_callback(
        "peertrust_transport_messages_by_kind_total",
        _transport_by_kind("by_kind"), label="kind",
        help="transport messages by message kind")
    reg.register_callback(
        "peertrust_transport_bytes_by_kind_total",
        _transport_by_kind("bytes_by_kind"), label="kind",
        help="transport bytes by message kind")
    reg.register_callback(
        "peertrust_transport_max_queue_depth",
        lambda: max((t.stats.max_queue_depth for t in _live_transports()),
                    default=0),
        kind="gauge",
        help="deepest scheduler event queue seen by any live transport")

    from repro.negotiation.session import NEGOTIATION_COUNTERS

    reg.register_callback(
        "peertrust_negotiation_counters_total",
        lambda: dict(NEGOTIATION_COUNTERS), label="counter",
        help="session counters (loops detected, in-flight leaks, queries/"
             "answers/denials, tabling lifecycle) summed over all sessions")
    return reg
