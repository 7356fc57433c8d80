"""Observability layer tests: metrics registry, span tracer, timeline.

Covers histogram bucket-edge semantics, the snapshot/delta protocol,
sourced (callback) metrics mirroring the four legacy stats surfaces, span
parent/child integrity, the disabled-tracer no-op guarantee, in-process
trace determinism (with and without a fault plan), the timeline renderer,
and the CLI surfaces (``--trace``, ``--metrics-out``, ``trace-view``).
"""

import gc
import io
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import trace
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Histogram,
    MetricsRegistry,
    global_registry,
    install_default_collectors,
    set_push_metrics,
)
from repro.obs.timeline import render_summary, render_timeline
from repro.obs.trace import Tracer, tracing

KEY_BITS = 512


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


# ---------------------------------------------------------------------------
# Histogram semantics
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        histogram = Histogram(buckets=(10, 20))
        histogram.observe(10)          # exactly on the first bound
        histogram.observe(10.0001)     # just past it
        histogram.observe(20)          # exactly on the second
        histogram.observe(21)          # overflow
        cumulative = dict(histogram.cumulative())
        assert cumulative["10"] == 1
        assert cumulative["20"] == 3
        assert cumulative["+Inf"] == 4

    def test_sum_and_count(self):
        histogram = Histogram(buckets=(1.0,))
        for value in (0.5, 1.5, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(4.0)

    def test_bounds_sorted_and_nonempty(self):
        histogram = Histogram(buckets=(5, 1, 3))
        assert histogram.bounds == (1.0, 3.0, 5.0)
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_samples_expand_to_prometheus_names(self):
        registry = MetricsRegistry()
        family = registry.histogram("h_ms", buckets=(1, 2), help="x")
        family.observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot['h_ms_bucket{le="1"}'] == 0
        assert snapshot['h_ms_bucket{le="2"}'] == 1
        assert snapshot['h_ms_bucket{le="+Inf"}'] == 1
        assert snapshot["h_ms_sum"] == pytest.approx(1.5)
        assert snapshot["h_ms_count"] == 1


class TestHistogramQuantile:
    """``Histogram.quantile``: Prometheus ``histogram_quantile`` semantics."""

    def test_empty_histogram_returns_none(self):
        assert Histogram(buckets=(1, 2)).quantile(0.5) is None

    def test_interpolates_within_bucket(self):
        histogram = Histogram(buckets=(10,))
        for _ in range(5):
            histogram.observe(5)
        # rank 2.5 of 5 inside the (0, 10] bucket: 10 * (2.5 / 5).
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert histogram.quantile(0.2) == pytest.approx(2.0)

    def test_interpolates_from_previous_bound(self):
        histogram = Histogram(buckets=(1, 2, 5))
        for value in (0.5, 1.5, 1.5, 4):
            histogram.observe(value)
        # rank 2.0 lands in the (1, 2] bucket (cumulative 1 -> 3).
        assert histogram.quantile(0.5) == pytest.approx(1.5)

    def test_plus_inf_clamps_to_highest_finite_bound(self):
        histogram = Histogram(buckets=(1, 5))
        histogram.observe(100)   # only the +Inf bucket
        assert histogram.quantile(0.99) == pytest.approx(5.0)

    def test_q_outside_unit_interval_is_clamped(self):
        histogram = Histogram(buckets=(10,))
        histogram.observe(5)
        assert histogram.quantile(2.0) == histogram.quantile(1.0)
        assert histogram.quantile(-1.0) == histogram.quantile(0.0)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40),
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_estimate_bounded_by_buckets(self, values, q):
        histogram = Histogram(buckets=(1, 5, 10, 50))
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        assert estimate is not None
        # Never below zero, never above the highest finite bound.
        assert 0.0 <= estimate <= 50.0

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40),
           qs=st.tuples(st.floats(min_value=0.0, max_value=1.0),
                        st.floats(min_value=0.0, max_value=1.0)))
    def test_monotone_in_q(self, values, qs):
        histogram = Histogram(buckets=(1, 5, 10, 50))
        for value in values:
            histogram.observe(value)
        low, high = sorted(qs)
        assert histogram.quantile(low) <= histogram.quantile(high) + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=20.0,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40),
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_matches_snapshot_histogram_quantile(self, values, q):
        from repro.obs.slo import histogram_quantile

        registry = MetricsRegistry()
        family = registry.histogram("h_ms", buckets=(1, 5, 10))
        for value in values:
            family.observe(value)
        from_snapshot = histogram_quantile(registry.snapshot(), "h_ms", q)
        assert family.quantile(q) == pytest.approx(from_snapshot)


# ---------------------------------------------------------------------------
# Registry: families, labels, snapshot/delta, render
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.dec(2)
        gauge.track_max(3)   # below current value: no change
        snapshot = registry.snapshot()
        assert snapshot["c_total"] == 5
        assert snapshot["g"] == 5

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total")
        second = registry.counter("c_total")
        assert first is second

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_labelled_family(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labels=("op",))
        family.labels("read").inc(2)
        family.labels("write").inc()
        snapshot = registry.snapshot()
        assert snapshot['ops_total{op="read"}'] == 2
        assert snapshot['ops_total{op="write"}'] == 1
        with pytest.raises(ValueError):
            family.labels("a", "b")

    def test_snapshot_delta(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(3)
        before = registry.snapshot()
        counter.inc(2)
        delta = registry.delta(before)
        assert delta["c_total"] == 2
        # Samples absent from `before` count from zero.
        registry.counter("new_total").inc(9)
        delta = registry.delta(before)
        assert delta["new_total"] == 9

    def test_callback_metrics(self):
        registry = MetricsRegistry()
        registry.register_callback("pulled_total", lambda: 42, help="x")
        registry.register_callback(
            "by_kind_total", lambda: {"a": 1, "b": 2}, label="kind")
        snapshot = registry.snapshot()
        assert snapshot["pulled_total"] == 42
        assert snapshot['by_kind_total{kind="a"}'] == 1
        assert snapshot['by_kind_total{kind="b"}'] == 2
        registry.unregister("pulled_total")
        assert "pulled_total" not in registry.names()

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="a counter").inc()
        text = registry.render_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert "c_total 1" in text
        assert text.endswith("\n")

    def test_render_empty_registry(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labels=("op",))
        family.labels('he said "hi"\\once\nmore').inc()
        text = registry.render_prometheus()
        assert 'ops_total{op="he said \\"hi\\"\\\\once\\nmore"} 1' in text
        snapshot = registry.snapshot()
        assert snapshot['ops_total{op="he said \\"hi\\"\\\\once\\nmore"}'] == 1

    def test_sourced_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.register_callback(
            "by_kind_total", lambda: {'with "quote"': 3}, label="kind")
        snapshot = registry.snapshot()
        assert snapshot['by_kind_total{kind="with \\"quote\\""}'] == 3

    def test_sourced_gauge_vs_counter_kinds(self):
        registry = MetricsRegistry()
        registry.register_callback("pulled_total", lambda: 1)
        registry.register_callback("depth", lambda: 2, kind="gauge")
        text = registry.render_prometheus()
        assert "# TYPE pulled_total counter" in text
        assert "# TYPE depth gauge" in text

    def test_sourced_dict_callback_renders_each_label(self):
        registry = MetricsRegistry()
        registry.register_callback(
            "by_kind_total", lambda: {"b": 2, "a": 1}, label="kind",
            help="labelled source")
        text = registry.render_prometheus()
        # Sorted by label value, one line each, headers once.
        a_index = text.index('by_kind_total{kind="a"} 1')
        b_index = text.index('by_kind_total{kind="b"} 2')
        assert a_index < b_index
        assert text.count("# TYPE by_kind_total") == 1


# ---------------------------------------------------------------------------
# Legacy stats surfaces through the registry
# ---------------------------------------------------------------------------


class TestLegacySurfaces:
    def test_four_surfaces_match_registry(self):
        from repro.crypto.rsa import SIGNATURE_CACHE_STATS
        from repro.datalog.sld import canonical_cache_info
        from repro.datalog.terms import INTERN_STATS
        from repro.scenarios.services import build_scenario2, run_free_enrollment

        scenario = build_scenario2(key_bits=KEY_BITS)
        result = run_free_enrollment(scenario)
        assert result.granted

        registry = install_default_collectors(MetricsRegistry())
        snapshot = registry.snapshot()

        # Interning + signature cache + canonical-form counters: identical
        # values via the registry and via the legacy attribute access.
        assert snapshot["peertrust_intern_hits_total"] == INTERN_STATS.hits
        assert snapshot["peertrust_intern_misses_total"] == INTERN_STATS.misses
        assert (snapshot["peertrust_sig_cache_hits_total"]
                == SIGNATURE_CACHE_STATS.hits)
        assert (snapshot["peertrust_sig_cache_misses_total"]
                == SIGNATURE_CACHE_STATS.misses)
        canonical = canonical_cache_info()
        assert snapshot["peertrust_canonical_hits_total"] == canonical.hits
        assert snapshot["peertrust_canonical_misses_total"] == canonical.misses

        # Transport stats: the scenario's transport is weakly tracked; its
        # counters fold into the summed sourced metrics.
        stats = scenario.transport.stats
        assert snapshot["peertrust_transport_messages_total"] >= stats.messages
        assert snapshot["peertrust_transport_bytes_total"] >= stats.bytes
        key = 'peertrust_transport_messages_by_kind_total{kind="QueryMessage"}'
        assert snapshot[key] >= stats.by_kind.get("QueryMessage", 0) > 0

    def test_push_metrics_toggle(self):
        previous = set_push_metrics(True)
        try:
            assert set_push_metrics(True) is True
        finally:
            set_push_metrics(previous)

    def test_global_registry_has_engine_ops(self):
        from repro.scenarios.services import build_scenario2, run_free_enrollment

        registry = global_registry()
        before = registry.snapshot()
        scenario = build_scenario2(key_bits=KEY_BITS)
        run_free_enrollment(scenario)
        delta = registry.delta(before)
        assert delta['peertrust_engine_ops_total{op="resolutions"}'] > 0


def _transport_totals(registry):
    return {name: value for name, value in registry.snapshot().items()
            if name.startswith("peertrust_transport_") and "_total" in name}


class TestTransportTotalsMonotone:
    """The ``peertrust_transport_*_total`` counters keep the traffic of
    transports that were collected or reset."""

    def test_collected_fleet_keeps_its_traffic(self):
        from repro.workloads.generator import build_bilateral_fleet

        registry = install_default_collectors(MetricsRegistry())
        fleet = build_bilateral_fleet(4, key_bits=KEY_BITS)
        before = registry.snapshot()
        fleet.run_interleaved()
        sent = fleet.world.transport.stats.messages
        assert sent > 0
        transport = weakref.ref(fleet.world.transport)
        del fleet
        gc.collect()
        assert transport() is None
        delta = registry.delta(before)
        assert delta["peertrust_transport_messages_total"] == sent

    def test_reset_stats_keeps_the_total(self):
        from tests.test_net import EchoPeer, query

        from repro.net.transport import Transport

        registry = install_default_collectors(MetricsRegistry())
        transport = Transport()
        transport.register(EchoPeer("a"))
        transport.register(EchoPeer("b"))
        before = registry.snapshot()
        transport.send(query())
        transport.reset_stats()
        delta = registry.delta(before)
        assert delta["peertrust_transport_messages_total"] == 1
        assert delta[
            'peertrust_transport_messages_by_kind_total{kind="QueryMessage"}'
        ] == 1

    @given(st.lists(st.sampled_from(["create", "run", "reset", "drop", "gc"]),
                    max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_totals_never_decrease(self, operations):
        from tests.test_net import EchoPeer, query

        from repro.net.transport import Transport

        registry = install_default_collectors(MetricsRegistry())
        transports = []
        previous = _transport_totals(registry)
        for operation in operations:
            if operation == "create":
                transport = Transport()
                transport.register(EchoPeer("a"))
                transport.register(EchoPeer("b"))
                transports.append(transport)
            elif operation == "run" and transports:
                transports[-1].request(query())
            elif operation == "reset" and transports:
                transports[-1].reset_stats()
            elif operation == "drop" and transports:
                transports.pop(0)
            elif operation == "gc":
                gc.collect()
            current = _transport_totals(registry)
            for name, value in previous.items():
                assert current.get(name, 0) >= value, (operation, name)
            previous = current


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_parent_child_integrity(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.event("tick")
            with tracer.span("inner") as inner:
                tracer.event("tock")
        records = tracer.all_records()
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == outer.id
        assert by_name["tick"]["parent"] == outer.id
        assert by_name["tock"]["parent"] == inner.id
        # Every parent id resolves to a span in the same trace.
        span_ids = {r["id"] for r in records if r["t"] == "span"}
        for record in records:
            if record["parent"] is not None:
                assert record["parent"] in span_ids

    def test_explicit_root_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            root = tracer.begin("detached", parent=None)
            tracer.end(root)
        detached = [r for r in tracer.all_records()
                    if r["name"] == "detached"][0]
        assert detached["parent"] is None

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        tracer.end(span, ok=True)
        tracer.end(span, ok=False)
        records = [r for r in tracer.all_records() if r["name"] == "once"]
        assert len(records) == 1
        assert records[0]["attrs"]["ok"] is True

    def test_alias_first_seen_order(self):
        tracer = Tracer()
        assert tracer.alias("msg", 900) == 1
        assert tracer.alias("msg", 17) == 2
        assert tracer.alias("msg", 900) == 1
        assert tracer.alias("session", 900) == 1   # kinds are independent

    def test_open_spans_exported_with_null_end(self):
        tracer = Tracer()
        tracer.begin("open")
        record = json.loads(tracer.to_jsonl().splitlines()[0])
        assert record["name"] == "open"
        assert record["end"] is None

    def test_logical_clock_without_transport(self):
        tracer = Tracer()
        first, second = tracer.now(), tracer.now()
        assert second == first + 1

    def test_disabled_by_default(self):
        assert trace.ACTIVE is None

    def test_tracing_scope_restores(self):
        with tracing() as tracer:
            assert trace.ACTIVE is tracer
        assert trace.ACTIVE is None

    def test_disabled_run_records_nothing(self):
        from repro.scenarios.services import build_scenario2, run_free_enrollment

        tracer = Tracer()
        assert trace.ACTIVE is None
        scenario = build_scenario2(key_bits=KEY_BITS)
        result = run_free_enrollment(scenario)
        assert result.granted
        assert tracer.records == []


# ---------------------------------------------------------------------------
# Determinism: same seed, byte-identical trace
# ---------------------------------------------------------------------------


def _traced_enrollment(fault_plan=None):
    """One fresh scenario-2 free enrollment traced from a reset id space."""
    from repro.determinism import reset_all
    from repro.net.transport import constant_latency
    from repro.scenarios.services import build_scenario2, run_free_enrollment

    reset_all()
    scenario = build_scenario2(key_bits=KEY_BITS)
    transport = scenario.transport
    transport.latency = constant_latency(1.0)
    if fault_plan is not None:
        transport.faults = fault_plan
    tracer = Tracer(clock=lambda: transport.now_ms)
    with tracing(tracer):
        result = run_free_enrollment(scenario)
    return result, tracer.to_jsonl()


class TestTraceDeterminism:
    def test_clean_runs_byte_identical(self):
        result_a, trace_a = _traced_enrollment()
        result_b, trace_b = _traced_enrollment()
        assert result_a.granted and result_b.granted
        assert trace_a == trace_b
        assert trace_a  # non-empty

    def test_faulty_runs_byte_identical(self):
        from repro.net.faults import FaultPlan, FaultRule

        def plan():
            return FaultPlan(seed=7, rules=(
                FaultRule(kind="QueryMessage", drop=0.3),))

        _, trace_a = _traced_enrollment(plan())
        _, trace_b = _traced_enrollment(plan())
        assert trace_a == trace_b
        assert any('"transport.drop"' in line or '"transport.retry"' in line
                   for line in trace_a.splitlines())

    def test_no_wall_clock_leaks(self):
        _, text = _traced_enrollment()
        for line in text.splitlines():
            record = json.loads(line)
            for key in ("start", "end", "at"):
                value = record.get(key)
                if value is not None:
                    # Simulated ms for a short negotiation, never epoch time.
                    assert value < 10_000


# ---------------------------------------------------------------------------
# Timeline renderer
# ---------------------------------------------------------------------------


class TestTimeline:
    def _records(self):
        tracer = Tracer()
        with tracer.span("negotiation", requester="Bob"):
            tracer.event("transport.send", bytes=100)
            with tracer.span("rpc"):
                tracer.event("engine.goal", goal="p(X)")
        return tracer.all_records()

    def test_render_timeline(self):
        text = render_timeline(self._records(), width=32)
        assert "negotiation" in text
        assert "rpc" in text
        assert "engine.goal" in text
        assert "requester=Bob" in text

    def test_render_summary(self):
        text = render_summary(self._records())
        assert "negotiation" in text
        assert "engine.goal" in text
        assert "2 finished spans" in text

    def test_orphan_records_promoted_to_root(self):
        records = [{"t": "event", "id": 5, "parent": 99,
                    "name": "stray", "at": 1.0, "attrs": {}}]
        assert "stray" in render_timeline(records)

    def test_load_records_empty_file(self, tmp_path):
        from repro.obs.timeline import load_records

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_records(path) == []
        assert render_timeline([]) == "(empty trace)\n"

    def test_load_records_truncated_line(self, tmp_path):
        from repro.errors import PeerTrustError
        from repro.obs.timeline import load_records

        path = tmp_path / "torn.jsonl"
        path.write_text('{"t": "event", "id": 1, "parent": null, '
                        '"name": "ok", "at": 0.0, "attrs": {}}\n'
                        '{"t": "span", "id": 2, "par')   # mid-write tear
        with pytest.raises(PeerTrustError) as excinfo:
            load_records(path)
        assert "torn.jsonl:2" in str(excinfo.value)

    def test_load_records_non_record_json(self, tmp_path):
        from repro.errors import PeerTrustError
        from repro.obs.timeline import load_records

        path = tmp_path / "odd.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(PeerTrustError):
            load_records(path)


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCliObservability:
    def test_demo_trace_and_metrics_out(self, tmp_path):
        trace_path = tmp_path / "demo.jsonl"
        metrics_path = tmp_path / "metrics.txt"
        status, output = run_cli(
            "demo", "quickstart",
            "--trace", str(trace_path), "--metrics-out", str(metrics_path))
        assert status == 0
        lines = trace_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert any(r["name"] == "negotiation" for r in records)
        metrics_text = metrics_path.read_text()
        assert "peertrust_transport_messages_total" in metrics_text
        assert "# TYPE" in metrics_text

    def test_trace_view_renders_tree(self, tmp_path):
        trace_path = tmp_path / "demo.jsonl"
        run_cli("demo", "quickstart", "--trace", str(trace_path))
        status, output = run_cli("trace-view", str(trace_path))
        assert status == 0
        assert "negotiation" in output
        assert "sim-time" in output
        status, summary = run_cli("trace-view", str(trace_path), "--summary")
        assert status == 0
        assert "records" in summary

    def test_stats_flag_still_prints_cache_stats(self):
        status, output = run_cli("demo", "quickstart", "--stats")
        assert status == 0
        assert "cache stats:" in output
        assert "intern_hits:" in output

    def test_stats_flag_prints_negotiation_quantiles(self):
        status, output = run_cli("demo", "quickstart", "--stats")
        assert status == 0
        assert "negotiation distributions" in output
        assert "p50=" in output and "p99=" in output

    def test_trace_view_empty_file_is_not_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        status, output = run_cli("trace-view", str(path))
        assert status == 0
        assert "(empty trace)" in output

    def test_trace_view_truncated_file_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"t": "span", "id": 1, "par')
        status, output = run_cli("trace-view", str(path))
        assert status == 1
        error_text = capsys.readouterr().err
        assert "torn.jsonl:1" in error_text
        assert "Traceback" not in error_text
