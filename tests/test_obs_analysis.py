"""Analysis-tier observability tests: SLOs, critical path, flight recorder.

Covers the declarative SLO spec (validation, ``histogram_quantile`` on
snapshot deltas, ratio/value edge cases, report rendering), critical-path
extraction and blame attribution over synthetic traces (with a hand-checked
decomposition and shuffle invariance), the always-on flight recorder
(bounded rings, post-mortem dumps for failures and crash recovery, global
reset), and the CLI surfaces (``slo-check``, ``trace-view
--critical-path``, ``demo --flight-recorder``).
"""

import io
import json
import random

import pytest

from repro import negotiate, parse_literal
from repro.cli import main
from repro.errors import PeerTrustError
from repro.obs import critpath, flightrec, slo
from repro.obs.flightrec import RECORDER, FlightRecorder
from repro.scenarios.elena_network import build_elena_network

KEY_BITS = 512


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


# ---------------------------------------------------------------------------
# SLO specs
# ---------------------------------------------------------------------------


def minimal_spec(**overrides):
    objective = {"name": "obj", "kind": "value", "sample": "s", "max": 1}
    objective.update(overrides)
    return {"name": "spec", "objectives": [objective]}


class TestSpecParsing:
    def test_round_trip(self):
        spec = slo.parse_spec({
            "name": "demo",
            "objectives": [
                {"name": "p99", "kind": "quantile", "metric": "m",
                 "q": 0.99, "max": 50},
                {"name": "depth", "kind": "value", "sample": "g",
                 "window": "absolute", "max": 64, "min": 0},
                {"name": "rate", "kind": "ratio", "numerator": "a",
                 "denominator": "b", "max": 0.5},
            ]})
        assert spec.name == "demo"
        assert len(spec.objectives) == 3
        assert spec.objectives[0].q == 0.99
        assert spec.objectives[1].window == "absolute"
        assert spec.objectives[1].min_value == 0.0
        assert spec.objectives[2].denominator == "b"

    @pytest.mark.parametrize("bad", [
        [],                                         # not an object
        {"objectives": [{"name": "x"}]},            # no spec name
        {"name": "s"},                              # no objectives
        {"name": "s", "objectives": []},            # empty objectives
        {"name": "s", "objectives": ["nope"]},      # objective not an object
        minimal_spec(kind="median"),                # unknown kind
        minimal_spec(window="sliding"),             # unknown window
        minimal_spec(max=None),                     # no bound at all
        {"name": "s", "objectives": [
            {"name": "q", "kind": "quantile", "max": 1}]},   # no metric
        {"name": "s", "objectives": [
            {"name": "v", "kind": "value", "max": 1}]},      # no sample
        {"name": "s", "objectives": [
            {"name": "r", "kind": "ratio", "numerator": "a",
             "max": 1}]},                                    # no denominator
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(PeerTrustError):
            slo.parse_spec(bad)

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(PeerTrustError) as excinfo:
            slo.load_spec(tmp_path / "nope.json")
        assert "cannot read SLO spec" in str(excinfo.value)

    def test_load_spec_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PeerTrustError) as excinfo:
            slo.load_spec(path)
        assert "not valid JSON" in str(excinfo.value)

    def test_committed_fleet_spec_parses(self):
        spec = slo.load_spec("benchmarks/slo/fleet.json")
        assert spec.name == "bilateral-fleet"
        assert len(spec.objectives) >= 5


class TestHistogramQuantileSamples:
    SAMPLES = {'m_bucket{le="1"}': 2, 'm_bucket{le="5"}': 6,
               'm_bucket{le="+Inf"}': 8}

    def test_interpolates_within_bucket(self):
        # rank 4 lands in the (1, 5] bucket holding 4 observations.
        assert slo.histogram_quantile(self.SAMPLES, "m", 0.5) == 3.0

    def test_plus_inf_clamps_to_highest_finite_bound(self):
        assert slo.histogram_quantile(self.SAMPLES, "m", 1.0) == 5.0

    def test_q_zero_starts_at_origin(self):
        assert slo.histogram_quantile(self.SAMPLES, "m", 0.0) == 0.0

    def test_absent_metric_is_none(self):
        assert slo.histogram_quantile(self.SAMPLES, "other", 0.5) is None
        assert slo.histogram_quantile({}, "m", 0.5) is None

    def test_empty_window_is_none(self):
        zeros = {name: 0 for name in self.SAMPLES}
        assert slo.histogram_quantile(zeros, "m", 0.5) is None


class TestEvaluate:
    def _spec(self, objectives):
        return slo.parse_spec({"name": "t", "objectives": objectives})

    def test_pass_and_fail_bounds(self):
        spec = self._spec([
            {"name": "lo", "kind": "value", "sample": "x", "max": 10},
            {"name": "hi", "kind": "value", "sample": "x", "max": 3},
            {"name": "floor", "kind": "value", "sample": "x", "min": 7},
        ])
        report = slo.evaluate(spec, {"x": 5})
        by_name = {r.name: r for r in report.results}
        assert by_name["lo"].ok
        assert not by_name["hi"].ok
        assert not by_name["floor"].ok
        assert not report.ok
        rendered = report.render()
        assert "FAIL (1/3 objectives)" in rendered
        assert "max=3" in rendered

    def test_missing_sample_is_a_violation(self):
        spec = self._spec([{"name": "gone", "kind": "value",
                            "sample": "absent", "max": 1}])
        report = slo.evaluate(spec, {})
        assert not report.ok
        assert report.results[0].value is None
        assert "not found" in report.results[0].detail
        assert "(no data)" in report.render()

    def test_ratio_edge_cases(self):
        spec = self._spec([
            {"name": "both_zero", "kind": "ratio", "numerator": "a",
             "denominator": "b", "max": 0.5},
            {"name": "den_zero", "kind": "ratio", "numerator": "c",
             "denominator": "b", "max": 0.5},
            {"name": "normal", "kind": "ratio", "numerator": "c",
             "denominator": "d", "max": 0.5},
        ])
        report = slo.evaluate(spec, {"a": 0, "b": 0, "c": 3, "d": 10})
        by_name = {r.name: r for r in report.results}
        assert by_name["both_zero"].ok and by_name["both_zero"].value == 0.0
        assert not by_name["den_zero"].ok          # 3 / 0: no data
        assert by_name["normal"].ok and by_name["normal"].value == 0.3

    def test_absolute_window_reads_closing_snapshot(self):
        spec = self._spec([
            {"name": "delta", "kind": "value", "sample": "x", "max": 5},
            {"name": "gauge", "kind": "value", "sample": "x",
             "window": "absolute", "max": 5},
        ])
        report = slo.evaluate(spec, {"x": 2}, absolute={"x": 100})
        by_name = {r.name: r for r in report.results}
        assert by_name["delta"].ok               # delta window saw 2
        assert not by_name["gauge"].ok           # absolute snapshot saw 100

    def test_quantile_objective_over_bucket_samples(self):
        spec = self._spec([{"name": "p50", "kind": "quantile",
                            "metric": "m", "q": 0.5, "max": 4}])
        window = dict(TestHistogramQuantileSamples.SAMPLES)
        report = slo.evaluate(spec, window)
        assert report.ok and report.results[0].value == 3.0
        # Same spec, empty window: missing data must not silently pass.
        assert not slo.evaluate(spec, {}).ok

    def test_as_dict_is_json_ready(self):
        spec = self._spec([{"name": "x", "kind": "value",
                            "sample": "x", "max": 10}])
        data = slo.evaluate(spec, {"x": 1}).as_dict()
        json.dumps(data)   # must not raise
        assert data["ok"] is True
        assert data["objectives"][0]["name"] == "x"


# ---------------------------------------------------------------------------
# Critical-path analysis
# ---------------------------------------------------------------------------


def span(span_id, parent, name, start, end, attrs=None):
    return {"t": "span", "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "attrs": attrs or {}}


def event(event_id, parent, name, at, attrs=None):
    return {"t": "event", "id": event_id, "parent": parent, "name": name,
            "at": at, "attrs": attrs or {}}


def chain_records():
    """negotiation(0..100) -> rpc(0..90, 20ms backoff) -> peer.answer
    (10..80) -> rpc(20..50): a hand-checkable blame decomposition."""
    return [
        span(1, None, "negotiation", 0.0, 100.0),
        span(2, 1, "rpc", 0.0, 90.0),
        span(3, 2, "peer.answer", 10.0, 80.0),
        span(4, 3, "rpc", 20.0, 50.0),
        event(5, 2, "transport.retry", 45.0, {"backoff_ms": 20.0}),
        event(6, 3, "negotiation.verify", 60.0),
    ]


class TestCriticalPath:
    def test_path_descends_into_latest_ending_child(self):
        analysis = critpath.analyze(chain_records())
        assert [s["id"] for s in analysis.path] == [1, 2, 3, 4]
        assert analysis.makespan_ms == 100.0

    def test_blame_decomposition(self):
        analysis = critpath.analyze(chain_records())
        # Hand computation: root self 10 (orchestration), rpc#2 self 20
        # entirely carved into retry backoff, peer.answer self 40
        # (sld-eval), rpc#4 self 30 (network-wait).
        assert analysis.blame["orchestration"] == pytest.approx(10.0)
        assert analysis.blame["retry-backoff"] == pytest.approx(20.0)
        assert analysis.blame["sld-eval"] == pytest.approx(40.0)
        assert analysis.blame["network-wait"] == pytest.approx(30.0)
        assert sum(analysis.blame.values()) == pytest.approx(100.0)
        assert analysis.event_counts == {"transport.retry": 1,
                                         "negotiation.verify": 1}

    def test_backoff_clamped_to_self_time(self):
        records = [span(1, None, "rpc", 0.0, 10.0),
                   event(2, 1, "transport.retry", 5.0,
                         {"backoff_ms": 500.0})]
        analysis = critpath.analyze(records)
        assert analysis.blame["retry-backoff"] == pytest.approx(10.0)
        assert analysis.blame["network-wait"] == pytest.approx(0.0)

    def test_root_is_latest_ending_root_span(self):
        records = [span(1, None, "negotiation", 0.0, 30.0),
                   span(2, None, "negotiation", 5.0, 60.0)]
        analysis = critpath.analyze(records)
        assert analysis.root["id"] == 2
        assert len(analysis.roots) == 2

    def test_orphans_promoted_and_open_spans_counted(self):
        records = [span(1, 99, "rpc", 0.0, 10.0),          # orphan parent
                   span(2, 1, "stuck", 2.0, None)]          # still open
        analysis = critpath.analyze(records)
        assert analysis.root["id"] == 1
        assert analysis.open_count == 1

    def test_render_contains_report_sections(self):
        rendered = critpath.render_critical_path(chain_records())
        assert rendered.startswith(
            "critical root: negotiation #1 0..100ms (makespan 100.000ms, "
            "1 root spans, 4 finished spans, 0 open)")
        assert "critical path (longest sim-time chain):" in rendered
        assert "[3] rpc #4 20..50 (30.000ms, self 30.000ms)" in rendered
        assert "blame by category" in rendered
        assert "transport retries" in rendered
        assert "crypto verify events" in rendered

    def test_render_is_input_order_invariant(self):
        records = chain_records()
        baseline = critpath.render_critical_path(records)
        shuffled = list(records)
        for seed in range(5):
            random.Random(seed).shuffle(shuffled)
            assert critpath.render_critical_path(shuffled) == baseline

    def test_empty_trace(self):
        assert critpath.render_critical_path([]) == \
            "(no finished spans -- nothing to analyze)\n"


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(20):
            recorder.note(float(index), "s", "send", "a", "b", str(index))
        events = recorder.events_for("s")
        assert len(events) == 8
        assert events[0][4] == "12"        # oldest retained is the 13th
        assert events[-1][4] == "19"

    def test_forget_drops_the_ring(self):
        recorder = FlightRecorder()
        recorder.note(1.0, "s", "send")
        recorder.forget("s")
        assert recorder.events_for("s") == []
        assert recorder.live_sessions() == []

    def test_disabled_recorder_is_a_no_op(self):
        recorder = FlightRecorder()
        recorder.enabled = False
        recorder.note(1.0, "s", "send")
        assert recorder.events_for("s") == []

    def test_events_mentioning_scans_all_rings(self):
        recorder = FlightRecorder()
        recorder.note(2.0, "s2", "drop", "Alice", "Bob")
        recorder.note(1.0, "s1", "send", "Bob", "Alice")
        recorder.note(3.0, "s1", "send", "Carol", "Dave")
        hits = recorder.events_mentioning("Alice")
        assert [(sid, entry[1]) for sid, entry in hits] == \
            [("s1", "send"), ("s2", "drop")]   # oldest first, by t_ms

    def test_reset_all_clears_global_recorder(self):
        from repro.determinism import reset_all

        RECORDER.note(1.0, "s", "send", "a", "b")
        RECORDER.dumps.append({"reason": "test"})
        reset_all()
        assert RECORDER.live_sessions() == []
        assert len(RECORDER.dumps) == 0

    def test_failed_negotiation_dumps_a_post_mortem(self):
        network = build_elena_network(key_bits=KEY_BITS)
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'),
                           deadline_ms=2.5)
        assert not result.granted and result.failure_kind
        assert len(RECORDER.dumps) >= 1
        dump = RECORDER.dumps[-1]
        assert dump["reason"] == f"failure:{result.failure_kind}"
        assert dump["requester"] == "Alice"
        assert dump["session"]["id"] == result.session.id
        kinds = {entry["kind"] for entry in dump["events"]}
        assert "send" in kinds              # the ring saw the traffic
        json.dumps(dump)                    # post-mortems are JSON-ready

    def test_successful_negotiation_dumps_nothing(self):
        network = build_elena_network(key_bits=KEY_BITS)
        result = negotiate(network.alice, "E-Learn",
                           parse_literal('enroll(spanish205, "Alice")'))
        assert result.granted
        assert len(RECORDER.dumps) == 0
        # The session ring was forgotten on release: rings never outlive
        # their session, so "always on" stays bounded.
        assert RECORDER.live_sessions() == []

    def test_crash_recovery_dumps_a_post_mortem(self):
        from repro.storage.recovery import restart_peer
        from repro.workloads.generator import build_bilateral_fleet

        fleet = build_bilateral_fleet(1, key_bits=KEY_BITS)
        restart_peer(fleet.world.transport, "Client0")
        recovery_dumps = [d for d in RECORDER.dumps
                          if d["reason"] == "crash-recovery"]
        assert len(recovery_dumps) == 1
        dump = recovery_dumps[0]
        assert dump["peer"] == "Client0"
        assert dump["recovery"]["warm"] is False
        kinds = {entry["kind"] for entry in dump["events"]}
        assert "crash" in kinds
        json.dumps(dump)

    def test_fingerprint_is_deterministic(self):
        network = build_elena_network(key_bits=KEY_BITS)
        session = network.world.transport.sessions.get_or_create(
            "fp", "Alice", 30)
        session.counters["b"] += 2
        session.counters["a"] += 1
        fingerprint = flightrec.session_fingerprint(session)
        assert fingerprint["id"] == "fp"
        assert list(fingerprint["counters"]) == ["a", "b"]


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCliAnalysis:
    def test_slo_check_passes_committed_fleet_spec(self):
        status, output = run_cli(
            "slo-check", "benchmarks/slo/fleet.json",
            "--pairs", "1", "--key-bits", str(KEY_BITS))
        assert status == 0
        assert "-- PASS" in output

    def test_slo_check_fails_violated_spec(self, tmp_path):
        spec_path = tmp_path / "tight.json"
        spec_path.write_text(json.dumps({
            "name": "tight",
            "objectives": [{"name": "impossible", "kind": "value",
                            "sample": "peertrust_transport_messages_total",
                            "max": 0}]}))
        status, output = run_cli(
            "slo-check", str(spec_path),
            "--pairs", "1", "--key-bits", str(KEY_BITS))
        assert status == 1
        assert "-- FAIL" in output
        assert "impossible" in output

    def test_slo_check_json_report(self, tmp_path):
        report_path = tmp_path / "slo.json"
        status, _ = run_cli(
            "slo-check", "benchmarks/slo/fleet.json",
            "--pairs", "1", "--key-bits", str(KEY_BITS),
            "--json", str(report_path))
        assert status == 0
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert {obj["name"] for obj in data["objectives"]} >= \
            {"p50_negotiation_sim_ms", "p99_negotiation_sim_ms"}

    def test_trace_view_critical_path(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        status, _ = run_cli("demo", "quickstart", "--trace",
                            str(trace_path))
        assert status == 0
        status, output = run_cli("trace-view", str(trace_path),
                                 "--critical-path")
        assert status == 0
        assert output.startswith("critical root:")
        assert "blame by category" in output

    def test_table_pass_contains_its_remote_evaluation(self, tmp_path):
        # The CI clean negotiation: each remote sub-query E-Learn's table
        # pass issues is a child of that pass, so the pass is charged no
        # time the network already accounts for.
        world_path = tmp_path / "world.json"
        trace_path = tmp_path / "clean.jsonl"
        assert run_cli("save-demo", "scenario2", str(world_path))[0] == 0
        status, _ = run_cli(
            "negotiate", str(world_path), "--requester", "Bob",
            "--provider", "E-Learn",
            "--goal", 'enroll(cs101, "Bob", Company, Email, 0)',
            "--trace", str(trace_path))
        assert status == 0
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        spans = [r for r in records if r["t"] == "span"]
        passes = [s for s in spans if s["name"] == "negotiation.table.pass"]
        nested = 0
        for remote in spans:
            if remote["name"] != "negotiation.remote":
                continue
            enclosing = [p for p in passes
                         if p["attrs"]["peer"] == remote["attrs"]["peer"]
                         and p["start"] <= remote["start"]
                         and remote["end"] <= p["end"]]
            if enclosing:
                innermost = max(enclosing, key=lambda p: (p["start"], p["id"]))
                assert remote["parent"] == innermost["id"], remote
                nested += 1
        assert nested >= 2
        status, output = run_cli("trace-view", str(trace_path),
                                 "--critical-path")
        assert status == 0
        tabling = [line.split() for line in output.splitlines()
                   if line.strip().startswith("tabling ")]
        assert tabling and tabling[0][1] == "0.000ms", output

    def test_gem_leader_spans_nest_under_their_fixpoint(self, tmp_path):
        # The mutual demo's SCC leader re-runs its table pass under a
        # fixpoint span and broadcasts completion from its own answer: each
        # repeated pass is a child of the fixpoint, the completion notice
        # a child of the leader's peer.answer, so neither the fixpoint nor
        # the notice is charged time its children already account for.
        trace_path = tmp_path / "mutual.jsonl"
        status, _ = run_cli("demo", "mutual", "--trace", str(trace_path))
        assert status == 0
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        spans = {r["id"]: r for r in records if r["t"] == "span"}
        fixpoints = [s for s in spans.values()
                     if s["name"] == "negotiation.table.fixpoint"]
        assert fixpoints
        for fixpoint in fixpoints:
            passes = [s for s in spans.values()
                      if s["name"] == "negotiation.table.pass"
                      and s["parent"] == fixpoint["id"]]
            assert len(passes) == fixpoint["attrs"]["rounds"], fixpoint
        notices = [s for s in spans.values() if s["name"] == "table-notify"]
        assert notices
        for notice in notices:
            parent = spans[notice["parent"]]
            assert parent["name"] == "peer.answer", parent
            assert parent["attrs"]["peer"] == notice["attrs"]["sender"]
        status, output = run_cli("trace-view", str(trace_path),
                                 "--critical-path")
        assert status == 0
        blame = {line.split()[0]: line.split()[1]
                 for line in output.splitlines()
                 if line.startswith("  ") and line.split()[1].endswith("ms")}
        assert blame["tabling"] == "0.000ms", output
        assert blame["sld-eval"] == "0.000ms", output

    def test_demo_flight_recorder_writes_dump_file(self, tmp_path):
        recorder_path = tmp_path / "flightrec.jsonl"
        status, _ = run_cli(
            "demo", "scenario2",
            "--drop", "0.3", "--fault-seed", "7", "--retries", "4",
            "--flight-recorder", str(recorder_path))
        assert recorder_path.exists()
        dumps = [json.loads(line)
                 for line in recorder_path.read_text().splitlines()]
        assert len(dumps) >= 1
        assert all("reason" in dump for dump in dumps)
        kinds = {entry["kind"] for dump in dumps
                 for entry in dump["events"]}
        assert kinds & {"drop", "retry"}    # the weather left a ring trail
