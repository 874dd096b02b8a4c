"""Telemetry plane: byte-neutrality, determinism, and unit behaviour.

The two contract tests matter most: a traced, replicated market run
must produce the exact report bytes (fingerprint included) of the
untraced run, and two same-seed traced runs must write byte-identical
JSONL files.  Everything else here pins the tracer/metrics/tap/export
units those contracts rest on.
"""

from __future__ import annotations

import json

import pytest

from repro.crypto import schnorr
from repro.market import MarketConfig, MarketCoordinator, open_market
from repro.market.report import _percentile as scheduler_percentile
from repro.sim.faults import FaultPlan, ReplicaCrash
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.telemetry.export import (
    chrome_trace,
    load_trace,
    summarize,
    trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.telemetry.metrics import _percentile
from repro.workloads.market import MarketProfile, MarketWorkload


def _run(telemetry=None, replication=1, fault_plan=None):
    config = MarketConfig(
        replication_factor=replication,
        fault_plan=fault_plan,
        telemetry=telemetry,
    )
    scheduler = MarketCoordinator(MarketWorkload(MarketProfile.sharded_smoke()), config)
    return scheduler.run()


@pytest.fixture(scope="module")
def base_report():
    """The untraced, unreplicated reference run."""
    return open_market(MarketWorkload(MarketProfile.sharded_smoke())).run()


@pytest.fixture(scope="module")
def replicated_report():
    """Untraced but replicated — the render() comparison baseline."""
    return _run(replication=2)


@pytest.fixture(scope="module")
def traced():
    """One traced, replicated run shared by the read-only tests."""
    telemetry = Telemetry()
    report = _run(telemetry=telemetry, replication=2)
    return telemetry, report


class TestByteNeutrality:
    def test_fingerprint_unchanged_by_telemetry_and_replication(
        self, base_report, traced
    ):
        _, report = traced
        assert report.fingerprint() == base_report.fingerprint()

    def test_render_unchanged_by_telemetry(self, replicated_report, traced):
        _, report = traced
        assert report.render() == replicated_report.render()

    def test_outcome_log_unchanged(self, base_report, traced):
        _, report = traced
        assert report.outcome_log == base_report.outcome_log


class TestCoverage:
    def test_full_span_chains_for_committed_deals(self, traced):
        telemetry, report = traced
        committed, full = telemetry.deal_coverage()
        assert committed == report.committed
        assert full / committed >= 0.95

    def test_root_spans_carry_outcomes(self, traced):
        telemetry, _ = traced
        roots = [s for s in telemetry.tracer.spans if s.name == "deal"]
        assert roots
        assert all(s.end is not None for s in roots)
        assert all("outcome" in s.attrs for s in roots)


class TestDeterminism:
    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        # Start cold wherever pytest schedules this: the first run then
        # misses every crypto cache and the second hits them, and the
        # trace must not be able to tell.
        schnorr.clear_verification_caches()
        paths = []
        for tag in ("a", "b"):
            telemetry = Telemetry()
            _run(telemetry=telemetry, replication=2)
            path = tmp_path / f"trace_{tag}.jsonl"
            write_trace_jsonl(telemetry, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_telemetry_instance_records_one_run(self, traced):
        telemetry, _ = traced
        with pytest.raises(RuntimeError):
            _run(telemetry=telemetry)


class TestTracer:
    def test_span_lifecycle_and_causality(self):
        tracer = Tracer()
        root = tracer.start_span("t1", "deal", 1.0, protocol="unanimity")
        child = tracer.start_span("t1", "escrow", 2.0, parent=root)
        child.close(3.5)
        root.close(4.0, outcome="committed")
        assert child.parent_id == root.span_id
        assert child.duration == 1.5
        record = child.to_record()
        assert record["type"] == "span"
        assert record["parent"] == root.span_id
        root_record = root.to_record()
        assert root_record["attrs"]["outcome"] == "committed"

    def test_close_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("t1", "deal", 1.0)
        span.close(2.0, outcome="committed")
        span.close(9.0, outcome="aborted")
        assert span.end == 2.0
        assert span.attrs["outcome"] == "committed"

    def test_events_are_points(self):
        tracer = Tracer()
        event = tracer.event("t1", "seal-register", 2.5, chain="mchain0")
        assert event.point
        assert event.end == event.start == 2.5
        assert event.to_record()["type"] == "event"

    def test_close_open_spans_marks_truncated(self):
        tracer = Tracer()
        open_span = tracer.start_span("t1", "deal", 1.0)
        closed = tracer.start_span("t1", "other", 1.0)
        closed.close(2.0)
        assert tracer.close_open_spans(7.0) == 1
        assert open_span.end == 7.0
        assert open_span.attrs["truncated"] is True
        assert "truncated" not in closed.attrs

    def test_by_trace_groups(self):
        tracer = Tracer()
        tracer.start_span("a", "x", 0.0)
        tracer.start_span("b", "y", 0.0)
        tracer.start_span("a", "z", 1.0)
        grouped = tracer.by_trace()
        assert sorted(grouped) == ["a", "b"]
        assert [s.name for s in grouped["a"]] == ["x", "z"]


class TestMetrics:
    def test_instruments(self):
        metrics = MetricsRegistry()
        metrics.count("c")
        metrics.count("c", 4)
        metrics.gauge("g", 7.5)
        metrics.gauge("g", 2.5)
        for value in (3, 1, 2):
            metrics.observe("h", value)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["c"] == 5
        assert snapshot["gauges"]["g"] == 2.5
        summary = snapshot["histograms"]["h"]
        assert summary["count"] == 3
        assert summary["min"] == 1
        assert summary["max"] == 3
        assert summary["p50"] == 2

    def test_percentile_empty(self):
        assert _percentile([], 0.5) == 0.0
        assert scheduler_percentile([], 0.99) == 0.0
        summary = MetricsRegistry().histogram_summary("missing")
        assert summary == {"count": 0, "sum": 0, "min": 0, "max": 0,
                           "p50": 0, "p90": 0, "p99": 0}

    def test_percentile_single_sample(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert _percentile([42.0], q) == 42.0
            assert scheduler_percentile([42.0], q) == 42.0

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.5) == 2.0
        assert _percentile(values, 0.99) == 4.0
        assert _percentile(values, 1.0) == 4.0


class TestBlockTap:
    def test_summary_matches_report(self, traced):
        telemetry, report = traced
        summary = telemetry.tap.summary()
        assert summary["blocks_ingested"] == report.blocks
        assert summary["txs_ingested"] == report.txs_executed
        assert summary["deals_committed"] == report.committed
        # Forged orders are rejected at the mempool, so they never
        # register on-chain and the tap never sees them.
        assert summary["deals_registered"] == report.deals - report.rejected

    def test_windowed_commit_rate(self, traced):
        telemetry, report = traced
        now = telemetry.meta["end_time"]
        whole_run = telemetry.tap.commit_rate(window=now + 1.0, now=now)
        assert whole_run == pytest.approx(report.committed / (now + 1.0))
        assert telemetry.tap.commit_rate(window=10.0, now=-100.0) == 0.0

    def test_latency_percentiles_by_protocol(self, traced):
        telemetry, _ = traced
        percentiles = telemetry.tap.latency_percentiles()
        assert "unanimity" in percentiles
        pcts = percentiles["unanimity"]
        assert pcts["p50"] <= pcts["p90"] <= pcts["p99"]


class TestReplicationSpans:
    def test_crash_recovery_and_failover_traced(self):
        plan = FaultPlan()
        plan.add(ReplicaCrash(replica="s0/r0", at_time=9.0, recover_at=25.0))
        telemetry = Telemetry()
        report = _run(telemetry=telemetry, replication=3, fault_plan=plan)
        assert report.faults_injected == 1
        down = [s for s in telemetry.tracer.spans if s.name == "down:s0/r0"]
        assert len(down) == 1
        assert down[0].end is not None
        assert down[0].attrs["replayed"] >= 0
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["replication.crashes"] == 1
        assert counters["replication.recoveries"] == 1
        assert counters["replication.deltas_shipped"] > 0


class TestExport:
    def test_record_order_and_roundtrip(self, traced, tmp_path):
        telemetry, _ = traced
        records = trace_records(telemetry)
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "analytics"
        assert records[-2]["type"] == "metrics"
        assert records[0]["spans"] == len(telemetry.tracer.spans)
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(telemetry, str(path))
        assert count == len(records)
        assert load_trace(str(path)) == records

    def test_chrome_trace_structure(self, traced, tmp_path):
        telemetry, _ = traced
        records = trace_records(telemetry)
        document = chrome_trace(records)
        events = document["traceEvents"]
        names = {e["ph"] for e in events}
        assert "M" in names and "X" in names
        complete = [e for e in events if e["ph"] == "X"]
        spans = [r for r in records if r.get("type") == "span"]
        assert len(complete) == len(spans)
        # 1 tick renders as 1 ms (1000 µs on the Chrome scale).
        assert complete[0]["ts"] == spans[0]["start"] * 1000.0
        path = tmp_path / "trace.chrome.json"
        assert write_chrome_trace(records, str(path)) == len(events)
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"

    def test_summarize_reports_deals_and_slowest(self, traced):
        telemetry, report = traced
        text = summarize(trace_records(telemetry), top=3)
        assert "Trace summary" in text
        assert f"committed {report.committed}" in text
        assert "slowest committed deals" in text
        assert "register" in text


class TestCli:
    def test_trace_summary_command(self, traced, tmp_path, capsys):
        from repro.cli import main

        telemetry, _ = traced
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(telemetry, str(path))
        chrome = tmp_path / "trace.chrome.json"
        assert main(["trace-summary", str(path), "--top", "2",
                     "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "Chrome trace events" in out
        assert chrome.exists()

    def test_trace_summary_empty_file_fails(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-summary", str(path)]) == 1
        assert "no trace records" in capsys.readouterr().out
