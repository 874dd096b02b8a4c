"""Telemetry plane: byte-neutrality, determinism, and unit behaviour.

The two contract tests matter most: a traced, replicated market run
must produce the exact report bytes (fingerprint included) of the
untraced run, and two same-seed traced runs must write byte-identical
JSONL files.  ``TestReplay`` holds the one analytical path to the
report: the trace alone recomputes every roll-up the report keeps.
Everything else here pins the tracer/metrics/export units those
contracts rest on.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.market import MarketConfig, MarketCoordinator, open_market
from repro.market.protocols import DealPhase
from repro.sim.faults import FaultPlan, ReplicaCrash
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.telemetry.export import (
    chrome_trace,
    load_trace,
    replay_counts,
    summarize,
    trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.telemetry.metrics import _percentile
from repro.workloads.market import MarketProfile, MarketWorkload


def _run(telemetry=None, replication=1, fault_plan=None,
         profile=None, **config):
    config = MarketConfig(
        replication_factor=replication,
        fault_plan=fault_plan,
        telemetry=telemetry,
        **config,
    )
    profile = profile or MarketProfile.sharded_smoke()
    return MarketCoordinator(MarketWorkload(profile), config).run()


def _traced(**kwargs):
    telemetry = Telemetry()
    return telemetry, _run(telemetry=telemetry, **kwargs)


def _crash_plan():
    plan = FaultPlan()
    plan.add(ReplicaCrash(replica="s0/r0", at_time=9.0, recover_at=25.0))
    return plan


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
    return _traced(replication=2)


@pytest.fixture(scope="module")
def crash_traced():
    """Replication factor 3 with one replica crashed and recovered."""
    return _traced(replication=3, fault_plan=_crash_plan())


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
        committed, full = replay_counts(trace_records(telemetry))[0]["coverage"]
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
        # Each run owns its verdict cache, so both start cold wherever
        # pytest schedules this, and the traces must match byte for byte.
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
        assert (child.start, child.end) == (2.0, 3.5)
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
        summary = MetricsRegistry().histogram_summary("missing")
        assert summary == {"count": 0, "sum": 0, "min": 0, "max": 0,
                           "p50": 0, "p90": 0, "p99": 0}

    def test_percentile_single_sample(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert _percentile([42.0], q) == 42.0

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.5) == 2.0
        assert _percentile(values, 0.99) == 4.0
        assert _percentile(values, 1.0) == 4.0


# The report's fields ``replay_counts`` recomputes under the same name
# (``crashes`` is the report's ``faults_injected``).
REPLAYED_FIELDS = (
    "deals", "committed", "aborted", "rejected", "stuck", "conflicts",
    "timeouts", "latency_p50", "latency_p90", "latency_p99", "per_protocol",
    "cross_shard_deals", "cross_shard_committed", "sore_losers",
    "recoveries", "failovers", "fee_priced_out",
    "blocks", "txs_executed", "txs_reverted",
)

REPLAY_CASES = {
    "smoke": dict(profile=MarketProfile.smoke()),
    "mixed_smoke": dict(profile=MarketProfile.mixed_smoke()),
    "congested_base_fee": dict(
        profile=MarketProfile.congested_smoke(), seal_policy="base_fee"
    ),
}


class TestReplay:
    @pytest.mark.parametrize("case", ["sharded_crash", *REPLAY_CASES])
    def test_trace_recomputes_report(self, case, crash_traced):
        if case == "sharded_crash":
            telemetry, report = crash_traced
            assert report.faults_injected == report.recoveries == 1
        else:
            telemetry, report = _traced(**REPLAY_CASES[case])
        (counts,) = replay_counts(trace_records(telemetry))
        replayed = {field: counts[field] for field in REPLAYED_FIELDS}
        replayed["faults_injected"] = counts["crashes"]
        assert replayed == {field: getattr(report, field) for field in replayed}
        if case == "congested_base_fee":
            assert report.fee_priced_out > 0
        if case == "mixed_smoke":
            assert len(report.per_protocol) == 3

    def test_merged_trace_is_replayed_run_by_run(self, crash_traced):
        other = _traced(profile=replace(MarketProfile.smoke(seed=7), deals=20))
        runs = [crash_traced, other]
        merged = [r for telemetry, _ in runs for r in trace_records(telemetry)]
        counts = replay_counts(merged)
        assert len(counts) == 2
        for (telemetry, report), rollup in zip(runs, counts):
            assert rollup == replay_counts(trace_records(telemetry))[0]
            assert rollup["committed"] == report.committed
        assert [c["meta"]["seed"] for c in counts] == ["0", "7"]
        text = summarize(merged, top=1)
        assert "seed=0 " in text and "seed=7 " in text
        assert text.count("slowest committed deals") == 2
        # Both runs trace deal-0.., so a merged walk would interleave them.
        assert all(line.count("register") <= 1 for line in text.splitlines())
        document = chrome_trace(merged)
        threads = {
            (e["pid"], e["tid"]) for e in document["traceEvents"] if e["ph"] != "M"
        }
        assert {pid for pid, _ in threads} == {1, 2}
        assert len({tid for _, tid in threads}) == len(threads)


def _hand_run(index, phase, reason="", conflict=False, sore_loser=False):
    """The slice of a market deal run the telemetry hooks read."""
    return SimpleNamespace(
        order=SimpleNamespace(index=index, deal_id=bytes([index]) * 32),
        protocol="timelock", home_shard=0, cross_shard=False,
        phase=phase, reason=reason, conflict=conflict, sore_loser=sore_loser,
    )


def _hand_trace(finished, stuck):
    """Trace ``finished`` runs to their outcome and leave ``stuck`` open."""
    runs = [*finished, *stuck]
    market = SimpleNamespace(
        simulator=SimpleNamespace(now=0.0), workload=SimpleNamespace(seed=0),
        chains={}, mempools={}, shards=1, replication=None,
        config=SimpleNamespace(replication_factor=1),
        runs={run.order.deal_id: run for run in runs},
    )
    telemetry = Telemetry()
    telemetry.attach(market)
    for run in runs:
        telemetry.deal_admitted(run, 0.0)
    for run in finished:
        telemetry.deal_finished(run, 5.0)
    market.simulator.now = 9.0
    telemetry.finalize(market)
    (counts,) = replay_counts(trace_records(telemetry))
    return telemetry, counts


class TestReplayFlags:
    """A root span carries its deal's conflict / sore-loser flag whatever
    the deal's reason, and whether or not the deal ever finished."""

    def test_conflicts_replay_under_any_reason_and_when_stuck(self):
        timed_out = _hand_run(0, DealPhase.ABORTED, "timeout", conflict=True)
        stuck = _hand_run(1, DealPhase.ESCROW, conflict=True)
        _, counts = _hand_trace([timed_out], [stuck])
        assert counts["conflicts"] == 2
        assert counts["conflicts_by_shard"] == ((0, 2),)
        assert (counts["timeouts"], counts["stuck"]) == (1, 1)

    def test_sore_loser_replays_and_clean_roots_carry_no_flag(self):
        sore = _hand_run(0, DealPhase.ABORTED, "unsettled", sore_loser=True)
        clean = _hand_run(1, DealPhase.COMMITTED)
        telemetry, counts = _hand_trace([sore, clean], [])
        assert (counts["sore_losers"], counts["conflicts"]) == (1, 0)
        sore_root, clean_root = (
            span for span in telemetry.tracer.spans if span.name == "deal"
        )
        assert sore_root.attrs["sore_loser"] is True
        assert "sore_loser" not in clean_root.attrs
        assert "conflict" not in clean_root.attrs


class TestReplicationSpans:
    def test_crash_recovery_and_failover_traced(self, crash_traced):
        telemetry, report = crash_traced
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
        assert records[-1]["type"] == "metrics"
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
