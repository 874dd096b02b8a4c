"""Tier-1 smoke target for the market experiments E16–E19.

Runs ``benchmarks/bench_e16_market.py``'s conformance gate in
``--quick`` mode, shows that every E16–E19 gate criterion can fail,
pins the run's determinism, checks ``run_all.py``'s refusal of a
backend it cannot run, and unit-tests CI's perf guard arithmetic
(``benchmarks/perf_guard.py``) on canned dicts — the market analogue
of ``tests/test_perfsuite.py``.
"""

import functools
import json
import os
import sys
from dataclasses import replace

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_e16_market  # noqa: E402
import bench_e17_faults  # noqa: E402
import bench_e18_chaos  # noqa: E402
import bench_e19_fees  # noqa: E402
import perf_guard  # noqa: E402
import run_all  # noqa: E402
from repro.market import MarketReport  # noqa: E402
from repro.market.fees import SEAL_POLICIES  # noqa: E402
from repro.workloads.market import MarketProfile  # noqa: E402

# mode -> (CLI flags, gate_run axes)
MODES = {
    "plain": ([], {}),
    "mixed": (["--protocol-mix"], {"mixed": True}),
    "sharded": (["--shards", "2"], {"shards": 2}),
}


@functools.cache
def quick_run(mode):
    return bench_e16_market.gate_run(quick=True, **MODES[mode][1])


def check(mode, **doctored):
    return bench_e16_market.check_gate(replace(quick_run(mode), **doctored))


def assert_quick_gate_passes(mode):
    report = quick_run(mode).report
    assert check(mode) == []
    assert bench_e16_market.main(["--quick", *MODES[mode][0]]) == 0
    # The fixed-seed smoke market must actually run hot.
    assert report.committed > report.deals * 0.8
    assert report.committed + report.aborted + report.rejected == report.deals
    assert report.chains >= 4
    assert report.latency_p99 >= report.latency_p50 > 0
    return report


def test_market_quick_smoke():
    assert_quick_gate_passes("plain")


def test_market_protocol_mix_quick_smoke():
    """The --protocol-mix mode commits via all three protocols."""
    report = assert_quick_gate_passes("mixed")
    assert set(report.committed_by_protocol()) == {"unanimity", "timelock", "cbc"}
    assert report.stale_proofs_rejected > 0


def test_market_sharded_quick_smoke():
    """--shards 2 gates the quick sharded acceptance criteria."""
    report = assert_quick_gate_passes("sharded")
    assert report.shards == 2
    assert dict(report.verify_stats)["merged_batches"] > 0


def _cbc_under_floor(report):
    return tuple(
        (row[0], 3, *row[2:]) if row[0] == "cbc" else row
        for row in report.per_protocol
    )


@pytest.mark.parametrize("mode, doctor, criterion", [
    ("plain", lambda r: {"stuck": 1}, "1 stuck deals"),
    ("plain", lambda r: {"invariant_violations": ("x",)},
     "1 invariant violations (first: x)"),
    ("plain", lambda r: {"committed": 0}, "committed 0 < 25"),
    ("mixed", lambda r: {"per_protocol": _cbc_under_floor(r)},
     "cbc committed 3 < 25"),
    ("mixed", lambda r: {"per_protocol": r.per_protocol[:2]},
     "unanimity committed 0 < 25"),
    ("sharded", lambda r: {"cross_shard_deals": 0},
     "cross-shard fraction 0.0% < 20%"),
    ("sharded", lambda r: {"verify_stats": ()}, "aggregator merge rate is 0"),
])
def test_market_gate_criteria_can_fail(mode, doctor, criterion):
    """Each criterion names itself when a doctored report breaks it."""
    report = quick_run(mode).report
    assert check(mode, report=replace(report, **doctor(report))) == [criterion]


def test_market_gate_trace_coverage_floor():
    assert check("plain", coverage=0.96) == []
    assert check("plain", coverage=0.9) == ["trace coverage 90.0% < 95%"]


# ----------------------------------------------------------------------
# E17-E19 gates on hand-built reports (no market runs)
# ----------------------------------------------------------------------
def _report(**doctored):
    """A report that passes every E17, E18 and E19 criterion at --quick."""
    fields = dict(
        deals=100, committed=100, aborted=0, rejected=0, stuck=0,
        conflicts=0, timeouts=0, latency_p50=5.0, latency_p90=5.0,
        latency_p99=5.0, end_time=100.0, deals_per_kilotick=1.0, chains=4,
        blocks=10, txs_executed=100, txs_reverted=0, max_mempool_depth=1,
        events_processed=1, faults_injected=1, recoveries=1,
        replication_stats=(("hash_checks", 1),),
        bus_stats=tuple((counter, 1) for counter in bench_e18_chaos.HAZARDS),
        fees_accrued=1,
    )
    return MarketReport(**{**fields, **doctored})


def e17(**doctored):
    return bench_e17_faults.check_gate(_report(**doctored), quick=True)


def e18(**doctored):
    return bench_e18_chaos.check_gate(_report(**doctored), None, quick=True)


def e19(policy="first_price", honest=(), **doctored):
    runs = {
        name: (
            _report(fee_priced_out=int(name == "base_fee")),
            {"honest_committed": 25, "honest_aborted": 0, "honest_p99": 5.0},
        )
        for name in SEAL_POLICIES
    }
    report, outcomes = runs[policy]
    runs[policy] = (replace(report, **doctored), {**outcomes, **dict(honest)})
    return bench_e19_fees.check_gate(runs, quick=True)


_BROKEN = ("x",)
_NO_DELAY = tuple(
    (counter, 1) for counter in bench_e18_chaos.HAZARDS
    if counter != "chaos_delayed"
)


GATE_CASES = [
    (e17, {}, []),
    (e17, {"faults_injected": 0}, ["no crash faults fired (schedule is empty)"]),
    (e17, {"committed": 79}, ["committed 79 < 80"]),
    (e17, {"stuck": 1}, ["1 stuck deals"]),
    (e17, {"invariant_violations": _BROKEN}, ["1 invariant violations (first: x)"]),
    (e17, {"recoveries": 0}, ["no replica recovered"]),
    (e17, {"replication_stats": ()}, ["no post-replay hash checks ran"]),
    (e17, {"replication_stats": (("hash_checks", 1), ("hash_mismatches", 2))},
     ["2 recovered replicas diverged"]),
    (e18, {}, []),
    (e18, {"committed": 39}, ["committed 39 < 40"]),
    (e18, {"stuck": 1}, ["1 stuck deals"]),
    (e18, {"invariant_violations": _BROKEN}, ["1 invariant violations (first: x)"]),
    (e18, {"bus_stats": _NO_DELAY}, ["hazard never fired: chaos_delayed == 0"]),
    (e18, {"faults_injected": 0}, ["no replica crash fired (schedule is empty)"]),
    (e19, {}, []),
    (e19, {"policy": "fifo", "stuck": 1}, ["fifo: 1 stuck deals"]),
    (e19, {"policy": "base_fee", "invariant_violations": _BROKEN},
     ["base_fee: 1 invariant violations (first: x)"]),
    (e19, {"honest": {"honest_committed": 24}},
     ["first_price: honest committed 24 < 25"]),
    (e19, {"policy": "base_fee", "honest": {"honest_p99": 21.0}},
     ["base_fee: honest p99 21.00 > 20.00 (3x fifo + 5)"]),
    (e19, {"fees_accrued": 0}, ["first_price: no fees accrued under congestion"]),
    (e19, {"policy": "base_fee", "fee_priced_out": 0},
     ["base_fee: freeloading spam was never priced out"]),
    (e19, {"policy": "fifo", "fee_priced_out": 1},
     ["fifo: priced out deals under the FIFO policy"]),
]


@pytest.mark.parametrize("gate, doctor, failures", GATE_CASES, ids=[
    f"{gate.__name__}: {failures[0] if failures else 'pass'}"
    for gate, _, failures in GATE_CASES
])
def test_e17_to_e19_gate_criteria_can_fail(gate, doctor, failures):
    """Each criterion names itself when a hand-built report breaks it."""
    assert gate(**doctor) == failures


def test_run_all_refuses_the_processes_backend_inside_a_pool():
    """Pool workers cannot fork, so ``--exec processes`` under ``--jobs 2``
    would quietly run the inline backend."""
    with pytest.raises(SystemExit) as exit_:
        run_all.main(["run_all.py", "--quick", "--exec", "processes", "--jobs", "2"])
    assert exit_.value.code == 2


def test_market_fixed_seed_run_is_deterministic():
    first = bench_e16_market.run_market(MarketProfile.smoke())
    second = bench_e16_market.run_market(MarketProfile.smoke())
    assert first.fingerprint() == second.fingerprint()
    # The rendered report is the byte-identity contract run_all relies on.
    assert first.render() == second.render()


def test_market_sweep_identical_across_job_counts():
    base = replace(bench_e16_market._SWEEP_BASE, deals=40)
    serial = bench_e16_market.rate_sweep(jobs=1, base=base)
    parallel = bench_e16_market.rate_sweep(jobs=2, base=base)
    assert serial == parallel


# ----------------------------------------------------------------------
# perf_guard: CI's regression arithmetic on canned dicts
# ----------------------------------------------------------------------
SPEC = {"end_to_end": [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "deals_per_s", "better": "higher", "bound": 0.25},
    {"name": "commit_rate", "better": "higher", "bound": 0.25},
]}


def _result(deals_per_s, setup_s):
    return {"w": {"metrics": {
        "deals_per_s": {"value": deals_per_s},
        "setup_s": {"value": setup_s},
        "commit_rate": {"value": 0.0},
    }}}


@pytest.mark.parametrize("fresh, speed, regressions", [
    (_result(100.0, 1.0), 1.0, []),
    (_result(80.0, 1.2), 1.0, []),
    (_result(60.0, 1.0), 1.0, ["deals_per_s"]),  # a 40% drop
    (_result(100.0, 1.3), 1.0, ["setup_s"]),
    (_result(60.0, 1.6), 0.6, []),  # same code on a 0.6x box
    (_result(100.0, 1.0), 1.5, ["deals_per_s", "setup_s"]),
])
def test_perf_guard_bounds_scale_with_the_speed_probe(fresh, speed, regressions):
    baseline = {"end_to_end": _result(100.0, 1.0)}
    rows = perf_guard.guard(fresh, baseline, SPEC, speed)
    assert [row[:2] for row in rows] == [("w", "setup_s"), ("w", "deals_per_s")]
    assert sorted(row[1] for row in rows if not row[-1]) == regressions


def test_perf_guard_fails_on_crypto_only(tmp_path, capsys):
    """A market miss vs the stale bench/baseline.json is report-only."""
    root = perf_guard.ROOT
    crypto = perf_guard.load(root / "BENCH_crypto_quick.json")
    market = perf_guard.load(root / "bench" / "baseline.json")["end_to_end"]
    market["protocol_mix"]["metrics"]["deals_per_s"]["value"] /= 2
    (tmp_path / "bench.txt").write_text("log\n" + json.dumps(market))
    for batch_scale, code in ((1.0, 0), (0.5, 1)):
        crypto["metrics"]["batch_verify_sigs_per_s"] *= batch_scale
        (tmp_path / "crypto.json").write_text(json.dumps(crypto))
        argv = [str(tmp_path / "crypto.json"), str(tmp_path / "bench.txt")]
        assert perf_guard.main(argv) == code
        out = capsys.readouterr().out
        assert "(report-only): ['protocol_mix.deals_per_s']" in out
