"""Tier-1 smoke target for the market experiments E16–E19.

Runs ``benchmarks/bench_e16_market.py``'s conformance gate in
``--quick`` mode, shows that every E16–E19 gate criterion can fail,
pins the run's determinism, checks ``run_all.py``'s refusal of a
backend it cannot run, and unit-tests CI's perf gate
(``benchmarks/perf_guard.py``, count caps per workload) on canned dicts.
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
# perf_guard: CI's count caps on canned dicts
# ----------------------------------------------------------------------
def _at_caps():
    """``bench/run.py``'s result map with every capped count at its cap."""
    return {
        workload: {"metrics": {
            metric: {"value": cap} for metric, cap in caps.items()
        }}
        for workload, caps in perf_guard.CAPS.items()
    }


def _guard(results, tmp_path):
    (tmp_path / "bench.txt").write_text("log line\n" + json.dumps(results))
    return perf_guard.main([str(tmp_path / "bench.txt")])


def test_perf_guard_passes_counts_at_their_caps(tmp_path, capsys):
    assert _guard(_at_caps(), tmp_path) == 0
    assert "re-record" not in capsys.readouterr().out


@pytest.mark.parametrize("metric", [
    "fastexp.multi_pow_calls", "fastexp.multi_pow_pairs", "schnorr.sign_calls",
])
def test_perf_guard_fails_one_count_over_its_cap(metric, tmp_path, capsys):
    for workload in perf_guard.CAPS:
        results = _at_caps()
        results[workload]["metrics"][metric]["value"] += 1
        assert _guard(results, tmp_path) == 1
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("perf regression")]
        assert len(failures) == 1 and f"{workload}.{metric} = " in failures[0]


def test_perf_guard_passes_a_lower_count_and_says_to_re_record(tmp_path, capsys):
    results = _at_caps()
    results["single_deals"]["metrics"]["schnorr.sign_calls"]["value"] -= 1
    assert _guard(results, tmp_path) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if "re-record" in line]
    assert line.startswith("single_deals.schnorr.sign_calls = ")


def test_perf_guard_fails_when_the_workload_sets_differ(tmp_path, capsys):
    missing = _at_caps()
    del missing["fee_congestion"]
    assert _guard(missing, tmp_path) == 1
    assert "fee_congestion: missing from the output" in capsys.readouterr().out
    uncapped = {**_at_caps(), "new_workload": {"metrics": {}}}
    assert _guard(uncapped, tmp_path) == 1
    assert "new_workload: no cap recorded" in capsys.readouterr().out


def test_perf_guard_caps_every_benchmark_workload():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(perf_guard.CAPS) == {w["name"] for w in spec["workloads"]}
