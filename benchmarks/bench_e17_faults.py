"""E17 — fault sweep: availability and latency under replica crashes.

PR 6 gives every market shard a replica group
(:mod:`repro.market.replication`): sealed blocks replicate to
followers, a crashed leader fails over after a detection timeout, and
a recovered replica restores its crash-time snapshot, replays the
group's block log, and must digest byte-identical to its shard.  E17
measures the fault envelope that buys:

* a **fault sweep** over replication factor × crash rate: for each
  point a seeded crash/recover schedule (leader kills included —
  replica ``r0`` of every shard leads at start) runs against the
  sharded market, and the table reports committed deals, the abort
  rate, the §5 **sore-loser** count (timelock deals whose votes made
  one chain's deadline but missed a crash-gated chain's, settling
  mixed), commit latency, availability (fraction of shard-time with a
  live leader sealing blocks), failovers, recoveries, and invariant
  violations;
* a **recovery conformance gate**: at replication factor 3 with a
  nonzero crash/recover schedule — a leader killed mid-deal among
  them — the market must still commit at least 1,000 deals with no
  stuck deal and zero exactly-once / conservation / stranded-escrow
  violations, and every recovered replica's post-replay state hash
  must match its group (``hash_mismatches == 0`` with
  ``hash_checks > 0``).

Every column is a deterministic seeded simulation quantity: the crash
schedule derives from the seed, the replication network has its own
latency stream, and fault injection never breaks run-to-run
byte-identity (CI compares serial vs ``--jobs 2`` reports with
``cmp``).

Usage::

    python benchmarks/bench_e17_faults.py [--quick] [--jobs N] [--trace OUT]
"""

from __future__ import annotations

import sys
from functools import partial

import market_experiment
from market_experiment import Column, mixed_sharded, read, run_market, run_sweep, safety_failures
from repro.market import MarketConfig, MarketReport
from repro.sim.faults import FaultPlan, ReplicaCrash
from repro.sim.rng import DeterministicRng
from repro.workloads.market import MarketProfile

# Sweep axes: replica-group size × crashes per shard over the run.
FACTOR_SWEEP = [1, 2, 3]
CRASH_SWEEP = [0, 1, 3]

# The first leader kill lands here — early enough that deals admitted
# in the opening ticks are mid-flight (escrows opening, votes fanning
# in) when their shard loses its leader.
_FIRST_KILL_AT = 9.0


def crash_schedule(
    shards: int,
    factor: int,
    crashes_per_shard: int,
    span: float,
    seed,
) -> FaultPlan:
    """A seeded, deterministic crash/recover schedule.

    Every shard gets ``crashes_per_shard`` transient
    :class:`ReplicaCrash` faults with crash times spread over the
    order-arrival span and dead windows of 6–20 ticks.  The first
    fault of every shard always targets replica ``r0`` — the initial
    leader — mid-deal, so failover (and, at factor 1, a full outage
    bridged only by recovery) is exercised at every nonzero rate.
    """
    plan = FaultPlan()
    if crashes_per_shard <= 0:
        return plan
    rng = DeterministicRng(f"e17/schedule/{seed}/{factor}")
    for shard in range(shards):
        for event in range(crashes_per_shard):
            label = f"s{shard}/e{event}"
            if event == 0:
                target, at = 0, _FIRST_KILL_AT
            else:
                target = rng.randint(f"{label}/replica", 0, factor - 1)
                at = rng.uniform(f"{label}/at", 0.15 * span, 0.75 * span)
            down = rng.uniform(f"{label}/down", 6.0, 20.0)
            plan.add(
                ReplicaCrash(
                    replica=f"s{shard}/r{target}",
                    at_time=at,
                    recover_at=at + down,
                )
            )
    return plan


def crash_config(profile: MarketProfile, factor: int, crashes: int) -> MarketConfig:
    span = profile.deals / profile.arrival_rate
    plan = crash_schedule(profile.shards, factor, crashes, span, profile.seed)
    return MarketConfig(replication_factor=factor, fault_plan=plan)


# "planned" is the schedule size; "fired" is how many crashes actually
# fired.  They differ when a crash lands on an already-dead replica
# (the fault drops) — the table labels both so a silently inert
# schedule is visible.
SWEEP_COLUMNS = (
    Column("r", "factor"),
    Column("planned", "planned"),
    Column("fired", "faults_injected"),
    Column("committed", "committed"),
    Column("abort rate", "abort_rate", "{:.1%}"),
    Column("sore losers", "sore_losers"),
    Column("p50", "latency_p50", "{:.2f}"),
    Column("p99", "latency_p99", "{:.2f}"),
    Column("availability", "availability", "{:.3%}"),
    Column("failovers", "failovers"),
    Column("recoveries", "recoveries"),
    Column("replayed", "replication.deltas_replayed"),
    Column("violations", "violations"),
)


def fault_point(
    point: tuple[int, int], profile: MarketProfile
) -> tuple[MarketReport, dict]:
    """One (factor, crashes per shard) run; a recovered replica whose
    state diverged counts as a violation."""
    factor, crashes = point
    config = crash_config(profile, factor, crashes)
    report = run_market(profile, config)
    violations = read(report, "violations") + read(
        report, "replication.hash_mismatches"
    )
    return report, {
        "factor": factor,
        "planned": len(config.fault_plan.faults),
        "violations": violations,
    }


def fault_sweep(jobs: int | None = None, quick: bool = False) -> tuple[list[dict], str]:
    """The (factor, crash-rate) grid's records and table."""
    profile = mixed_sharded(quick, seed=23, deals=400)
    factors = [1, 3] if quick else FACTOR_SWEEP
    rates = [0, 1] if quick else CRASH_SWEEP
    points = [(factor, rate) for factor in factors for rate in rates]
    return run_sweep(
        points, partial(fault_point, profile=profile), SWEEP_COLUMNS,
        f"E17 — fault sweep ({profile.deals} deals, {profile.shards} "
        "shards, replication factor × crash rate)", jobs,
    )


# ----------------------------------------------------------------------
# Recovery conformance gate
# ----------------------------------------------------------------------
def gate_run(quick: bool = False, trace: str | None = None) -> MarketReport:
    """The acceptance run: factor 3, leader kills mid-deal included."""
    profile = mixed_sharded(quick, seed=29, deals=1_400)
    report, _ = market_experiment.traced_run(
        profile, crash_config(profile, 3, 2), trace
    )
    return report


def check_gate(report: MarketReport, quick: bool = False) -> list[str]:
    """The E17 acceptance criteria; returns failures (empty = pass)."""
    floor = 80 if quick else 1_000
    stats = dict(report.replication_stats)
    failures = []
    if report.faults_injected == 0:
        failures.append("no crash faults fired (schedule is empty)")
    if report.committed < floor:
        failures.append(f"committed {report.committed} < {floor}")
    failures += safety_failures(report)
    if report.recoveries == 0:
        failures.append("no replica recovered")
    if stats.get("hash_checks", 0) == 0:
        failures.append("no post-replay hash checks ran")
    if stats.get("hash_mismatches", 0):
        failures.append(
            f"{stats['hash_mismatches']} recovered replicas diverged"
        )
    return failures


def gate_table(report: MarketReport, failures: list[str]) -> str:
    stats = dict(report.replication_stats)
    net = dict(report.network_stats)
    rows = [
        ["deals committed", report.committed],
        ["replica crashes planned", len(report.fault_stats)],
        ["replica crashes injected", report.faults_injected],
        ["failovers", report.failovers],
        ["recoveries", report.recoveries],
        ["deltas replayed (catch-up)", stats.get("deltas_replayed", 0)],
        ["post-replay hash checks", stats.get("hash_checks", 0)],
        ["hash mismatches", stats.get("hash_mismatches", 0)],
        ["replication msgs delivered", net.get("delivered", 0)],
        ["replication msgs dropped (crash windows)",
         net.get("dropped", 0) + net.get("filter_dropped", 0)],
        ["availability", f"{report.availability:.3%}"],
        ["sore losers (mixed timelock)", report.sore_losers],
        ["invariant violations", len(report.invariant_violations)],
        ["fingerprint", report.fingerprint()],
    ]
    return market_experiment.gate_table(
        "E17 — recovery conformance gate (replication factor 3, "
        "leader kills mid-deal)", rows, failures,
    )


def experiment(
    quick: bool = False, jobs: int | None = None, trace: str | None = None
) -> tuple[list[str], list[str], str]:
    report = gate_run(quick=quick, trace=trace)
    failures = check_gate(report, quick=quick)
    tables = [gate_table(report, failures), fault_sweep(jobs=jobs, quick=quick)[1]]
    return tables, failures, (
        f"E17 acceptance: {report.committed} commits under "
        f"{report.faults_injected} replica crashes, {report.recoveries} "
        "recoveries all hash-verified, 0 invariant violations"
    )


def make_report(
    jobs: int | None = None, quick: bool = False, trace: str | None = None
) -> str:
    # A trace lands silently: the report bytes are unchanged.
    return "\n".join(experiment(quick=quick, jobs=jobs, trace=trace)[0])


def main(argv: list[str]) -> int:
    return market_experiment.main(argv, __doc__, experiment, market_experiment.TRACE)


# ----------------------------------------------------------------------
# Shape checks (run with the benchmark suite, not tier-1)
# ----------------------------------------------------------------------
def test_shape_gate_passes_quick():
    report = gate_run(quick=True)
    assert check_gate(report, quick=True) == []
    assert report.failovers > 0


def test_shape_fault_free_point_has_full_availability():
    records, _ = fault_sweep(jobs=1, quick=True)
    clean = [r for r in records if r["faults_injected"] == 0]
    assert clean and all(r["availability"] == 1.0 for r in clean)
    assert all(r["violations"] == 0 for r in records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
