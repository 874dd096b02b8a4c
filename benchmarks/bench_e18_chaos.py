"""E18 — chaos sweep: the market under hostile message planes.

Every message plane is hardened against seeded chaos: the ops bus
becomes a :class:`~repro.sim.network.ChaosBus` (drop / duplicate /
delay / reorder per transmission, plus at-least-once ack/resend
delivery with duplicates suppressed in the transport), the replication
delta network rides a :class:`~repro.sim.faults.MessageStorm` with
acknowledged shipping — both planes on the one
:class:`~repro.sim.network.Retransmitter` and the one
:meth:`~repro.sim.chaos.ChaosPolicy.roll` — and the ``processes``
backend's verify pool survives losing a worker (its batches are
verified in the parent instead).  E18 measures what that hardening
buys:

* a **chaos sweep** over fault intensity × replication factor: for
  each point a seeded :class:`~repro.sim.chaos.ChaosPlan` (all four
  hazards at the intensity, both planes) runs against the sharded
  market and the table reports committed deals, abort rate, commit
  latency, availability, the chaos counters (drops / dups / reorders
  actually fired), at-least-once resends on the bus, suppressed
  duplicates, delta shipments resent and abandoned on the replication
  plane, and invariant violations;
* a **chaos conformance gate**: at intensity >= 10% with replication
  factor 3, a seeded crash/recover schedule *and* a mid-deal
  ``WorkerKill`` on the ``processes`` backend, the market must still
  commit at least 1,000 deals with zero conservation / exactly-once
  violations, every hazard class must actually fire, and the pool
  must lose the killed worker, verify its batches in the parent, and
  still return the report bytes of the run with no pool at all; no
  deal may be left stuck.

Every column is a deterministic seeded simulation quantity: the chaos
schedule is a pure function of (seed, transmission index), so CI
compares serial vs ``--jobs 2`` reports with ``cmp``.  That chaos
*off* builds exactly the chaos-free market is tier-1's
(``tests/properties/test_chaos_props.py``).

Usage::

    python benchmarks/bench_e18_chaos.py [--quick] [--jobs N]
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import partial

import market_experiment
from market_experiment import Column, mixed_sharded, run_market, run_sweep, safety_failures
from repro.market import MarketConfig, MarketReport
from repro.market.backends import ProcessBackend
from repro.sim.chaos import ChaosPlan
from repro.sim.faults import FaultPlan, ReplicaCrash, WorkerKill
from repro.sim.rng import DeterministicRng
from repro.workloads.market import MarketProfile

# Sweep axes: chaos intensity (per-transmission hazard probability,
# all four hazards on both planes) × replica-group size.
INTENSITY_SWEEP = [0.0, 0.05, 0.15]
FACTOR_SWEEP = [1, 3]

# The worker kill lands here — early enough that deals admitted in the
# opening ticks are mid-flight when worker 1 dies.
_KILL_AT = 14.0


def chaos_plan(intensity: float, seed) -> ChaosPlan | None:
    """The sweep/gate chaos plan: all four hazards at ``intensity``.

    Retransmission is tuned aggressive (ack timeout 0.25 ticks, capped
    at 2) — the sweep measures protocol degradation under loss, not
    how long a conservative retry timer sits idle.
    """
    if not intensity:
        return None
    return replace(
        ChaosPlan.at(intensity, seed=seed), ack_timeout=0.25, backoff_cap=2.0
    )


def chaos_schedule(shards: int, factor: int, span: float, seed) -> FaultPlan:
    """A seeded crash/recover schedule to compose with the chaos plan.

    One transient leader crash per shard (replica ``r0`` leads at
    start), spread over the arrival span — so the gate exercises
    failover *while* the delta network is dropping and duplicating
    shipments.
    """
    plan = FaultPlan()
    if factor < 2:
        return plan
    rng = DeterministicRng(f"e18/schedule/{seed}/{factor}")
    for shard in range(shards):
        at = rng.uniform(f"s{shard}/at", 0.2 * span, 0.6 * span)
        down = rng.uniform(f"s{shard}/down", 6.0, 16.0)
        plan.add(
            ReplicaCrash(
                replica=f"s{shard}/r0", at_time=at, recover_at=at + down
            )
        )
    return plan


SWEEP_COLUMNS = (
    Column("chaos", "intensity", "{:.0%}"),
    Column("r", "factor"),
    Column("committed", "committed"),
    Column("abort rate", "abort_rate", "{:.1%}"),
    Column("p50", "latency_p50", "{:.2f}"),
    Column("p99", "latency_p99", "{:.2f}"),
    Column("availability", "availability", "{:.3%}"),
    Column("dropped", "bus.chaos_dropped"),
    Column("duped", "bus.chaos_duplicated"),
    Column("reordered", "bus.chaos_reordered"),
    Column("resends", "bus.resends"),
    Column("suppressed", "bus.dup_suppressed"),
    Column("deltas resent", "replication.deltas_resent"),
    Column("deltas abandoned", "replication.deltas_abandoned"),
    Column("violations", "violations"),
)


def chaos_config(
    profile: MarketProfile, intensity: float, factor: int, *faults
) -> MarketConfig:
    """Chaos at ``intensity`` over ``factor``-member replica groups, with
    ``chaos_schedule``'s crashes and then ``faults``."""
    span = profile.deals / profile.arrival_rate
    plan = chaos_schedule(profile.shards, factor, span, profile.seed)
    for fault in faults:
        plan.add(fault)
    return MarketConfig(
        replication_factor=factor,
        fault_plan=plan if plan.faults else None,
        chaos=chaos_plan(intensity, profile.seed),
    )


def chaos_point(
    point: tuple[float, int], profile: MarketProfile
) -> tuple[MarketReport, dict]:
    """One (intensity, factor) run."""
    intensity, factor = point
    config = chaos_config(profile, intensity, factor)
    return run_market(profile, config), {"intensity": intensity, "factor": factor}


def chaos_sweep(jobs: int | None = None, quick: bool = False) -> tuple[list[dict], str]:
    """The (intensity, factor) grid's records and table."""
    profile = mixed_sharded(quick, seed=31, deals=400)
    intensities = [0.0, 0.15] if quick else INTENSITY_SWEEP
    points = [
        (intensity, factor)
        for intensity in intensities
        for factor in FACTOR_SWEEP
    ]
    return run_sweep(
        points, partial(chaos_point, profile=profile), SWEEP_COLUMNS,
        f"E18 — chaos sweep ({profile.deals} deals, {profile.shards} "
        "shards, fault intensity × replication)", jobs,
    )


# ----------------------------------------------------------------------
# Chaos conformance gate
# ----------------------------------------------------------------------
GATE_INTENSITY = 0.12
HAZARDS = ("chaos_dropped", "chaos_duplicated", "chaos_delayed",
           "chaos_reordered", "resends", "dup_suppressed")


def gate_run(
    quick: bool = False, pooled: bool = True
) -> tuple[MarketReport, ProcessBackend | None]:
    """The acceptance run: seeded chaos + crashes + a mid-deal worker kill.

    Pooled (the CLI and the shape checks), it runs on the
    ``processes`` backend when workers can be forked: the kill then
    actually fells a verify worker and the pool must carry on without
    it.  With ``pooled=False`` — or when fork is unavailable — it runs
    inline, where worker faults are inert by construction, and the
    backend comes back ``None``.  Report bytes are identical either
    way (``check_gate`` holds the pooled run to that);
    ``make_report`` always takes the inline path so ``run_all``
    output is byte-identical whatever the job count (pool workers are
    daemonic and cannot fork).
    """
    profile = mixed_sharded(quick, seed=37, deals=2_400)
    kill = WorkerKill(worker=min(1, profile.shards - 1), at_time=_KILL_AT)
    config = chaos_config(profile, GATE_INTENSITY, 3, kill)
    if not pooled or not ProcessBackend._can_fork():
        return run_market(profile, config), None
    backend = ProcessBackend()
    return run_market(profile, config, backend), backend


def check_gate(
    report: MarketReport,
    backend: ProcessBackend | None,
    quick: bool = False,
) -> list[str]:
    """The E18 acceptance criteria; returns failures (empty = pass).

    The quick floor reflects the quick profile's scale (120 deals on
    shared accounts — chaos roughly triples its organic conflict
    rate); the full gate holds the ISSUE's 1,000-commit line.
    """
    floor = 40 if quick else 1_000
    bus = dict(report.bus_stats)
    failures = []
    if report.committed < floor:
        failures.append(f"committed {report.committed} < {floor}")
    failures += safety_failures(report)
    for counter in HAZARDS:
        if not bus.get(counter, 0):
            failures.append(f"hazard never fired: {counter} == 0")
    if report.faults_injected == 0:
        failures.append("no replica crash fired (schedule is empty)")
    if backend is not None:
        if backend.stats["workers_lost"] < 1:
            failures.append("the killed worker was never lost")
        if backend.stats["inline_batches"] < 1:
            failures.append("no order group of the lost worker was verified inline")
        if gate_run(quick=quick, pooled=False)[0].render() != report.render():
            failures.append("pooled report differs from the unpooled run")
    return failures


def gate_table(
    report: MarketReport, backend: ProcessBackend | None, failures: list[str]
) -> str:
    bus = dict(report.bus_stats)
    replication = dict(report.replication_stats)
    pool = backend.stats if backend is not None else {}
    rows = [
        ["deals committed", report.committed],
        ["chaos msgs dropped", bus.get("chaos_dropped", 0)],
        ["chaos msgs duplicated", bus.get("chaos_duplicated", 0)],
        ["chaos msgs delayed", bus.get("chaos_delayed", 0)],
        ["chaos msgs reordered", bus.get("chaos_reordered", 0)],
        ["at-least-once resends", bus.get("resends", 0)],
        ["duplicates suppressed", bus.get("dup_suppressed", 0)],
        ["delta shipments resent", replication.get("deltas_resent", 0)],
        ["delta shipments abandoned", replication.get("deltas_abandoned", 0)],
        ["replica crashes injected", report.faults_injected],
        ["failovers", report.failovers],
        ["recoveries", report.recoveries],
        ["verify workers lost", pool.get("workers_lost", 0)],
        ["groups verified inline", pool.get("inline_batches", 0)],
        ["availability", f"{report.availability:.3%}"],
        ["invariant violations", len(report.invariant_violations)],
        ["fingerprint", report.fingerprint()],
    ]
    return market_experiment.gate_table(
        f"E18 — chaos conformance gate (intensity {GATE_INTENSITY:.0%}, "
        "replication factor 3, mid-deal worker kill)", rows, failures,
    )


def experiment(
    quick: bool = False, jobs: int | None = None, pooled: bool = True
) -> tuple[list[str], list[str], str]:
    report, backend = gate_run(quick=quick, pooled=pooled)
    failures = check_gate(report, backend, quick=quick)
    tables = [
        gate_table(report, backend, failures),
        chaos_sweep(jobs=jobs, quick=quick)[1],
    ]
    bus = dict(report.bus_stats)
    return tables, failures, (
        f"E18 acceptance: {report.committed} commits under "
        f"{bus.get('chaos_dropped', 0)} drops / "
        f"{bus.get('chaos_duplicated', 0)} dups / "
        f"{bus.get('chaos_reordered', 0)} reorders, "
        f"{bus.get('resends', 0)} resends, a verify worker lost "
        "without a byte of difference, 0 invariant violations"
    )


def make_report(jobs: int | None = None, quick: bool = False) -> str:
    return "\n".join(experiment(quick=quick, jobs=jobs, pooled=False)[0])


def main(argv: list[str]) -> int:
    return market_experiment.main(argv, __doc__, experiment)


# ----------------------------------------------------------------------
# Shape checks (run with the benchmark suite, not tier-1)
# ----------------------------------------------------------------------
def test_shape_gate_passes_quick():
    report, backend = gate_run(quick=True)
    assert check_gate(report, backend, quick=True) == []


def test_shape_chaos_free_point_is_clean():
    records, _ = chaos_sweep(jobs=1, quick=True)
    clean = [r for r in records if r["intensity"] == 0.0]
    assert clean and all(r["bus.resends"] == 0 for r in clean)
    assert all(r["violations"] == 0 for r in records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
