"""Property tests for fault injection on replicated shards (PR 6).

Seeded fault schedules — replica crashes, recover-then-recrash
cycles, message-level faults on the replication network — run against
the full protocol mix over 1..4 shards.  Whatever the schedule, the
market's core guarantees must survive:

* **exactly-once** — every deal decided by exactly one commit log
  (its home shard's);
* **conservation** — every invariant in
  :mod:`repro.market.invariants` holds at the end of the run,
  including replica convergence: after quiescence every live replica
  digests byte-identical to its chains;
* **liveness-only damage** — crash faults may defer seals and lower
  availability, but no deal is left stuck and no recovered replica
  ever hash-mismatches.

Like the other market property suites, these are seeded exhaustive
loops rather than hypothesis strategies: each case is a full
simulation, so a small deterministic grid beats shrinking — failures
replay exactly from the label in the assertion message.
"""

from __future__ import annotations

from dataclasses import replace

from repro.market.order import shard_of_deal
from repro.market.replication import replica_name
from repro.market import MarketConfig, MarketCoordinator
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    MessageStorm,
    OfflineWindow,
    ReplicaCrash,
)
from repro.sim.chaos import ChaosPolicy
from repro.sim.rng import DeterministicRng
from repro.workloads.market import MarketProfile, MarketWorkload

# Full protocol mix, adversaries included, small enough that the
# shards × schedule grid stays a few seconds total.
_MIX_PROFILE = replace(
    MarketProfile.mixed(seed=0, deals=48),
    chains=4, accounts=12, arrival_rate=5.0, cross_shard_rate=0.5,
)


def _run(profile: MarketProfile, plan: FaultPlan | None, factor: int = 2):
    config = MarketConfig(
        replication_factor=factor, fault_plan=plan, patience=60.0
    )
    scheduler = MarketCoordinator(MarketWorkload(profile), config)
    return scheduler, scheduler.run()


def _assert_safe(scheduler, report, label: str) -> None:
    """Exactly-once + conservation + replica convergence."""
    assert report.invariant_violations == (), (label, report.invariant_violations)
    assert report.stuck == 0, label
    assert (
        report.committed + report.aborted + report.rejected == report.deals
    ), label
    seen: set[bytes] = set()
    for shard, log in scheduler.commit_logs.items():
        for deal_id in log.peek_registered():
            assert shard_of_deal(deal_id, scheduler.shards) == shard, label
            assert deal_id not in seen, (label, "registered on two shards")
            seen.add(deal_id)
    replication = scheduler.replication
    assert replication is not None, label
    assert replication.counters["hash_mismatches"] == 0, label
    assert replication.check_invariants(strict=True) == [], label


def _crash_plan(shards: int, factor: int, seed: int, per_shard: int = 2,
                span: float = 10.0) -> FaultPlan:
    """A seeded crash/recover schedule touching every shard."""
    rng = DeterministicRng(f"fault-props/{seed}")
    plan = FaultPlan()
    for shard in range(shards):
        for event in range(per_shard):
            label = f"s{shard}/e{event}"
            index = rng.randint(f"{label}/replica", 0, factor - 1)
            at = rng.uniform(f"{label}/at", 1.0, span)
            down = rng.uniform(f"{label}/down", 2.0, 8.0)
            plan.add(ReplicaCrash(
                replica=replica_name(shard, index),
                at_time=at, recover_at=at + down,
            ))
    return plan


def test_crash_schedules_preserve_safety_across_shard_counts():
    # The same protocol-mix stream rides 1..4 coordinators, each with
    # a seeded leader-inclusive crash schedule.
    for shards in range(1, 5):
        profile = replace(_MIX_PROFILE, shards=shards, seed=11)
        plan = _crash_plan(shards, factor=2, seed=shards)
        scheduler, report = _run(profile, plan, factor=2)
        label = f"shards={shards}"
        _assert_safe(scheduler, report, label)
        assert report.faults_injected > 0, label
        assert report.recoveries > 0, label


def test_crash_schedules_preserve_safety_across_seeds():
    for seed in (1, 7, 23):
        profile = replace(_MIX_PROFILE, shards=3, seed=seed)
        plan = _crash_plan(3, factor=3, seed=seed)
        scheduler, report = _run(profile, plan, factor=3)
        _assert_safe(scheduler, report, f"seed={seed}")


def test_recover_then_recrash_cycles_preserve_safety():
    # Leadership ping-pongs on shard 0: r0 dies (failover to r1),
    # recovers as a follower, then r1 dies — the *recovered* replica
    # must be electable and lead from its replayed image.
    profile = replace(_MIX_PROFILE, shards=2, seed=5)
    plan = FaultPlan()
    plan.add(ReplicaCrash(
        replica=replica_name(0, 0), at_time=2.0, recover_at=5.0,
    ))
    plan.add(ReplicaCrash(
        replica=replica_name(0, 1), at_time=7.5, recover_at=11.0,
    ))
    plan.add(ReplicaCrash(
        replica=replica_name(1, 1), at_time=3.0, recover_at=9.0,
    ))
    scheduler, report = _run(profile, plan, factor=2)
    _assert_safe(scheduler, report, "recrash")
    assert report.faults_injected == 3
    assert report.recoveries == 3
    assert report.failovers >= 2  # shard 0 failed over on each leader kill
    # The recovered r0 took leadership back after r1's kill.
    assert scheduler.replication.groups[0].leader == replica_name(0, 0)
    stats = dict(report.replication_stats)
    assert stats["snapshots_restored"] == 3
    assert stats["hash_checks"] > 0


def test_overlapping_offline_windows_on_replication_network():
    # Two overlapping offline windows silence a follower's endpoint;
    # shipped deltas drop or arrive late, so the follower must heal
    # by gap-replay from the group log — and still converge.
    profile = replace(_MIX_PROFILE, shards=2, seed=9)
    follower = replica_name(0, 1)
    plan = FaultPlan()
    first = OfflineWindow(endpoint=follower, start=1.0, end=6.0)
    second = OfflineWindow(endpoint=follower, start=4.0, end=9.0)
    plan.add(first)
    plan.add(second)
    scheduler, report = _run(profile, plan, factor=2)
    _assert_safe(scheduler, report, "offline-overlap")
    # Message faults never close seal gates: availability is untouched.
    assert report.availability == 1.0
    assert report.failovers == 0
    assert first.counters()["dropped"] + first.counters()["delayed"] > 0
    net_stats = scheduler.replication.network.stats
    assert net_stats["filter_dropped"] + net_stats["filter_delayed"] > 0


def test_partition_plus_crash_fault_still_converges():
    # A storm that drops every message touching one of shard 0's
    # replicas cuts it off from its group (a partition) while a
    # CrashFault silences one of shard 1's followers — the messiest
    # composition the message layer offers.  Anti-entropy at finish()
    # still brings every *live* replica to byte-identity.
    profile = replace(_MIX_PROFILE, shards=2, seed=13)
    plan = FaultPlan()
    split = MessageStorm(
        policy=ChaosPolicy(drop_rate=1.0), endpoint=replica_name(0, 1),
        start=2.0, end=8.0,
    )
    plan.add(split)
    plan.add(CrashFault(endpoint=replica_name(1, 1), at_time=3.0,
                        recover_at=10.0))
    scheduler, report = _run(profile, plan, factor=2)
    _assert_safe(scheduler, report, "partition+crash")
    assert report.availability == 1.0  # no process ever died
    assert split.dropped > 0
    rows = plan.stats()
    assert {row["kind"] for row in rows} == {"MessageStorm", "CrashFault"}


def test_fault_runs_are_deterministic():
    profile = replace(_MIX_PROFILE, shards=3, seed=17)

    def once():
        plan = _crash_plan(3, factor=2, seed=17)
        _, report = _run(profile, plan, factor=2)
        return report

    first, second = once(), once()
    assert first.fingerprint() == second.fingerprint()
    assert first.render() == second.render()
    assert first.replication_stats == second.replication_stats
    assert first.availability == second.availability
