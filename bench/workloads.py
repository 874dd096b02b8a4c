"""The benchmark's seven workloads: seeded inputs plus output checks.

Every market workload is a ``(MarketProfile, MarketConfig, backend)``
triple generated from ``--seed``; the program under test receives only
those inputs.  ``single_deals`` is the paper's own per-deal path and
has no market at all.

Sizes are the issue's sizing runs scaled by about 1/3, because the
driver allots about 20 s to one invocation and an invocation runs at
least three repetitions; each repetition still runs for 2.5-4.5 s on
the 2-core box the sizes were measured on.  Two workloads are scaled
by their defining property instead of by deal count alone:
``sharded_chaos`` keeps 160 deals so that it still commits >= 100, and
``wide_accounts`` keeps >= 6 signatures per account over 1.5x the
table cache (see its builder).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.market import MarketConfig
from repro.sim.chaos import ChaosPlan
from repro.sim.faults import FaultPlan, ReplicaCrash
from repro.sim.rng import DeterministicRng
from repro.workloads.market import MarketProfile

THREE_PROTOCOLS = (("unanimity", 1.0), ("timelock", 1.0), ("cbc", 1.0))

SINGLE_DEALS = 42  # deals per repetition of the single_deals workload


@dataclass(frozen=True)
class MarketInputs:
    profile: MarketProfile
    config: MarketConfig | None = None
    backend: str = "inline"


@dataclass(frozen=True)
class Workload:
    name: str
    # None marks single_deals, which runs no market.
    inputs: Callable[[int], MarketInputs] | None = None
    # Workload-specific output checks: (report, profile) -> problems.
    check: Callable[[object, MarketProfile], list[str]] = lambda report, profile: []


def _unanimity_steady(seed: int) -> MarketInputs:
    return MarketInputs(replace(MarketProfile.headline(seed), deals=400))


def _wide_accounts(seed: int) -> MarketInputs:
    # 144 accounts overflow fastexp's 96-entry window-table LRU, and at
    # 300 deals each account signs ~6 orders: enough to cross the
    # 4-use table threshold, be evicted, and start over.  (The issue's
    # 256 accounts need 600 deals for that; at 200 deals most accounts
    # never build a table and the cache never fills.)
    return MarketInputs(
        replace(MarketProfile.headline(seed), deals=300, accounts=144)
    )


def _protocol_mix(seed: int) -> MarketInputs:
    return MarketInputs(MarketProfile.mixed(seed, deals=200))


def _chaos_schedule(profile: MarketProfile, seed: int) -> FaultPlan:
    """One transient leader crash per shard, spread over the arrivals.

    The same shape as E18's ``chaos_schedule`` (replica ``r0`` leads at
    start), re-implemented here so the benchmark imports nothing from
    ``benchmarks/``.
    """
    span = profile.deals / profile.arrival_rate
    rng = DeterministicRng(f"bench/chaos-schedule/{seed}")
    plan = FaultPlan()
    for shard in range(profile.shards):
        at = rng.uniform(f"s{shard}/at", 0.2 * span, 0.6 * span)
        down = rng.uniform(f"s{shard}/down", 6.0, 16.0)
        plan.add(
            ReplicaCrash(replica=f"s{shard}/r0", at_time=at, recover_at=at + down)
        )
    return plan


def _sharded_chaos(seed: int) -> MarketInputs:
    profile = replace(
        MarketProfile.sharded(seed, shards=2, deals=160),
        protocol_mix=THREE_PROTOCOLS,
        book_fund_fraction=0.4,
    )
    chaos = replace(
        ChaosPlan.at(0.05, seed=seed), ack_timeout=0.25, backoff_cap=2.0
    )
    return MarketInputs(
        profile,
        MarketConfig(
            replication_factor=3,
            fault_plan=_chaos_schedule(profile, seed),
            chaos=chaos,
        ),
    )


def _check_sharded_chaos(report, profile) -> list[str]:
    problems = []
    bus = dict(report.bus_stats)
    for hazard in ("chaos_dropped", "chaos_duplicated", "chaos_reordered"):
        if bus.get(hazard, 0) <= 0:
            problems.append(f"hazard {hazard} never fired")
    replication = dict(report.replication_stats)
    if report.recoveries < 1 or replication.get("hash_checks", 0) < 1:
        problems.append("no replica recovery was hash-verified")
    if replication.get("hash_mismatches", 0):
        problems.append("a recovered replica's state hash mismatched")
    return problems


def _fee_congestion(seed: int) -> MarketInputs:
    return MarketInputs(
        MarketProfile.congested(seed, deals=330, shards=2),
        MarketConfig(seal_policy="base_fee", shard_block_caps={0: 64}),
    )


def _check_fee_congestion(report, profile) -> list[str]:
    # The spam flood is the last spam_deals orders of the stream, all
    # bidding 0, below the base-fee floor.
    spam_from = report.deals - profile.spam_deals
    kept = [
        index
        for index, _protocol, _outcome, reason, _latency in report.outcome_log
        if index >= spam_from and reason != "priced-out"
    ]
    if kept:
        return [f"{len(kept)} zero-bid spam orders were not priced out"]
    return []


def _sharded_processes(seed: int) -> MarketInputs:
    return MarketInputs(
        MarketProfile.sharded(seed, shards=2, deals=330), backend="processes"
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("unanimity_steady", _unanimity_steady),
        Workload("wide_accounts", _wide_accounts),
        Workload("protocol_mix", _protocol_mix),
        Workload("sharded_chaos", _sharded_chaos, _check_sharded_chaos),
        Workload("fee_congestion", _fee_congestion, _check_fee_congestion),
        Workload("sharded_processes", _sharded_processes),
        Workload("single_deals"),
    )
}
