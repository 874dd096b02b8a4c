"""Property tests for the sharded market (PR 5).

Randomized shard counts, routing permutations, and seeded scheduler
interleavings must never break the market's two core guarantees:

* **exactly-once** — every deal is decided by exactly one commit log
  (its home shard's), whatever the shard count or interleaving;
* **conservation** — every invariant in
  :mod:`repro.market.invariants` holds at the end of every run.

On top of that, a sharded run is a deterministic function of its
profile: the fingerprint is identical across repeat runs, across
``sweep_parallel`` worker counts, and whether a verify flush is one
merged check or each batch verified alone (aggregation is a wall-clock
optimisation, never a semantic one).

These are seeded exhaustive loops rather than hypothesis strategies:
every case is a full market simulation, so a small deterministic grid
beats shrinking — failures replay exactly from the profile printed in
the assertion message.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crypto.schnorr import batch_verify
from repro.market.book import ABORTED as BOOK_ABORTED, COMMITTED as BOOK_COMMITTED
from repro.market.commitlog import ABORTED, COMMITTED, PENDING
from repro.market.order import shard_of_deal
from repro.market import DealPhase, MarketConfig, MarketCoordinator
from repro.workloads.market import MarketProfile, MarketWorkload

# Enough deals for real contention and cross-shard traffic, small
# enough that the 1..5 shard grid stays a few seconds total.
_GRID_PROFILE = MarketProfile(
    deals=60, chains=5, accounts=10, arrival_rate=6.0,
    initial_balance=1_500, cross_shard_rate=0.5,
)


def _run(profile: MarketProfile, **config_overrides):
    config = MarketConfig(**config_overrides) if config_overrides else None
    scheduler = MarketCoordinator(MarketWorkload(profile), config)
    return scheduler, scheduler.run()


def _assert_exactly_once(scheduler, report, label: str) -> None:
    """Every deal decided at most once, on its home shard's log only."""
    assert report.invariant_violations == (), (label, report.invariant_violations)
    assert report.stuck == 0, label
    assert (
        report.committed + report.aborted + report.rejected == report.deals
    ), label
    seen: dict[bytes, int] = {}
    for shard, log in scheduler.commit_logs.items():
        for deal_id, status in log.peek_registered().items():
            assert status in (PENDING, COMMITTED, ABORTED), (label, status)
            assert shard_of_deal(deal_id, scheduler.shards) == shard, label
            assert deal_id not in seen, (label, "registered on two shards")
            seen[deal_id] = shard
    for deal_id, run in scheduler.runs.items():
        assert run.home_shard == shard_of_deal(deal_id, scheduler.shards), label
        if run.protocol != "unanimity" or run.phase is DealPhase.REJECTED:
            continue
        # A settled unanimity deal agrees with its home log, and every
        # book it touched reached the matching terminal state.
        status = scheduler.commit_logs[run.home_shard].peek_status(deal_id)
        if run.phase is DealPhase.COMMITTED:
            assert status == COMMITTED, label
            expected = BOOK_COMMITTED
        elif run.phase is DealPhase.ABORTED:
            assert status == ABORTED, label
            expected = BOOK_ABORTED
        else:
            continue
        for chain_id in run.claim_chains:
            state = scheduler.books[chain_id].peek_deal_state(deal_id)
            assert state in (expected, None), (label, chain_id, state)


def test_exactly_once_and_conservation_across_shard_counts():
    # The same order stream content rides 1..5 coordinators: each
    # shard count is a different routing permutation of the identical
    # deal population, and every one must conserve and decide
    # exactly once.
    for shards in range(1, 6):
        profile = replace(_GRID_PROFILE, shards=shards, seed=3)
        scheduler, report = _run(profile)
        _assert_exactly_once(scheduler, report, f"shards={shards}")
        if shards > 1:
            assert report.cross_shard_deals > 0, shards


def test_exactly_once_under_seeded_interleavings():
    # Different seeds permute arrivals, templates, adversaries, and
    # therefore the whole scheduler interleaving.
    for seed in (1, 7, 23):
        profile = replace(_GRID_PROFILE, shards=4, seed=seed,
                          withhold_rate=0.05, no_show_rate=0.05,
                          forge_rate=0.03)
        scheduler, report = _run(profile)
        _assert_exactly_once(scheduler, report, f"seed={seed}")


def test_sharded_protocol_mix_conserves_and_decides_once():
    profile = replace(
        MarketProfile.mixed(seed=5, deals=120), shards=3, cross_shard_rate=0.5
    )
    scheduler, report = _run(profile)
    _assert_exactly_once(scheduler, report, "mixed/shards=3")
    committed = report.committed_by_protocol()
    assert set(committed) == {"unanimity", "timelock", "cbc"}
    assert all(count > 0 for count in committed.values())


def test_sharded_run_is_deterministic_and_aggregation_invariant():
    profile = replace(MarketProfile.sharded_smoke(), deals=60)
    _, first = _run(profile)
    _, second = _run(profile)
    assert first.fingerprint() == second.fingerprint()
    assert first.render() == second.render()
    assert first.verify_stats == second.verify_stats
    # Verifying every order's group alone instead of merged may change
    # wall-clock work but never a single observable byte of the
    # sharded run.
    market = MarketCoordinator(MarketWorkload(profile))
    market.verify_aggregator.verify_many = lambda owned: [
        batch_verify(group) for _, group in owned
    ]
    plain = market.run()
    assert plain.fingerprint() == first.fingerprint()
    assert plain.outcome_log == first.outcome_log
    assert plain.render() == first.render()
    # And aggregation genuinely merged cross-shard batches when on.
    assert first.aggregator_merge_rate() > 0.0


def _sharded_fingerprint(seed: int) -> dict:
    profile = replace(MarketProfile.sharded_smoke(), deals=40, seed=seed)
    scheduler = MarketCoordinator(MarketWorkload(profile))
    report = scheduler.run()
    return {
        "fingerprint": report.fingerprint(),
        "committed": report.committed,
        "cross_shard": report.cross_shard_deals,
        "verify_stats": report.verify_stats,
    }


def test_sharded_fingerprints_identical_across_worker_counts():
    from repro.analysis.sweep import sweep_parallel

    seeds = [0, 1, 2]
    serial = sweep_parallel(seeds, _sharded_fingerprint, jobs=1)
    fanned = sweep_parallel(seeds, _sharded_fingerprint, jobs=2)
    assert serial == fanned
