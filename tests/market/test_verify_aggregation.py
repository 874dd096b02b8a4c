"""Tests for cross-block verify aggregation (PR 4).

The market's mempools enqueue each sealing block's signature groups
(one per order) into their simulator's :class:`VerifyAggregator`, which
flushes later in the same simulated instant.  These tests pin the
three contracted properties: groups from blocks sealing at one boundary
really merge into a single check, forged orders are still rejected at
their sealing instant (``batch_verify_many`` isolates them, once, per
order) — message chaos included, since no bus hop sits between a seal
and its check — and every observable byte of a market run (fingerprint,
render, per-deal outcomes) is identical whether a flush is one merged
check or each group is verified alone.
"""

from __future__ import annotations

from dataclasses import replace

from market_test_utils import HandWorkload, on_shard, run_hand, two_party_swap
from repro.chain.ledger import VerifyAggregator
from repro.crypto import schnorr
from repro.crypto.schnorr import batch_verify, generate_keypair, sign
from repro.market import DealPhase, MarketConfig, MarketCoordinator
from repro.sim.chaos import ChaosPlan, ChaosPolicy
from repro.sim.simulator import Simulator
from repro.workloads.market import MarketProfile, MarketWorkload


def _config(**overrides) -> MarketConfig:
    base = dict(patience=30.0, check_invariants_per_block=True)
    base.update(overrides)
    return MarketConfig(**base)


def _run(workload, config, merged: bool):
    """Run one market; ``merged=False`` verifies every group alone.

    The reference swaps the aggregator's hook: per-order arithmetic
    in place of the merged multi-exponentiation.
    """
    market = MarketCoordinator(workload, config)
    if not merged:
        market.verify_aggregator.verify_many = lambda owned: [
            batch_verify(group) for _, group in owned
        ]
    return market.run()


def test_same_boundary_blocks_merge_into_one_flush():
    # Orders landing on two different chains' mempools in the same
    # block interval must share one aggregator flush.
    def orders(wl):
        first = two_party_swap(wl, index=0, arrival=0.2, a=0, b=1)
        second = two_party_swap(wl, index=1, arrival=0.2, a=2, b=3)
        return [first, second]

    scheduler, report = run_hand(orders)
    assert report.committed == 2
    stats = dict(report.verify_stats)
    assert stats["batches"] >= 1
    assert stats["flushes"] <= stats["batches"]

    # Force a genuinely cross-chain merge: registrations go to the
    # coordinator mempool, so exercise the aggregator directly with
    # two blocks' groups enqueued at one instant.
    sim = Simulator()
    aggregator = VerifyAggregator.of(sim)
    blocks = []
    for block in range(2):
        groups = []
        for i in range(3):
            private, public = generate_keypair(f"agg-{block}-{i}".encode())
            message = f"block{block} msg{i}".encode()
            groups.append([(public, message, sign(private, message))])
        blocks.append(groups)
    verdicts = []
    sim.schedule_at(0.0, lambda: aggregator.enqueue(blocks[0], verdicts.append))
    sim.schedule_at(0.0, lambda: aggregator.enqueue(blocks[1][:2], verdicts.append))
    sim.run()
    assert verdicts == [[True, True, True], [True, True]]
    assert aggregator.stats["batches"] == 2
    assert aggregator.stats["flushes"] == 1
    assert aggregator.stats["merged_flushes"] == 1
    assert aggregator.stats["merged_batches"] == 2
    assert aggregator.stats["isolation_fallbacks"] == 0


def test_one_forged_order_in_a_two_shard_boundary_is_isolated_once_per_order(
    monkeypatch,
):
    # Two shards seal at one boundary; one of the n + 1 orders is
    # forged.  The flush pays the merged check, then one combined check
    # per order — no per-block round in between — and only the forged
    # order is refused.
    sound = 4

    def orders(wl):
        return [
            on_shard(
                lambda salt, index=index: two_party_swap(
                    wl, index=index, arrival=0.2, a=index % 4,
                    b=(index + 1) % 4, salt=salt,
                    forge=frozenset({wl.labels[index % 4]} if index == sound else ()),
                ),
                target_shard=index % 2, shards=2,
            )
            for index in range(sound + 1)
        ]

    market = MarketCoordinator(HandWorkload(orders, shards=2), _config())
    schnorr.clear_verification_caches()  # earlier tests sign the same orders
    checks = []
    combined_check = schnorr._combined_check
    monkeypatch.setattr(
        schnorr, "_combined_check",
        lambda items: checks.append(len(items)) or combined_check(items),
    )
    flushes = []
    verify_many = market.verify_aggregator.verify_many

    def counting(owned):
        before = len(checks)
        verdicts = verify_many(owned)
        flushes.append((len(owned), len(checks) - before, verdicts.count(False)))
        return verdicts

    market.verify_aggregator.verify_many = counting
    report = market.run()
    assert flushes == [(sound + 1, 1 + sound + 1, 1)]
    assert report.committed == sound and report.rejected == 1
    refused = [run for run in market.runs.values() if run.phase is DealPhase.REJECTED]
    assert [run.reason for run in refused] == ["forged"]
    stats = dict(report.verify_stats)
    assert stats["batches"] == 2 and stats["merged_flushes"] == 1
    assert stats["isolation_fallbacks"] == 1


def test_forged_order_rejected_at_sealing_instant_with_aggregation():
    def orders(wl):
        return [
            two_party_swap(wl, index=0, arrival=0.2, a=0, b=1),
            two_party_swap(wl, index=1, arrival=0.2, a=2, b=3,
                           forge=frozenset({wl.labels[2]})),
        ]

    scheduler, report = run_hand(orders)
    assert report.committed == 1 and report.rejected == 1
    forged = [run for run in scheduler.runs.values()
              if run.phase is DealPhase.REJECTED]
    assert len(forged) == 1 and forged[0].reason == "forged"
    # Rejection fired at the seal boundary (half-grid), not a block or
    # more later — identical timing to unaggregated verification.
    assert forged[0].finished_at is not None
    assert forged[0].finished_at % 1.0 == 0.5
    stats = dict(report.verify_stats)
    assert stats["isolation_fallbacks"] >= 1


def test_forged_orders_rejected_at_sealing_instant_under_message_chaos():
    # A sealed block's signature check is the sealing chain's own
    # work, not a message: a bus that drops 30% of its traffic must
    # not delay a single verdict past the seal's half-grid instant
    # (the off-grid ack_timeout would make a resent batch show).
    profile = replace(
        MarketProfile.sharded_smoke(), deals=60, forge_rate=0.2
    )
    chaos = ChaosPlan(market=ChaosPolicy(drop_rate=0.3), ack_timeout=0.25)
    market = MarketCoordinator(MarketWorkload(profile), MarketConfig(chaos=chaos))
    report = market.run()
    assert dict(report.bus_stats)["chaos_dropped"] > 0
    forged = [run for run in market.runs.values() if run.reason == "forged"]
    assert forged and len(forged) == report.rejected
    for run in forged:
        assert run.finished_at % 1.0 == 0.5


def test_aggregation_on_off_reports_are_byte_identical():
    profile = replace(MarketProfile.smoke(), deals=60)
    on, off = (
        _run(MarketWorkload(profile), None, merged) for merged in (True, False)
    )
    assert on.fingerprint() == off.fingerprint()
    assert on.render() == off.render()
    assert on.outcome_log == off.outcome_log


def test_aggregation_on_off_equivalence_with_hand_forgeries():
    def orders(wl):
        return [
            two_party_swap(wl, index=0, arrival=0.2, a=0, b=1),
            two_party_swap(wl, index=1, arrival=0.2, a=2, b=3,
                           forge=frozenset({wl.labels[3]})),
            two_party_swap(wl, index=2, arrival=1.2, a=1, b=2),
        ]

    on, off = (
        _run(HandWorkload(orders), _config(), merged) for merged in (True, False)
    )
    assert on.fingerprint() == off.fingerprint()
    assert on.render() == off.render()


def test_a_dropped_market_takes_its_simulators_plane_with_it():
    # The plane is found through a module-level map keyed weakly on the
    # simulator; it must hold nothing — telemetry included, which holds
    # the market — that keeps that simulator alive.
    import gc
    import weakref

    from repro.chain import ledger
    from repro.telemetry import Telemetry

    profile = replace(MarketProfile.smoke(), deals=10)
    market = MarketCoordinator(MarketWorkload(profile), MarketConfig(telemetry=Telemetry()))
    assert market.run().committed > 0
    simulator = weakref.ref(market.simulator)
    assert simulator() in ledger._PLANES
    del market
    gc.collect()
    assert simulator() is None
