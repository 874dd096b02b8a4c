"""Tests for block-space economics: fee bids, sealing policies, caps.

Covers the fee plane end to end: the co-signed fee manifest (folded
outside the deal id), the :class:`~repro.market.fees.FeeLedger` and
both priority policies as units, per-shard heterogeneous block caps,
the adversarial congestion workload templates (spam homing, sniper
shadowing, starvation rings), and the byte-neutrality contract — the
default FIFO policy and fee-less profiles must reproduce the exact
historical streams and report bytes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from market_test_utils import HandWorkload, two_party_swap
from repro.core.incentives import deal_fee_budget
from repro.errors import MarketError
from repro.market import (
    EXEMPT_PHASES,
    FeeLedger,
    MarketConfig,
    MarketCoordinator,
    make_seal_policy,
    open_market,
)
from repro.market.fees import BaseFeePolicy, FirstPricePolicy
from repro.market.order import order_message, shard_of_deal
from repro.workloads.market import MarketProfile, MarketWorkload


# ----------------------------------------------------------------------
# The co-signed fee manifest
# ----------------------------------------------------------------------
def test_fee_bid_signs_outside_the_deal_id():
    wl = HandWorkload(lambda wl: [])
    plain = two_party_swap(wl)
    priced = two_party_swap(wl, fee_bid=7)
    # Same spec → same deal id: the bid rides the manifest, not the id.
    assert priced.deal_id == plain.deal_id
    assert priced.fee_bid == 7 and plain.fee_bid == 0
    # The manifest differs with the bid, so a relayer cannot retag it…
    assert order_message(plain.deal_id, 7) != order_message(plain.deal_id)
    # …and a fee-less order signs the exact historical bytes.
    assert order_message(plain.deal_id, 0) == order_message(plain.deal_id)


def test_negative_fee_bid_is_rejected_at_signing():
    wl = HandWorkload(lambda wl: [])
    with pytest.raises(MarketError):
        two_party_swap(wl, fee_bid=-1)


def test_deal_fee_budget_floors_at_one_and_validates():
    # §9: proportional to value at risk, never free.
    assert deal_fee_budget(2, 10_000) == 250
    assert deal_fee_budget(2, 10_000, urgency=2.0) == 500
    assert deal_fee_budget(4, 1) == 1  # the funded floor
    with pytest.raises(ValueError):
        deal_fee_budget(0, 100)
    with pytest.raises(ValueError):
        deal_fee_budget(2, -1)
    with pytest.raises(ValueError):
        deal_fee_budget(2, 100, urgency=-0.5)


def test_fee_ledger_accounts_bids_charges_and_evictions():
    fees = FeeLedger()
    fees.post(b"a", 5)
    fees.post(b"b", 0)  # a zero bid is not a bid
    assert fees.bid(b"a") == 5 and fees.bid(b"b") == 0
    fees.charge(b"a", 3)
    fees.charge(b"a", 2)
    fees.charge(b"b", 0)  # zero charges leave no trace
    assert fees.charged == {b"a": 5} and fees.accrued == 5
    assert not fees.priced_out(b"b")
    fees.price_out(b"b")
    assert fees.priced_out(b"b") and fees.priced_out_deals == {b"b"}


# ----------------------------------------------------------------------
# Sealing policies as units
# ----------------------------------------------------------------------
class _Tx:
    def __init__(self, phase):
        self.phase = phase


class _Step:
    def __init__(self, deal_id, seq, phase="market/escrow-open"):
        self.tx = _Tx(phase)
        self.deal_id = deal_id
        self.seq = seq


def test_make_seal_policy_fifo_is_structurally_absent():
    fees = FeeLedger()
    assert make_seal_policy(MarketConfig(), fees) is None
    assert make_seal_policy(MarketConfig(seal_policy="fifo"), fees) is None
    first = make_seal_policy(MarketConfig(seal_policy="first_price"), fees)
    assert isinstance(first, FirstPricePolicy)
    base_config = MarketConfig(seal_policy="base_fee")
    # One instance per call: per-chain base-fee state never leaks.
    assert (
        make_seal_policy(base_config, fees)
        is not make_seal_policy(base_config, fees)
    )
    with pytest.raises(MarketError):
        make_seal_policy(MarketConfig(seal_policy="dutch_auction"), fees)


def test_first_price_seals_exempt_then_highest_bid_and_never_evicts():
    fees = FeeLedger()
    fees.post(b"hi", 9)
    fees.post(b"lo", 2)
    policy = FirstPricePolicy(fees)
    pending = [
        _Step(b"lo", seq=1),
        _Step(b"hi", seq=2),
        _Step(b"none", seq=3),
        _Step(b"settle", seq=4, phase="market/refund"),
    ]
    batch, leftover, evicted = policy.select(pending, cap=2)
    # Settlement first, then the best bid; the rest waits, nobody dies.
    assert [step.deal_id for step in batch] == [b"settle", b"hi"]
    assert [step.seq for step in leftover] == [1, 3]  # arrival order
    assert evicted == []
    # Pay-as-bid: sealed deal traffic pays its own bid, exempt pays 0.
    assert fees.charged == {b"hi": 9} and fees.accrued == 9


def test_first_price_equal_bids_degrade_to_exact_fifo():
    fees = FeeLedger()
    policy = FirstPricePolicy(fees)
    pending = [_Step(bytes([i]), seq=i) for i in range(4)]
    batch, leftover, _ = policy.select(pending, cap=2)
    assert [step.seq for step in batch] == [0, 1]
    assert [step.seq for step in leftover] == [2, 3]


def test_base_fee_rises_with_full_blocks_and_decays_to_floor():
    fees = FeeLedger()
    fees.post(b"rich", 1_000)
    policy = BaseFeePolicy(fees, initial=1.0, floor=1.0, adjust=0.125,
                           target_fullness=0.5)
    for seq in range(4):  # full blocks at cap 1 → price climbs
        batch, _, _ = policy.select([_Step(b"rich", seq=seq)], cap=1)
        assert len(batch) == 1
    climbed = policy.base_fee
    assert climbed == pytest.approx(1.125 ** 4)
    for _ in range(64):  # empty blocks decay it back to the floor
        policy.select([], cap=1)
    assert policy.base_fee == policy.floor
    # Sealed steps paid the protocol price (ceil of the base fee at
    # seal time), not their own 1000-unit bid.
    assert fees.accrued < 4 * 1_000 and fees.accrued >= 4


def test_base_fee_evicts_only_bids_the_floor_can_never_meet():
    fees = FeeLedger()
    fees.post(b"funded", 2)
    policy = BaseFeePolicy(fees, initial=4.0, floor=1.0, adjust=0.125,
                           target_fullness=0.5)
    pending = [
        _Step(b"funded", seq=1),      # under the current fee, over floor
        _Step(b"freeload", seq=2),    # bid 0: hopeless once at floor
        _Step(b"settle", seq=3, phase="market/abort-claim"),
    ]
    batch, waiting, evicted = policy.select(pending, cap=4)
    # Above the floor nothing is evicted: under-bidders ride the decay
    # and settlement traffic is never fee-gated at all.
    assert [step.deal_id for step in batch] == [b"settle"]
    assert [step.deal_id for step in waiting] == [b"funded", b"freeload"]
    assert evicted == [] and not fees.priced_out_deals
    while policy.base_fee > policy.floor:  # decay to the floor
        policy.select([], cap=4)
    batch, waiting, evicted = policy.select(waiting, cap=4)
    # At the floor the funded bid clears; the freeloader never can.
    assert [step.deal_id for step in batch] == [b"funded"]
    assert [step.deal_id for step in evicted] == [b"freeload"]
    assert waiting == [] and fees.priced_out_deals == {b"freeload"}


def test_exempt_phases_cover_the_whole_settlement_plane():
    policy = FirstPricePolicy(FeeLedger())
    for phase in EXEMPT_PHASES:
        assert policy.exempt(_Step(b"x", seq=0, phase=phase))
    assert not policy.exempt(_Step(b"x", seq=0, phase="market/vote"))
    assert not policy.exempt(_Step(b"x", seq=0, phase="market/escrow-open"))


# ----------------------------------------------------------------------
# Per-shard heterogeneous block caps
# ----------------------------------------------------------------------
def test_shard_block_caps_apply_per_shard_not_globally():
    profile = replace(MarketProfile.sharded_smoke(seed=5), shards=2)
    config = MarketConfig(shard_block_caps={0: 7})
    scheduler = MarketCoordinator(MarketWorkload(profile), config)
    squeezed = {
        pool.max_txs_per_block
        for pool in scheduler.runtimes[0].mempools.values()
    }
    default = {
        pool.max_txs_per_block
        for pool in scheduler.runtimes[1].mempools.values()
    }
    assert squeezed == {7}
    assert default == {config.max_txs_per_block}
    report = scheduler.run()
    assert report.invariant_violations == () and report.stuck == 0


@pytest.mark.parametrize("caps", [{2: 7}, {-1: 7}, {"0": 7}, {0: 7, 5: 9}])
def test_a_shard_block_cap_for_no_shard_of_the_market_is_refused(caps):
    profile = replace(MarketProfile.sharded_smoke(seed=5), shards=2)
    with pytest.raises(MarketError, match="shard_block_caps"):
        MarketCoordinator(MarketWorkload(profile), MarketConfig(shard_block_caps=caps))


# ----------------------------------------------------------------------
# Adversarial congestion workloads
# ----------------------------------------------------------------------
def _clean(profile: MarketProfile) -> MarketProfile:
    return replace(profile, spam_deals=0, snipe_rate=0.0, starve_rate=0.0)


def test_fee_bids_ride_fresh_streams_and_leave_deal_ids_alone():
    priced = _clean(MarketProfile.congested_smoke(seed=9))
    free = replace(priced, fee_rate=0.0)
    priced_orders = MarketWorkload(priced).orders()
    free_orders = MarketWorkload(free).orders()
    assert len(priced_orders) == len(free_orders)
    for a, b in zip(priced_orders, free_orders):
        # The honest deal stream is bit-identical either way — only
        # the co-signed bid differs.  This is the workload half of the
        # fees-off byte-neutrality contract.
        assert a.deal_id == b.deal_id
        assert a.arrival == b.arrival
        assert b.fee_bid == 0
    assert any(order.fee_bid > 0 for order in priced_orders)


def test_spam_flood_is_salt_mined_onto_the_congested_shard():
    profile = replace(
        MarketProfile.congested_smoke(seed=11), snipe_rate=0.0,
        starve_rate=0.0, spam_fee=3,
    )
    orders = MarketWorkload(profile).orders()
    spam = orders[profile.deals:]
    assert len(spam) == profile.spam_deals > 0
    honest_window = max(order.arrival for order in orders[:profile.deals])
    for order in spam:
        assert shard_of_deal(order.deal_id, profile.shards) == profile.spam_shard
        assert order.fee_bid == profile.spam_fee
        # The flood lands inside the first half of the honest window.
        assert order.arrival <= 0.5 * honest_window + 1.0


def test_snipers_shadow_their_victims_with_boosted_bids():
    profile = replace(
        MarketProfile.congested_smoke(seed=13), spam_deals=0,
        starve_rate=0.0, snipe_rate=0.5,
    )
    orders = MarketWorkload(profile).orders()
    honest = orders[:profile.deals]
    snipers = orders[profile.deals:]
    assert snipers
    for sniper in snipers:
        victim = min(
            honest, key=lambda o: abs(o.arrival - (sniper.arrival - 0.1))
        )
        assert victim.arrival == pytest.approx(sniper.arrival - 0.1)
        # The clone contends for the victim's exact assets and always
        # outbids it on the fee lane.
        assert sniper.spec.parties == victim.spec.parties
        assert sniper.spec.assets == victim.spec.assets
        assert sniper.deal_id != victim.deal_id
        assert sniper.fee_bid > victim.fee_bid


def test_starvation_rings_live_on_the_congested_shard_but_home_off_it():
    profile = replace(
        MarketProfile.congested_smoke(seed=17), spam_deals=0,
        snipe_rate=0.0, starve_rate=1.0,
    )
    workload = MarketWorkload(profile)
    chain_shard = {
        chain_id: index % profile.shards
        for index, chain_id in enumerate(workload.chain_ids)
    }
    # With starve_rate=1.0 every ring-template deal is a starvation
    # ring: ring-asset deals whose escrows all sit on the congested
    # shard's chains are exactly the starved set.
    starved = [
        order for order in workload.orders()[:profile.deals]
        if all(a.asset_id.startswith("ring") for a in order.spec.assets)
        and {chain_shard[a.chain_id] for a in order.spec.assets}
        == {profile.spam_shard}
    ]
    assert starved
    for order in starved:
        home = shard_of_deal(order.deal_id, profile.shards)
        # Every asset escrows on the congested shard's chains while
        # commit routing pins the deal to the other coordinator: its
        # cross-shard traffic must fight through the squeezed caps.
        assert home != profile.spam_shard


def test_congestion_knob_validation():
    base = MarketProfile.congested_smoke(seed=1)
    with pytest.raises(MarketError):
        MarketWorkload(replace(base, fee_rate=1.5))
    with pytest.raises(MarketError):
        MarketWorkload(replace(base, fee_urgency_lo=2.0, fee_urgency_hi=1.0))
    with pytest.raises(MarketError):
        MarketWorkload(replace(base, spam_fee=-1))
    with pytest.raises(MarketError):
        MarketWorkload(replace(base, snipe_fee_boost=0.5))
    with pytest.raises(MarketError):
        MarketWorkload(replace(base, shards=1, cross_shard_rate=0.0))


# ----------------------------------------------------------------------
# End to end: policies on the congested market, and byte-neutrality
# ----------------------------------------------------------------------
def test_fifo_config_is_byte_neutral_versus_no_config():
    profile = MarketProfile.smoke(seed=3)
    plain = open_market(MarketWorkload(profile)).run()
    fifo = open_market(
        MarketWorkload(profile), MarketConfig(seal_policy="fifo")
    ).run()
    assert fifo.fingerprint() == plain.fingerprint()
    assert fifo.render() == plain.render()


def test_first_price_runs_the_congested_market_clean_and_accrues():
    report = open_market(
        MarketWorkload(MarketProfile.congested_smoke(seed=43)),
        MarketConfig(seal_policy="first_price", shard_block_caps={0: 32}),
    ).run()
    assert report.invariant_violations == () and report.stuck == 0
    assert report.fees_accrued > 0 and report.fee_priced_out == 0
    rendered = report.render()
    assert "sealing policy" in rendered and "first_price" in rendered


def test_base_fee_prices_out_freeloaders_as_a_measured_outcome():
    report = open_market(
        MarketWorkload(MarketProfile.congested_smoke(seed=43)),
        MarketConfig(seal_policy="base_fee", shard_block_caps={0: 32}),
    ).run()
    # Spam bids 0 < the base-fee floor: evicted, aborted "priced-out",
    # reported — and *never* a conservation violation or a stuck deal.
    assert report.invariant_violations == () and report.stuck == 0
    assert report.fee_priced_out > 0
    rendered = report.render()
    assert "deals fee-priced-out" in rendered
    assert "fee units accrued" in rendered
