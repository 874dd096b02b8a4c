"""Adversarial conformance tests for the sharded market (PR 5).

The market now clears orders on M coordinator chains, and a deal's
escrows may live on books owned by *other* shards.  Herlihy, Liskov &
Shrira frame cross-chain deals as adversarial commerce; these tests
pin the sharded market's behaviour under exactly the interleavings
that sharding makes newly possible:

* a double-sell raced across two shards — two deals homed on
  different coordinators fight over one token id; block order on the
  token's own chain arbitrates, first-committed-wins, loser refunded;
* a vote withholder on a cross-shard timelock deal — every escrow on
  every shard refunds at the terminal deadline;
* a forged order injected on a non-coordinator shard — rejected at
  its own shard's sealing instant while the aggregation fallback
  isolates it from the honest blocks it merged with;
* a CBC status proof replayed on the wrong shard — quorum-signed by
  another shard's validators, so the escrow's key binding rejects it;
* a deal registration routed to the wrong shard's commit log — the
  contract itself reverts, making double-registration structurally
  impossible.

Every run executes with per-block invariant checking on, so the
cross-shard exactly-once and no-stranded-escrow sweeps run at every
block of every scenario.
"""

from __future__ import annotations

from market_test_utils import (
    HandWorkload,
    nft_sale,
    on_shard,
    run_hand,
    two_party_swap,
)
from repro.chain.tx import Transaction
from repro.consensus.bft import DealStatus, StatusCertificate
from repro.core.escrow import EscrowState
from repro.core.proofs import StatusProof
from repro.crypto.hashing import hash_concat
from repro.market.commitlog import MarketCommitLog
from repro.market.order import shard_of_deal
from repro.market import DealPhase, MarketConfig, MarketCoordinator


def _config(**overrides) -> MarketConfig:
    base = dict(patience=30.0, check_invariants_per_block=True)
    base.update(overrides)
    return MarketConfig(**base)


# ----------------------------------------------------------------------
# Routing basics
# ----------------------------------------------------------------------
def test_shard_routing_is_deterministic_and_total():
    ids = [hash_concat(b"route-test", bytes([i])) for i in range(64)]
    for shards in (1, 2, 3, 5):
        homes = [shard_of_deal(deal_id, shards) for deal_id in ids]
        # Stable, in range, and (for 64 ids) covering every shard.
        assert homes == [shard_of_deal(deal_id, shards) for deal_id in ids]
        assert all(0 <= home < shards for home in homes)
        assert set(homes) == set(range(shards))
    assert all(shard_of_deal(deal_id, 1) == 0 for deal_id in ids)


def test_wrong_shard_registration_reverts_on_chain():
    def orders(wl):
        return []

    workload = HandWorkload(orders, shards=2, chains=2)
    scheduler = MarketCoordinator(workload, _config())
    # Mine a deal id that routes to shard 1, then try to register it
    # on shard 0's log directly: the contract must revert.
    foreign = on_shard(
        lambda salt: two_party_swap(workload, index=7, salt=salt), 1, 2
    )
    chain0 = scheduler.chains[scheduler.shard_home_chain[0]]
    receipt = chain0.execute_now(Transaction(
        sender=scheduler.coordinator.address,
        contract=scheduler.commit_logs[0].name,
        method="register",
        args={"deal_id": foreign.deal_id, "parties": foreign.parties},
        phase="test/wrong-shard",
    ))
    assert not receipt.ok
    assert "wrong shard" in receipt.error
    # The right shard's log accepts the same registration.
    chain1 = scheduler.chains[scheduler.shard_home_chain[1]]
    receipt = chain1.execute_now(Transaction(
        sender=scheduler.coordinator.address,
        contract=scheduler.commit_logs[1].name,
        method="register",
        args={"deal_id": foreign.deal_id, "parties": foreign.parties},
        phase="test/right-shard",
    ))
    assert receipt.ok


def test_shard_zero_log_keeps_unsharded_contract_shape():
    # The unsharded market's log is literally the shards=1 special
    # case: same contract name, always-true routing check.
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=0.2)]

    scheduler, report = run_hand(orders)
    assert scheduler.shards == 1
    assert isinstance(scheduler.commit_logs[0], MarketCommitLog)
    assert scheduler.commit_logs[0].name == "market-commitlog"
    assert report.committed == 1
    assert report.shards == 1 and report.cross_shard_deals == 0


# ----------------------------------------------------------------------
# Double-sell raced across two shards
# ----------------------------------------------------------------------
def test_cross_shard_double_sell_first_committed_wins():
    ticket = "tkt0-a0-0"

    def orders(wl):
        # Two sales of the same ticket, homed on *different* shards,
        # arriving in the same block interval.  The ticket lives on
        # chain 0's book; the race is arbitrated there by block order,
        # and the loser aborts through its own shard's commit log.
        sale_a = on_shard(
            lambda salt: nft_sale(wl, ticket, index=0, arrival=0.2,
                                  seller=0, buyer=1, salt=salt),
            0, 2,
        )
        sale_b = on_shard(
            lambda salt: nft_sale(wl, ticket, index=1, arrival=0.2,
                                  seller=0, buyer=2, salt=salt),
            1, 2,
        )
        return [sale_a, sale_b]

    scheduler, report = run_hand(orders, shards=2, nft_per_account=1)
    assert report.shards == 2
    assert report.committed == 1 and report.aborted == 1
    assert report.conflicts == 1
    assert report.invariant_violations == ()
    runs = sorted(scheduler.runs.values(), key=lambda run: run.order.index)
    assert {run.home_shard for run in runs} == {0, 1}
    winner = next(run for run in runs if run.phase is DealPhase.COMMITTED)
    loser = next(run for run in runs if run.phase is DealPhase.ABORTED)
    assert loser.conflict and loser.reason == "conflict"
    # The ticket ends up internally owned by exactly the winning buyer.
    book = scheduler.books[scheduler.workload.chain_ids[0]]
    nft_token = scheduler.nft_tokens[scheduler.workload.chain_ids[0]]
    winner_buyer = winner.order.spec.parties[1]
    assert book.peek_nft_owner(nft_token.name, ticket) == winner_buyer
    assert book.peek_nft_lock(nft_token.name, ticket) is None


# ----------------------------------------------------------------------
# Vote withholder on a cross-shard timelock deal
# ----------------------------------------------------------------------
def test_cross_shard_timelock_withholder_refunds_every_escrow():
    def orders(wl):
        # Assets on chain 0 (shard 0) and chain 1 (shard 1); the deal
        # itself is homed on shard 1.  Party b never votes, so no
        # escrow on either shard can release and the terminal sweep
        # refunds both.
        return [on_shard(
            lambda salt: two_party_swap(
                wl, index=0, arrival=0.2, protocol="timelock",
                withhold_votes=frozenset({wl.labels[1]}), salt=salt,
            ),
            1, 2,
        )]

    scheduler, report = run_hand(
        orders, shards=2, book_fund_fraction=0.5,
        config=_config(timelock_delta=8.0),
    )
    assert report.aborted == 1 and report.committed == 0
    assert report.timelock_refund_sweeps >= 1
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    assert run.cross_shard and run.home_shard == 1
    assert run.reason == "deadline"
    states = run.driver.escrow_states()
    assert set(states) == {"left", "right"}
    assert all(state is EscrowState.REFUNDED for state in states.values())
    # Both parties got their wallet balances back on both chains.
    wallet_share = int(1_000 * 0.5)
    for chain_id in scheduler.workload.chain_ids:
        token = scheduler.tokens[chain_id]
        for party in run.order.spec.parties:
            assert token.peek_balance(party) == wallet_share


# ----------------------------------------------------------------------
# Forged order injected on a non-coordinator shard
# ----------------------------------------------------------------------
def test_forged_order_on_non_coordinator_shard_is_isolated():
    def orders(wl):
        honest_home = on_shard(
            lambda salt: two_party_swap(wl, index=0, arrival=0.2,
                                        a=0, b=1, salt=salt),
            0, 2,
        )
        honest_remote = on_shard(
            lambda salt: two_party_swap(wl, index=1, arrival=0.2,
                                        a=2, b=3, salt=salt),
            1, 2,
        )
        forged = on_shard(
            lambda salt: two_party_swap(
                wl, index=2, arrival=0.2, a=1, b=2,
                forge=frozenset({wl.labels[2]}), salt=salt,
            ),
            1, 2,
        )
        return [honest_home, honest_remote, forged]

    scheduler, report = run_hand(orders, shards=2)
    assert report.committed == 2 and report.rejected == 1
    forged_run = next(
        run for run in scheduler.runs.values()
        if run.phase is DealPhase.REJECTED
    )
    assert forged_run.reason == "forged"
    # Rejected on shard 1 — not the shard-0 "coordinator" chain — at
    # its own sealing instant (the half-grid boundary).
    assert forged_run.home_shard == 1
    assert forged_run.finished_at is not None
    assert forged_run.finished_at % 1.0 == 0.5
    # Both shards' registration batches met in one merged check; the
    # forgery forced the isolation fallback, which cleared the honest
    # block and the honest order sharing the forged block.
    stats = dict(report.verify_stats)
    assert stats["merged_flushes"] >= 1
    assert stats["merged_batches"] >= 2
    assert stats["isolation_fallbacks"] >= 1
    assert report.aggregator_merge_rate() > 0.0
    assert report.invariant_violations == ()


# ----------------------------------------------------------------------
# CBC stale proof replayed on the wrong shard
# ----------------------------------------------------------------------
def test_cbc_stale_proof_replayed_on_wrong_shard_is_rejected():
    injected = []

    def orders(wl):
        # One CBC deal per shard so both shards' CBCs exist; the
        # attack replays a proof for the shard-1 deal that was
        # quorum-signed by *shard 0's* validators.
        deal_a = on_shard(
            lambda salt: two_party_swap(wl, index=0, arrival=0.2,
                                        a=0, b=1, protocol="cbc", salt=salt),
            0, 2,
        )
        deal_b = on_shard(
            lambda salt: two_party_swap(wl, index=1, arrival=0.2,
                                        a=2, b=3, protocol="cbc", salt=salt),
            1, 2,
        )
        return [deal_a, deal_b]

    workload = HandWorkload(orders, shards=2, book_fund_fraction=0.5)
    scheduler = MarketCoordinator(workload, _config())

    def inject() -> None:
        target = next(
            run for run in scheduler.runs.values()
            if run.home_shard == 1 and run.protocol == "cbc"
        )
        driver = target.driver
        if (
            target.terminal
            or driver.start_hash is None
            or not driver.escrow_names
            or 0 not in scheduler.cbcs
        ):
            # Escrows not live yet (or already settled): try the next
            # block boundary.  Deterministic — the same boundary wins
            # on every run.
            scheduler.simulator.schedule(1.0, inject, label="test/replay")
            return
        wrong_validators = scheduler.cbcs[0].validators
        message = StatusCertificate.message(
            target.order.deal_id, driver.start_hash,
            DealStatus.COMMITTED, wrong_validators.epoch,
        )
        proof = StatusProof(certificate=StatusCertificate(
            deal_id=target.order.deal_id,
            start_hash=driver.start_hash,
            status=DealStatus.COMMITTED,
            epoch=wrong_validators.epoch,
            signatures=wrong_validators.quorum_sign(message),
        ))
        asset = target.order.spec.assets[0]
        scheduler.mempools[asset.chain_id].submit(
            Transaction(
                sender=target.order.spec.parties[0],
                contract=driver.escrow_names[asset.asset_id],
                method="commit",
                args={"proof": proof},
                phase="market/stale-proof",
            ),
            target.order.deal_id,
        )
        injected.append(scheduler.simulator.now)

    scheduler.simulator.schedule_at(2.6, inject, label="test/replay")
    report = scheduler.run()
    assert injected, "the replay never fired"
    # The wrong-shard proof was rejected (counted as a stale proof)
    # and never decided the deal: both CBC deals still commit via
    # their own shards' logs.
    assert report.stale_proofs_rejected == 1
    assert report.committed == 2
    assert report.invariant_violations == ()
    assert not scheduler.protocol_violations


# ----------------------------------------------------------------------
# Cross-shard pipeline end to end
# ----------------------------------------------------------------------
def test_cross_shard_swap_commits_with_clean_invariants():
    def orders(wl):
        # Home shard 1, escrows on both shards' books: registration,
        # votes and the decision ride shard 1; claims fan out to both.
        return [on_shard(
            lambda salt: two_party_swap(wl, index=0, arrival=0.2, salt=salt),
            1, 2,
        )]

    scheduler, report = run_hand(orders, shards=2)
    assert report.committed == 1
    assert report.cross_shard_deals == 1
    assert report.cross_shard_committed == 1
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    assert run.home_shard == 1
    # The decision lives on shard 1's log and nowhere else.
    assert scheduler.commit_logs[1].peek_status(run.order.deal_id) == "committed"
    assert scheduler.commit_logs[0].peek_status(run.order.deal_id) is None
