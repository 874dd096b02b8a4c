"""Conservation invariants under concurrent escrow contention.

The ISSUE-level guarantee: across *any* interleaving of concurrent
deals — including deliberate double-spend pressure on shared account
balances — total token supply is constant, the escrow book's internal
ledger exactly backs its token holdings, no escrowed amount is spent
twice, and every deal settles uniformly across chains.
"""

from __future__ import annotations

from types import SimpleNamespace

from market_test_utils import HandWorkload, nft_sale, run_hand, two_party_swap
from repro.market.invariants import _check_uniformity, check_market_invariants
from repro.market import DealPhase, MarketConfig, MarketCoordinator
from repro.workloads.market import MarketProfile, MarketWorkload


def test_double_spend_pressure_first_committed_wins():
    """Two deals both want p0's last 100 coins; exactly one gets them."""

    def orders(wl):
        return [
            two_party_swap(wl, index=0, arrival=0.5, a=0, b=1, amount=100),
            two_party_swap(wl, index=1, arrival=0.6, a=0, b=2, amount=100),
        ]

    workload = HandWorkload(orders, balance=100)
    scheduler = MarketCoordinator(
        workload, MarketConfig(patience=30.0, check_invariants_per_block=True)
    )
    report = scheduler.run()
    assert report.committed == 1
    assert report.aborted == 1
    assert report.conflicts == 1
    assert report.invariant_violations == ()
    # The winner is the first-arriving deal (block order resolves it).
    runs = sorted(scheduler.runs.values(), key=lambda run: run.order.index)
    assert runs[0].phase is DealPhase.COMMITTED
    assert runs[1].phase is DealPhase.ABORTED and runs[1].conflict
    # The conflict loser's counterparty got its escrow back in full.
    wl = scheduler.workload
    chain1 = wl.chain_ids[-1]
    book1 = scheduler.books[chain1]
    assert book1.peek_account(wl.labels[2], wl.tokens[chain1]) == 100


def test_escrowed_asset_cannot_fund_a_second_deal():
    """An open escrow is out of the account: a same-block rival reverts."""

    def orders(wl):
        # Identical arrival: both opens land in the same block; the
        # mempool's FIFO order decides, and the book's require rejects
        # the second debit — the double-spend never happens.
        return [
            two_party_swap(wl, index=0, arrival=0.5, a=0, b=1, amount=80),
            two_party_swap(wl, index=1, arrival=0.5, a=0, b=2, amount=80),
        ]

    workload = HandWorkload(orders, balance=100)
    scheduler = MarketCoordinator(
        workload, MarketConfig(patience=30.0, check_invariants_per_block=True)
    )
    report = scheduler.run()
    assert report.committed == 1 and report.aborted == 1
    assert report.conflicts == 1
    assert report.invariant_violations == ()


def test_conservation_holds_through_a_contended_storm():
    """A starved-balance storm: many conflicts, zero leaks."""
    workload = MarketWorkload(MarketProfile.contended())
    scheduler = MarketCoordinator(workload)
    report = scheduler.run()
    assert report.conflicts > 20  # the storm actually stormed
    assert report.committed > 0
    assert report.stuck == 0
    assert report.invariant_violations == ()
    # Every account's funds are accounted for on every chain: internal
    # balances plus open escrows equal the book's token holdings, and
    # supply equals what was minted (re-checked explicitly here).
    assert check_market_invariants(scheduler) == []
    for chain_id in workload.chain_ids:
        token = scheduler.tokens[chain_id]
        book = scheduler.books[chain_id]
        holders = list(workload.accounts) + [book.address]
        assert (
            sum(token.peek_balance(holder) for holder in holders)
            == scheduler.minted[chain_id]
        )


def test_per_block_invariant_checking_passes_on_adversarial_smoke():
    """Every interleaving prefix conserves, not just the final state."""
    profile = MarketProfile(
        deals=60, chains=3, accounts=8, arrival_rate=6.0,
        initial_balance=600, withhold_rate=0.1, no_show_rate=0.1,
        forge_rate=0.05, seed=11,
    )
    scheduler = MarketCoordinator(
        MarketWorkload(profile), MarketConfig(check_invariants_per_block=True)
    )
    report = scheduler.run()  # raises MarketError on any violated block
    assert report.deals == 60
    assert report.stuck == 0


def test_nft_double_sell_reverts_cleanly_with_ownership_conserved():
    """Two deals contend for the same token id: exactly one gets it.

    The seller double-sells ticket ``tkt0-a0-0``; the first deal's
    ``open`` locks the token id, the second deal's lock reverts
    (first-committed-wins), and ownership stays unique throughout —
    the loser aborts with its buyer's payment refunded in full.
    """

    def orders(wl):
        return [
            nft_sale(wl, "tkt0-a0-0", index=0, arrival=0.5, price=100,
                     seller=0, buyer=1),
            nft_sale(wl, "tkt0-a0-0", index=1, arrival=0.6, price=150,
                     seller=0, buyer=2),
        ]

    scheduler, report = run_hand(orders, nft_per_account=2)
    assert report.committed == 1
    assert report.aborted == 1
    assert report.conflicts == 1
    assert report.invariant_violations == ()
    runs = sorted(scheduler.runs.values(), key=lambda run: run.order.index)
    assert runs[0].phase is DealPhase.COMMITTED
    assert runs[1].phase is DealPhase.ABORTED and runs[1].conflict
    wl = scheduler.workload
    ticket_chain, coin_chain = wl.chain_ids[0], wl.chain_ids[-1]
    book0 = scheduler.books[ticket_chain]
    ticket_token = wl.nft_tokens[ticket_chain]
    # The ticket belongs (internally) to the first buyer, unlocked.
    assert book0.peek_nft_owner(ticket_token, "tkt0-a0-0") == wl.labels[1]
    assert book0.peek_nft_lock(ticket_token, "tkt0-a0-0") is None
    # The losing buyer's payment escrow was refunded in full.
    book1 = scheduler.books[coin_chain]
    assert book1.peek_account(wl.labels[2], wl.tokens[coin_chain]) == 1000
    # The winning sale actually settled: seller was paid.
    assert book1.peek_account(wl.labels[0], wl.tokens[coin_chain]) == 1100


def test_nft_sale_abort_returns_ticket_to_seller():
    """An aborted sale clears the lock and restores internal ownership."""

    def orders(wl):
        return [
            nft_sale(wl, "tkt0-a0-0", index=0, arrival=0.5,
                     withhold_votes=frozenset({wl.labels[1]})),
        ]

    scheduler, report = run_hand(orders, nft_per_account=1)
    assert report.aborted == 1 and report.committed == 0
    assert report.invariant_violations == ()
    wl = scheduler.workload
    ticket_chain = wl.chain_ids[0]
    book0 = scheduler.books[ticket_chain]
    ticket_token = wl.nft_tokens[ticket_chain]
    assert book0.peek_nft_owner(ticket_token, "tkt0-a0-0") == wl.labels[0]
    assert book0.peek_nft_lock(ticket_token, "tkt0-a0-0") is None


def test_nft_distinct_tokens_commit_concurrently():
    """Sales of different token ids by one seller do not conflict."""

    def orders(wl):
        return [
            nft_sale(wl, "tkt0-a0-0", index=0, arrival=0.5, buyer=1),
            nft_sale(wl, "tkt0-a0-1", index=1, arrival=0.5, buyer=2),
        ]

    scheduler, report = run_hand(orders, nft_per_account=2)
    assert report.committed == 2
    assert report.conflicts == 0
    assert report.invariant_violations == ()
    wl = scheduler.workload
    book0 = scheduler.books[wl.chain_ids[0]]
    ticket_token = wl.nft_tokens[wl.chain_ids[0]]
    assert book0.peek_nft_owner(ticket_token, "tkt0-a0-0") == wl.labels[1]
    assert book0.peek_nft_owner(ticket_token, "tkt0-a0-1") == wl.labels[2]


def test_uniform_outcomes_across_chains():
    """A settled deal is committed everywhere or aborted everywhere."""
    workload = MarketWorkload(MarketProfile.contended())
    scheduler = MarketCoordinator(workload)
    scheduler.run()
    from repro.market.book import ABORTED, COMMITTED

    for run in scheduler.runs.values():
        states = {
            scheduler.books[chain_id].peek_deal_state(run.order.deal_id)
            for chain_id in run.claim_chains
        }
        if run.phase is DealPhase.COMMITTED:
            assert states == {COMMITTED}
        elif run.phase is DealPhase.ABORTED:
            assert states <= {ABORTED, None}


def test_sore_loser_carve_out_is_timelock_only():
    """Only a §5 timelock deal may settle mixed, and only under crashes.

    Drivers only ever flag ``sore_loser`` on timelock runs, so the
    protocol guard is held here on a stub run instead.
    """

    def sore_loser(protocol):
        return SimpleNamespace(
            terminal=True, decided="abort", sore_loser=True,
            protocol=protocol, order=SimpleNamespace(index=7),
        )

    for protocol in ("cbc", "unanimity"):
        violations = _check_uniformity(sore_loser(protocol), crash_faults_active=True)
        assert len(violations) == 1 and f"{protocol} deal #7" in violations[0]
    assert _check_uniformity(sore_loser("timelock"), crash_faults_active=True) == []
    no_crash = _check_uniformity(sore_loser("timelock"), crash_faults_active=False)
    assert len(no_crash) == 1
