"""The paper's commit protocols driven through the market mempools.

PR 2's market committed everything through the simplified unanimity
flow; these tests pin the protocol-faithful paths: timelock escrows
with path-signature votes and terminal-deadline refunds (§5), CBC
escrows resolved by quorum-signed status proofs (§6), stale-proof
rejection, per-deal escrow contention on wallet balances, and all
three protocols interleaving on the same chains.
"""

from __future__ import annotations

from market_test_utils import HandWorkload, run_hand, two_party_swap
from repro.core.escrow import EscrowState
from repro.market import DealPhase, MarketConfig, MarketCoordinator


def _escrow_states(scheduler, run):
    return run.driver.escrow_states()


def _wallet_balance(scheduler, chain_id, party):
    return scheduler.tokens[chain_id].peek_balance(party)


def test_timelock_swap_commits_through_mempools():
    """A clean timelock swap: deposits, transfers, votes, release."""
    scheduler, report = run_hand(
        lambda wl: [two_party_swap(wl, protocol="timelock")],
        book_fund_fraction=0.0,
    )
    assert report.committed == 1 and report.aborted == 0
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    assert run.phase is DealPhase.COMMITTED
    assert set(_escrow_states(scheduler, run).values()) == {EscrowState.RELEASED}
    wl = scheduler.workload
    pa, pb = wl.labels[0], wl.labels[1]
    chain0, chain1 = wl.chain_ids[0], wl.chain_ids[-1]
    # pa paid 100 on chain0 and received 100 on chain1; pb vice versa.
    assert _wallet_balance(scheduler, chain0, pa) == 900
    assert _wallet_balance(scheduler, chain0, pb) == 1100
    assert _wallet_balance(scheduler, chain1, pb) == 900
    assert _wallet_balance(scheduler, chain1, pa) == 1100


def test_timelock_withheld_vote_refunds_every_escrow():
    """A vote withheld past the terminal deadline refunds all parties.

    The §5 guarantee: with no abort vote in the protocol, the terminal
    timeout t0 + N·Δ is the only escape — and it must make *every*
    escrow whole, including the withholder's counterparty.
    """
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(
                wl, protocol="timelock",
                withhold_votes=frozenset({wl.labels[0]}),
            )
        ],
        book_fund_fraction=0.0,
        config=MarketConfig(patience=60.0, check_invariants_per_block=True),
    )
    assert report.committed == 0 and report.aborted == 1
    # A terminal-deadline refund is the §5 timeout, not a scheduler
    # patience expiry — it must not inflate the patience-timeout row.
    assert report.timeouts == 0
    assert report.timelock_refund_sweeps == 1
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    assert run.phase is DealPhase.ABORTED and run.reason == "deadline"
    assert set(_escrow_states(scheduler, run).values()) == {EscrowState.REFUNDED}
    # The refund could not have happened before the terminal deadline.
    assert run.finished_at >= run.driver.terminal_deadline
    # Both parties' wallets are whole again on both chains.
    wl = scheduler.workload
    for chain_id in wl.chain_ids:
        for party in (wl.labels[0], wl.labels[1]):
            assert _wallet_balance(scheduler, chain_id, party) == 1000


def test_timelock_wallet_contention_first_committed_wins():
    """Two timelock deals race for p0's last 100 coins; one refunds."""
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(wl, index=0, arrival=0.5, a=0, b=1, amount=100,
                           protocol="timelock"),
            two_party_swap(wl, index=1, arrival=0.6, a=0, b=2, amount=100,
                           protocol="timelock"),
        ],
        balance=100,
        book_fund_fraction=0.0,
        config=MarketConfig(patience=60.0, check_invariants_per_block=True),
    )
    assert report.committed == 1 and report.aborted == 1
    assert report.conflicts == 1
    assert report.invariant_violations == ()
    runs = sorted(scheduler.runs.values(), key=lambda run: run.order.index)
    assert runs[0].phase is DealPhase.COMMITTED
    assert runs[1].phase is DealPhase.ABORTED and runs[1].conflict
    # The loser's counterparty got its escrowed 100 back.
    wl = scheduler.workload
    assert _wallet_balance(scheduler, wl.chain_ids[-1], wl.labels[2]) == 100


def test_cbc_swap_commits_with_status_proofs():
    """A clean CBC swap: startDeal, votes on the log, proofs release."""
    scheduler, report = run_hand(
        lambda wl: [two_party_swap(wl, protocol="cbc")],
        book_fund_fraction=0.0,
    )
    assert report.committed == 1 and report.aborted == 0
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    assert set(_escrow_states(scheduler, run).values()) == {EscrowState.RELEASED}
    # The market CBC recorded the full protocol conversation.
    cbc = scheduler.cbcs[0]
    kinds = [entry.kind for entry in cbc.entries()
             if entry.deal_id == run.order.deal_id]
    assert kinds == ["startDeal", "commit", "commit"]


def test_cbc_stale_proof_is_rejected_and_deal_still_commits():
    """A quorum-signed proof bound to a stale start hash must bounce."""
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(
                wl, protocol="cbc",
                stale_proof=frozenset({wl.labels[1]}),
            )
        ],
        book_fund_fraction=0.0,
    )
    assert report.committed == 1
    assert report.stale_proofs_rejected == 1
    assert report.invariant_violations == ()


def test_cbc_withheld_vote_aborts_via_log_and_refunds():
    """No decisive commit: patience casts an abort vote on the CBC and
    abort proofs refund every escrow."""
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(
                wl, protocol="cbc",
                withhold_votes=frozenset({wl.labels[1]}),
            )
        ],
        book_fund_fraction=0.0,
        config=MarketConfig(patience=20.0, check_invariants_per_block=True),
    )
    assert report.committed == 0 and report.aborted == 1
    assert report.timeouts == 1
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    assert set(_escrow_states(scheduler, run).values()) == {EscrowState.REFUNDED}
    wl = scheduler.workload
    for chain_id in wl.chain_ids:
        for party in (wl.labels[0], wl.labels[1]):
            assert _wallet_balance(scheduler, chain_id, party) == 1000


def test_forged_order_never_reaches_protocol_escrows():
    """A forged timelock order is rejected at the sealing block; no
    escrow contract is ever published for it."""
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(wl, protocol="timelock",
                           forge=frozenset({wl.labels[0]})),
        ],
        book_fund_fraction=0.0,
    )
    assert report.rejected == 1
    assert report.committed == 0 and report.aborted == 0
    run = next(iter(scheduler.runs.values()))
    assert run.phase is DealPhase.REJECTED
    assert run.driver.escrow_names == {}
    assert report.invariant_violations == ()


def test_all_three_protocols_interleave_on_shared_chains():
    """One deal per protocol, same chains, same block space — all
    commit and every conservation invariant holds."""
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(wl, index=0, arrival=0.5, a=0, b=1,
                           protocol="unanimity"),
            two_party_swap(wl, index=1, arrival=0.5, a=2, b=3,
                           protocol="timelock"),
            two_party_swap(wl, index=2, arrival=0.6, a=1, b=2,
                           protocol="cbc"),
        ],
        book_fund_fraction=0.5,
    )
    assert report.committed == 3
    assert report.aborted == 0 and report.stuck == 0
    assert report.invariant_violations == ()
    by_protocol = report.committed_by_protocol()
    assert by_protocol == {"unanimity": 1, "timelock": 1, "cbc": 1}
