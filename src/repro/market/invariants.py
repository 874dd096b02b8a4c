"""Ledger conservation invariants for the concurrent market.

These checks are the market's safety net: whatever interleaving of
thousands of deals the scheduler produces — commits, conflict aborts,
timeouts, forged orders, stale proofs — the following must hold on
every chain:

1. **Supply conservation** — the total minted supply of each chain's
   token is exactly the sum of all holder balances (accounts, the
   book, the coordinator, and every per-deal timelock/CBC escrow
   contract).  No interleaving creates or destroys value.
2. **Book backing** — the escrow book's *token* balance equals its
   internal ledger: every free internal account balance plus every
   still-open escrow deposit.  Committed and aborted escrows must have
   been credited back; nothing is double-counted and nothing leaks.
3. **No double-spend** — internal balances are non-negative (an
   escrowed amount can never be escrowed again; the contract's
   ``require`` makes over-draws revert, this check proves none
   slipped through) and every open escrow's C-map sums to exactly its
   A-map deposit.
4. **Uniform outcomes** — a settled deal is committed everywhere or
   aborted everywhere.  Unanimity deals must agree with the commit
   log on every book; timelock/CBC deals must have *all* their escrow
   contracts released (commit) or none of them (abort).  One carve-out
   with crash faults active: a timelock deal whose votes made one
   chain's deadline but missed another's (because the crashed shard's
   sealing was gated) settles mixed — §5's *sore loser*, measured by
   the report, never produced by honest infrastructure.
5. **NFT ownership uniqueness** — every minted token id has exactly
   one owner: the chain-level owner is an account or the book, and a
   book-held token has exactly one internal record — free under one
   internal owner, or locked by exactly one *open* deal.  A settled
   deal holds no locks; an open escrow's NFT C-map covers exactly its
   deposited token ids.
6. **Cross-shard exactly-once** — in a sharded market every deal is
   registered (and therefore decidable) on exactly one commit log,
   and that log is the deal's home shard per
   :func:`~repro.market.order.shard_of_deal`.  The contracts enforce
   this on-chain; the sweep proves no routing bug slipped through.
7. **No stranded escrows** — a deal that reached a terminal outcome
   holds no open escrow on *any* shard's book: first-committed-wins
   resolution terminates across books, not only on the home chain.
8. **Replica convergence** — when the market runs replicated
   (:mod:`repro.market.replication`), every live, caught-up replica's
   state image digests byte-identical to its shard's authoritative
   chains, and every recovery-time hash check passed.  Crash/recover
   interleavings may cost liveness, never divergence.

:func:`check_market_invariants` returns a list of human-readable
violations (empty means all invariants hold).  The scheduler runs it
at the end of every run — and after every block when
``MarketConfig.check_invariants_per_block`` is set (tests).
"""

from __future__ import annotations

from repro.market.book import OPEN
from repro.market.order import shard_of_deal


def check_market_invariants(scheduler) -> list[str]:
    """Check every conservation invariant; return the violations."""
    violations: list[str] = []
    for chain_id, chain in scheduler.chains.items():
        token = scheduler.tokens[chain_id]
        book = scheduler.books[chain_id]
        minted = scheduler.minted.get(chain_id, 0)

        # 1. Supply conservation across every on-chain holder.
        holders = set(scheduler.workload.accounts)
        holders.add(book.address)
        holders.add(scheduler.coordinator.address)
        holders.update(
            contract.address for contract in scheduler.deal_escrows[chain_id]
        )
        total = sum(token.peek_balance(holder) for holder in holders)
        if total != minted:
            violations.append(
                f"{chain_id}: token supply {total} != minted {minted}"
            )

        # 2. The book's token balance is exactly backed by its ledger.
        book_balance = token.peek_balance(book.address)
        internal = book.peek_internal_total(token.name)
        escrowed = book.peek_escrowed_total(token.name)
        if book_balance != internal + escrowed:
            violations.append(
                f"{chain_id}: book holds {book_balance} but ledger says "
                f"{internal} free + {escrowed} escrowed"
            )

        # 3a. No internal account has gone negative.
        for (holder, account_token), balance in book.accounts.items():
            if balance < 0:
                violations.append(
                    f"{chain_id}: negative internal balance {balance} for "
                    f"{holder} in {account_token}"
                )

        # 3b. Every open escrow's C-map sums to its deposit.
        for (deal_id, asset_id), (_, _, amount) in book.deposits.items():
            if book.deal_state.peek(deal_id) != OPEN:
                continue
            tentative = sum(
                value for _, value in book.cmap.peek((deal_id, asset_id), ())
            )
            if tentative != amount:
                violations.append(
                    f"{chain_id}: escrow ({deal_id.hex()[:8]}, {asset_id}) "
                    f"deposited {amount} but C-map sums to {tentative}"
                )

        # 5. NFT ownership uniqueness on this chain.
        nft_token = scheduler.nft_tokens.get(chain_id)
        if nft_token is not None:
            violations.extend(
                _check_nft_uniqueness(scheduler, chain_id, nft_token, book)
            )

    # 6. Cross-shard exactly-once: every deal sits on exactly one
    # commit log, and that log is its home shard's.
    seen_on: dict[bytes, int] = {}
    for shard, log in scheduler.commit_logs.items():
        for deal_id, status in log.peek_registered().items():
            home = shard_of_deal(deal_id, scheduler.shards)
            if home != shard:
                violations.append(
                    f"deal {deal_id.hex()[:8]} registered on shard {shard} "
                    f"({status}) but routes to shard {home}"
                )
            if deal_id in seen_on:
                violations.append(
                    f"deal {deal_id.hex()[:8]} registered on shards "
                    f"{seen_on[deal_id]} and {shard}"
                )
            seen_on[deal_id] = shard

    # 7. No stranded escrows: a terminal deal holds nothing open on
    # any shard's book.
    for chain_id, book in scheduler.books.items():
        for deal_id in sorted(book.peek_open_deal_ids()):
            run = scheduler.runs.get(deal_id)
            if run is not None and run.terminal:
                violations.append(
                    f"{chain_id}: {run.phase.value} deal "
                    f"#{run.order.index} still holds open escrows"
                )

    # 4. Outcome uniformity: every chain agrees on every settled deal.
    # With crash faults active — or a chaotic message plane dropping
    # and delaying vote fanout, or a fee-pricing sealing policy
    # delaying a deal's votes past its §5 deadlines — a timelock deal
    # may legitimately settle mixed (the sore loser) and a fee-priced-
    # out deal aborts cleanly; anywhere else that pattern is a bug.
    # Fee-priced-out deals themselves are a *measured* market outcome
    # (reported like sore losers), never a conservation violation:
    # fees are priority units, not token transfers, so every balance
    # check above is policy-independent by construction.
    replication = scheduler.replication
    config = scheduler.config
    crash_faults_active = (
        (replication is not None and replication.counters["crashes"] > 0)
        or (config.chaos is not None and config.chaos.market_active)
        or config.seal_policy != "fifo"
    )
    for run in scheduler.runs.values():
        violations.extend(_check_uniformity(run, crash_faults_active))

    # 8. Replica convergence across every crash/recover interleaving.
    if replication is not None:
        violations.extend(replication.check_invariants())
    return violations


def _check_uniformity(run, crash_faults_active: bool) -> list[str]:
    """A decided, terminal deal settled the same way everywhere.

    The deal's driver knows where its escrows live (book entries per
    claim chain, or one contract per asset) and which of their states
    contradict the decision.
    """
    if not run.terminal or run.decided is None:
        return []
    if run.sore_loser:
        if crash_faults_active and run.protocol == "timelock":
            return []  # §5 sore loser under crash-gated sealing
        return [
            f"{run.protocol} deal #{run.order.index} settled mixed "
            "(sore loser) without any crash fault to blame"
        ]
    wrong = run.driver.settlement_disagreements()
    if wrong:
        return [
            f"{run.protocol} deal #{run.order.index} decided "
            f"{run.decided!r} but its escrows disagree: {wrong}"
        ]
    return []


def _check_nft_uniqueness(scheduler, chain_id, nft_token, book) -> list[str]:
    """Every minted token id has exactly one unambiguous owner."""
    violations: list[str] = []
    records = book.peek_nft_records(nft_token.name)
    minted = scheduler.nft_minted.get(chain_id, ())
    accounts = set(scheduler.workload.accounts)
    for token_id, _original_owner in minted:
        chain_owner = nft_token.peek_owner(token_id)
        record = records.pop(token_id, None)
        if chain_owner == book.address:
            if record is None:
                violations.append(
                    f"{chain_id}: token {token_id!r} held by the book "
                    "without an internal record"
                )
            elif record[0] == "conflict":
                violations.append(
                    f"{chain_id}: token {token_id!r} is both free and locked"
                )
            elif record[0] == "locked":
                deal_id = record[1]
                if book.deal_state.peek(deal_id) != OPEN:
                    violations.append(
                        f"{chain_id}: token {token_id!r} locked by a "
                        "settled deal"
                    )
        elif chain_owner in accounts:
            if record is not None:
                violations.append(
                    f"{chain_id}: token {token_id!r} owned by an account "
                    "but still recorded in the book"
                )
        else:
            violations.append(
                f"{chain_id}: token {token_id!r} owned by unknown holder "
                f"{chain_owner}"
            )
    for token_id in records:
        violations.append(
            f"{chain_id}: book records unknown token {token_id!r}"
        )
    # Open NFT escrows: the C-map covers exactly the deposited ids.
    for (deal_id, asset_id), (_, token, token_ids) in book.nft_deposits.items():
        if token != nft_token.name or book.deal_state.peek(deal_id) != OPEN:
            continue
        cmap_ids = {tid for tid, _ in book.nft_cmap.peek((deal_id, asset_id), ())}
        if cmap_ids != set(token_ids):
            violations.append(
                f"{chain_id}: NFT escrow ({deal_id.hex()[:8]}, {asset_id}) "
                f"deposited {sorted(token_ids)} but C-map covers "
                f"{sorted(cmap_ids)}"
            )
    return violations
