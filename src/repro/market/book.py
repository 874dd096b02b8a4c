"""The per-chain market escrow book.

The per-deal runtime publishes one escrow contract per (deal, asset) —
fine for a single deal, hopeless for thousands.  The market instead
publishes **one** :class:`MarketEscrowBook` per chain that holds every
deal's escrows, keyed by ``(deal_id, asset_id)``.

Parties *fund* an internal account once per token (a real token
transfer into the book — the deposit-once-trade-many pattern of a
production exchange), and deals then escrow out of that internal
balance with pure storage operations.  Double-spends are structurally
impossible: an ``open`` debits the internal balance under a ``require``
and reverts when concurrent deals have already claimed the funds —
that revert is exactly the escrow conflict the scheduler resolves
(first open wins, the loser aborts and is refunded).

Settlement is driven by the market coordinator once the commit log on
the coordinator chain has decided the deal: ``commit`` credits every
C-map holder's internal account, ``abort`` refunds every original
depositor (the A-map).  Either way the book's token balance never
moves — only the internal ledger does — so conservation is checkable
at two levels (see :mod:`repro.market.invariants`).

The book holds **non-fungible** escrows too: parties fund unique
tokens (theater tickets) into the book's custody once
(:meth:`MarketEscrowBook.fund_nft` — the NFT analogue of the
deposit-once pattern), the book records the internal owner per token
id, and a deal's ``open`` then *locks* specific token ids.  A second
deal trying to lock an already-locked (or no-longer-owned) token id
reverts — first-committed-wins by block order, exactly like the
fungible over-draw — and settlement moves internal ownership per the
C-map (commit) or back to the depositor (abort).  Conservation for
NFTs is **ownership uniqueness**: every funded token id has exactly
one internal record, either free or locked by exactly one open deal
(checked in :mod:`repro.market.invariants`).
"""

from __future__ import annotations

from repro.chain.contracts import CallContext, Contract
from repro.crypto.keys import Address

# The name every chain publishes its book under.
BOOK_CONTRACT = "market-book"

# Per-chain lifecycle of one deal's escrows.
OPEN = "open"
COMMITTED = "committed"
ABORTED = "aborted"


class MarketEscrowBook(Contract):
    """Every deal's escrows on one chain, plus the internal accounts."""

    EXPORTS = (
        "fund", "withdraw", "fund_nft", "open", "transfer", "commit", "abort",
    )

    def __init__(self, name: str, coordinator: Address):
        super().__init__(name)
        self.coordinator = coordinator
        # party-facing internal ledger: (address, token) -> free balance
        self.accounts = self.storage("accounts")
        # (deal_id, asset_id) -> (owner, token, amount)   — the A-map
        self.deposits = self.storage("deposits")
        # (deal_id, asset_id) -> tuple[(party, amount), ...] — the C-map
        self.cmap = self.storage("cmap")
        # deal_id -> OPEN | COMMITTED | ABORTED (this chain's view)
        self.deal_state = self.storage("dealState")
        # deal_id -> tuple of asset_ids escrowed on this chain
        self.deal_assets = self.storage("dealAssets")
        # deal_id -> plist recorded at first open
        self.plists = self.storage("plists")
        # --- non-fungible custody ---
        # (token, token_id) -> internal owner, while the token is free
        self.nft_owners = self.storage("nftOwners")
        # (token, token_id) -> deal_id, while locked in an open escrow
        self.nft_locks = self.storage("nftLocks")
        # (deal_id, asset_id) -> (owner, token, token_ids) — the NFT A-map
        self.nft_deposits = self.storage("nftDeposits")
        # (deal_id, asset_id) -> tuple[(token_id, holder), ...] — NFT C-map
        self.nft_cmap = self.storage("nftCmap")
        # deal_id -> tuple of NFT asset_ids escrowed on this chain
        self.nft_deal_assets = self.storage("nftDealAssets")

    # ------------------------------------------------------------------
    # Session funding (once per party per token)
    # ------------------------------------------------------------------
    def fund(self, ctx: CallContext, token: str, amount: int) -> bool:
        """Pull ``amount`` of ``token`` from the caller into the book."""
        ctx.require(amount > 0, "non-positive funding amount")
        ctx.call(
            self, token, "transfer_from",
            owner=ctx.sender, to=self.address, amount=amount,
        )
        key = (ctx.sender, token)
        self.accounts[key] = self.accounts.get(key, 0) + amount
        ctx.emit(self, "Funded", party=ctx.sender, token=token, amount=amount)
        return True

    def withdraw(self, ctx: CallContext, token: str, amount: int) -> bool:
        """Move free internal balance back out to the caller's wallet."""
        ctx.require(amount > 0, "non-positive withdrawal amount")
        key = (ctx.sender, token)
        held = self.accounts.get(key, 0)
        ctx.require(held >= amount, "insufficient free balance")
        self.accounts[key] = held - amount
        ctx.call(self, token, "transfer", to=ctx.sender, amount=amount)
        ctx.emit(self, "Withdrawn", party=ctx.sender, token=token, amount=amount)
        return True

    def fund_nft(self, ctx: CallContext, token: str, token_id: str) -> bool:
        """Pull one unique token from the caller into the book's custody.

        The book becomes the chain-level owner; the caller stays the
        *internal* owner until a committed deal reassigns the token.
        """
        ctx.require(
            self.nft_owners.get((token, token_id)) is None
            and self.nft_locks.get((token, token_id)) is None,
            "token already in custody",
        )
        ctx.call(
            self, token, "transfer_from",
            owner=ctx.sender, to=self.address, token_id=token_id,
        )
        self.nft_owners[(token, token_id)] = ctx.sender
        ctx.emit(self, "FundedNft", party=ctx.sender, token=token,
                 token_id=token_id)
        return True

    # ------------------------------------------------------------------
    # Escrow and tentative transfer
    # ------------------------------------------------------------------
    def _admit(
        self, ctx: CallContext, deal_id: bytes, parties: tuple[Address, ...]
    ) -> None:
        """Shared open-time checks: lifecycle state and plist pinning."""
        state = self.deal_state.get(deal_id, OPEN)
        ctx.require(state == OPEN, "deal already settled on this chain")
        known_plist = self.plists.get(deal_id)
        if known_plist is None:
            self.plists[deal_id] = tuple(parties)
            self.deal_state[deal_id] = OPEN
        else:
            ctx.require(known_plist == tuple(parties), "plist mismatch")

    def open(
        self,
        ctx: CallContext,
        deal_id: bytes,
        asset_id: str,
        token: str,
        parties: tuple[Address, ...],
        amount: int = 0,
        token_ids: tuple[str, ...] = (),
    ) -> bool:
        """Escrow the caller's free balance or free tokens for one asset.

        This is the contention point of the whole market.  Fungible: the
        debit of the internal account reverts when earlier opens (of
        *other* deals) already hold the funds.  Non-fungible: locking a
        token id reverts when another open deal already locked it, or
        when a committed deal moved its internal ownership away from the
        caller (a double-sell).  Both ways it is first-committed-wins,
        enforced by block order.
        """
        ctx.require(bool(amount) != bool(token_ids),
                    "escrow needs an amount xor token ids")
        ctx.require(ctx.sender in parties, "owner not in plist")
        if token_ids:
            return self._open_nft(ctx, deal_id, asset_id, token, parties, token_ids)
        ctx.require(amount > 0, "non-positive escrow amount")
        ctx.require((deal_id, asset_id) not in self.deposits, "asset already escrowed")
        self._admit(ctx, deal_id, parties)
        key = (ctx.sender, token)
        free = self.accounts.get(key, 0)
        ctx.require(free >= amount, "insufficient free balance for escrow")
        self.accounts[key] = free - amount
        self.deposits[(deal_id, asset_id)] = (ctx.sender, token, amount)
        self.cmap[(deal_id, asset_id)] = ((ctx.sender, amount),)
        self.deal_assets[deal_id] = self.deal_assets.get(deal_id, ()) + (asset_id,)
        ctx.emit(self, "Escrowed", deal_id=deal_id, asset_id=asset_id,
                 owner=ctx.sender, amount=amount)
        return True

    def _open_nft(
        self,
        ctx: CallContext,
        deal_id: bytes,
        asset_id: str,
        token: str,
        parties: tuple[Address, ...],
        token_ids: tuple[str, ...],
    ) -> bool:
        """Lock unique tokens the caller internally owns for one asset."""
        ctx.require(
            (deal_id, asset_id) not in self.nft_deposits, "asset already escrowed"
        )
        self._admit(ctx, deal_id, parties)
        for token_id in token_ids:
            ctx.require(
                self.nft_locks.get((token, token_id)) is None,
                f"token {token_id!r} locked by another deal",
            )
            ctx.require(
                self.nft_owners.get((token, token_id)) == ctx.sender,
                f"token {token_id!r} not owned by caller",
            )
        for token_id in token_ids:
            del self.nft_owners[(token, token_id)]
            self.nft_locks[(token, token_id)] = deal_id
        self.nft_deposits[(deal_id, asset_id)] = (
            ctx.sender, token, tuple(token_ids)
        )
        self.nft_cmap[(deal_id, asset_id)] = tuple(
            (token_id, ctx.sender) for token_id in token_ids
        )
        self.nft_deal_assets[deal_id] = (
            self.nft_deal_assets.get(deal_id, ()) + (asset_id,)
        )
        ctx.emit(self, "EscrowedNft", deal_id=deal_id, asset_id=asset_id,
                 owner=ctx.sender, token_ids=tuple(token_ids))
        return True

    def transfer(
        self, ctx: CallContext, deal_id: bytes, asset_id: str,
        to: Address, amount: int = 0, token_ids: tuple[str, ...] = (),
    ) -> bool:
        """Tentatively move escrowed value or tokens to ``to``."""
        ctx.require(bool(amount) != bool(token_ids),
                    "transfer needs an amount xor token ids")
        ctx.require(self.deal_state.get(deal_id) == OPEN, "deal not open here")
        plist = self.plists[deal_id]
        ctx.require(ctx.sender in plist, "giver not in plist")
        ctx.require(to in plist, "receiver not in plist")
        if token_ids:
            ctx.require(
                (deal_id, asset_id) in self.nft_deposits, "asset not escrowed"
            )
            holdings = dict(self.nft_cmap[(deal_id, asset_id)])
            for token_id in token_ids:
                ctx.require(
                    holdings.get(token_id) == ctx.sender,
                    f"token {token_id!r} not tentatively held by sender",
                )
                holdings[token_id] = to
            self.nft_cmap[(deal_id, asset_id)] = tuple(holdings.items())
            ctx.emit(self, "TentativeTransfer", deal_id=deal_id,
                     asset_id=asset_id, giver=ctx.sender, receiver=to,
                     token_ids=tuple(token_ids))
            return True
        ctx.require(amount > 0, "non-positive transfer amount")
        ctx.require((deal_id, asset_id) in self.deposits, "asset not escrowed")
        holdings = dict(self.cmap[(deal_id, asset_id)])
        held = holdings.get(ctx.sender, 0)
        ctx.require(held >= amount, "insufficient tentative balance")
        holdings[ctx.sender] = held - amount
        holdings[to] = holdings.get(to, 0) + amount
        self.cmap[(deal_id, asset_id)] = tuple(
            (party, value) for party, value in holdings.items() if value > 0
        )
        ctx.emit(self, "TentativeTransfer", deal_id=deal_id, asset_id=asset_id,
                 giver=ctx.sender, receiver=to, amount=amount)
        return True

    # ------------------------------------------------------------------
    # Settlement (coordinator only, after the commit log decided)
    # ------------------------------------------------------------------
    def commit(self, ctx: CallContext, deal_id: bytes) -> bool:
        """Release every escrow of the deal per its C-map."""
        ctx.require(ctx.sender == self.coordinator, "only the coordinator settles")
        ctx.require(deal_id in self.deal_state, "deal unknown on this chain")
        ctx.require(self.deal_state[deal_id] == OPEN, "deal already settled")
        for asset_id in self.deal_assets.get(deal_id, ()):
            _, token, _ = self.deposits[(deal_id, asset_id)]
            for party, amount in self.cmap[(deal_id, asset_id)]:
                key = (party, token)
                self.accounts[key] = self.accounts.get(key, 0) + amount
        for asset_id in self.nft_deal_assets.get(deal_id, ()):
            _, token, _ = self.nft_deposits[(deal_id, asset_id)]
            for token_id, holder in self.nft_cmap[(deal_id, asset_id)]:
                del self.nft_locks[(token, token_id)]
                self.nft_owners[(token, token_id)] = holder
        self.deal_state[deal_id] = COMMITTED
        ctx.emit(self, "DealCommitted", deal_id=deal_id)
        return True

    def abort(self, ctx: CallContext, deal_id: bytes) -> bool:
        """Refund every escrow of the deal per its A-map.

        Aborting a deal this chain has never seen is allowed and
        records the terminal state, so a delayed ``open`` that lands
        after the abort bounces instead of trapping funds.
        """
        ctx.require(ctx.sender == self.coordinator, "only the coordinator settles")
        state = self.deal_state.get(deal_id, OPEN)
        ctx.require(state == OPEN, "deal already settled")
        for asset_id in self.deal_assets.get(deal_id, ()):
            owner, token, amount = self.deposits[(deal_id, asset_id)]
            key = (owner, token)
            self.accounts[key] = self.accounts.get(key, 0) + amount
        for asset_id in self.nft_deal_assets.get(deal_id, ()):
            owner, token, token_ids = self.nft_deposits[(deal_id, asset_id)]
            for token_id in token_ids:
                del self.nft_locks[(token, token_id)]
                self.nft_owners[(token, token_id)] = owner
        self.deal_state[deal_id] = ABORTED
        ctx.emit(self, "DealAborted", deal_id=deal_id)
        return True

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Copy the book's full state for replication/recovery."""
        return self.snapshot_state()

    def restore(self, state: dict[str, dict]) -> None:
        """Reset the book to a :meth:`snapshot` (operator-level)."""
        self.restore_state(state)

    # ------------------------------------------------------------------
    # Off-chain inspection (scheduler, invariants, tests)
    # ------------------------------------------------------------------
    def peek_account(self, party: Address, token: str) -> int:
        """A party's free internal balance (unmetered)."""
        return self.accounts.peek((party, token), 0)

    def peek_deal_state(self, deal_id: bytes) -> str | None:
        """This chain's lifecycle state for a deal (unmetered)."""
        return self.deal_state.peek(deal_id)

    def peek_escrowed_total(self, token: str) -> int:
        """Total still locked in *open* escrows of ``token`` (unmetered)."""
        total = 0
        for (deal_id, _), (_, asset_token, amount) in self.deposits.items():
            if asset_token != token:
                continue
            if self.deal_state.peek(deal_id) == OPEN:
                total += amount
        return total

    def peek_internal_total(self, token: str) -> int:
        """Sum of all internal account balances of ``token`` (unmetered)."""
        return sum(
            balance
            for (_, account_token), balance in self.accounts.items()
            if account_token == token
        )

    def peek_open_deal_ids(self) -> set[bytes]:
        """Deal ids that still hold *open* escrows on this book.

        The cross-shard invariant sweep uses this to prove that a deal
        settled by its home shard's commit log left no value locked on
        any other shard's book: first-committed-wins resolution must
        terminate across books, not only on the coordinator chain.
        """
        open_ids: set[bytes] = set()
        for storage in (self.deposits, self.nft_deposits):
            for (deal_id, _asset_id), _record in storage.items():
                if self.deal_state.peek(deal_id) == OPEN:
                    open_ids.add(deal_id)
        return open_ids

    def peek_nft_owner(self, token: str, token_id: str):
        """The internal owner of a free (unlocked) token id (unmetered)."""
        return self.nft_owners.peek((token, token_id))

    def peek_nft_lock(self, token: str, token_id: str):
        """The deal currently locking a token id, if any (unmetered)."""
        return self.nft_locks.peek((token, token_id))

    def peek_nft_records(self, token: str) -> dict[str, tuple[str, object]]:
        """Every custody record of ``token``: token_id -> (kind, ref).

        ``kind`` is ``"free"`` (ref = internal owner) or ``"locked"``
        (ref = the locking deal id).  A token id must never appear in
        both maps — that is the ownership-uniqueness invariant.
        """
        records: dict[str, tuple[str, object]] = {}
        for (owner_token, token_id), owner in self.nft_owners.items():
            if owner_token == token:
                records[token_id] = ("free", owner)
        for (lock_token, token_id), deal_id in self.nft_locks.items():
            if lock_token != token:
                continue
            if token_id in records:
                records[token_id] = ("conflict", deal_id)
            else:
                records[token_id] = ("locked", deal_id)
        return records
