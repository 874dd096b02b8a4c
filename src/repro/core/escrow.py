"""The generic EscrowManager contract (paper Figure 3).

One escrow contract is published per (deal, asset) on the asset's home
chain.  It implements the two §4 operations:

* **escrow** (here ``deposit``): the owner transfers the asset *to the
  contract* (the contract becomes the on-chain owner — that is what
  prevents double-spending), while the C- and A-maps both record the
  depositor;
* **tentative transfer**: moves C-map ownership between parties
  without touching the chain-level owner (still the contract).

Termination is delegated to subclasses: the timelock contract releases
when it has accepted a commit vote from every party (Figure 5), the
CBC contract when presented a valid proof (Figure 6).  ``_release``
pays every C-map owner; ``_refund`` pays every A-map owner (the
original depositors).

Gas shape (checked by tests): a fungible ``deposit`` costs exactly the
four storage writes §7.1 counts — two in the token's ``transfer_from``
plus the ``escrow`` and ``on_commit`` map updates.
"""

from __future__ import annotations

from enum import Enum

from repro.chain.contracts import CallContext, Contract
from repro.core.deal import Asset
from repro.crypto.keys import Address


class EscrowState(Enum):
    """Lifecycle of an escrow contract."""

    ACTIVE = "active"
    RELEASED = "released"
    REFUNDED = "refunded"


class EscrowManager(Contract):
    """Escrow + tentative-transfer bookkeeping for one asset."""

    EXPORTS = ("deposit", "transfer")

    def __init__(self, name: str, deal_id: bytes, plist: tuple[Address, ...], asset: Asset):
        super().__init__(name)
        self.deal_id = deal_id
        self.plist = tuple(plist)
        self.asset = asset
        # Figure 3's two maps.  For non-fungible assets the same maps
        # hold token_id -> owner instead of owner -> amount.
        self.escrow_map = self.storage("escrow")
        self.on_commit = self.storage("onCommit")
        self.meta = self.storage("meta")
        self.meta["state"] = EscrowState.ACTIVE
        self.meta["deposited"] = False

    # ------------------------------------------------------------------
    # Figure 3: escrow
    # ------------------------------------------------------------------
    def deposit(self, ctx: CallContext) -> bool:
        """Pull the asset from the caller into escrow.

        The caller must be the asset's designated owner (a plist
        member) and must have approved this contract on the token.
        """
        ctx.require(ctx.sender in self.plist, "sender not in plist")
        ctx.require(ctx.sender == self.asset.owner, "sender does not own this asset")
        ctx.require(not self.meta["deposited"], "already escrowed")
        # A deposit arriving after the escrow terminated (e.g. a
        # timeout refund fired on the still-empty contract while the
        # deposit was delayed in the network) must bounce — otherwise
        # the asset would be trapped in a dead contract forever.
        ctx.require(self.meta["state"] is EscrowState.ACTIVE, "escrow not active")
        if self.asset.fungible:
            ctx.call(
                self,
                self.asset.token,
                "transfer_from",
                owner=ctx.sender,
                to=self.address,
                amount=self.asset.amount,
            )
            self.escrow_map[ctx.sender] = self.asset.amount
            self.on_commit[ctx.sender] = self.asset.amount
        else:
            for token_id in self.asset.token_ids:
                ctx.call(
                    self,
                    self.asset.token,
                    "transfer_from",
                    owner=ctx.sender,
                    to=self.address,
                    token_id=token_id,
                )
                self.escrow_map[token_id] = ctx.sender
                self.on_commit[token_id] = ctx.sender
        self.meta["deposited"] = True
        ctx.emit(self, "Deposited", deal_id=self.deal_id, owner=ctx.sender)
        return True

    # ------------------------------------------------------------------
    # Figure 3: tentative transfer
    # ------------------------------------------------------------------
    def transfer(
        self,
        ctx: CallContext,
        to: Address,
        amount: int = 0,
        token_ids: tuple[str, ...] = (),
    ) -> bool:
        """Tentatively transfer escrowed value from the caller to ``to``."""
        ctx.require(self.meta["state"] is EscrowState.ACTIVE, "escrow not active")
        ctx.require(self.meta["deposited"], "asset not escrowed yet")
        ctx.require(to in self.plist, "recipient not in plist")
        if self.asset.fungible:
            ctx.require(amount > 0 and not token_ids, "fungible transfer needs amount")
            held = self.on_commit.get(ctx.sender, 0)
            ctx.require(held >= amount, "insufficient tentative balance")
            self.on_commit[ctx.sender] = held - amount
            self.on_commit[to] = self.on_commit.get(to, 0) + amount
        else:
            ctx.require(bool(token_ids) and not amount, "nft transfer needs token ids")
            for token_id in token_ids:
                ctx.require(
                    self.on_commit.get(token_id) == ctx.sender,
                    f"token {token_id!r} not tentatively owned by sender",
                )
                self.on_commit[token_id] = to
        ctx.emit(
            self,
            "TentativeTransfer",
            deal_id=self.deal_id,
            giver=ctx.sender,
            receiver=to,
            amount=amount,
            token_ids=tuple(token_ids),
        )
        return True

    # ------------------------------------------------------------------
    # Termination (invoked by subclasses)
    # ------------------------------------------------------------------
    def _release(self, ctx: CallContext) -> None:
        """Pay out per the C-map; the deal committed at this asset."""
        self._pay_out(ctx, self.on_commit, EscrowState.RELEASED, "Released")

    def _refund(self, ctx: CallContext) -> None:
        """Pay out per the A-map; the deal aborted at this asset."""
        self._pay_out(ctx, self.escrow_map, EscrowState.REFUNDED, "Refunded")

    def _pay_out(self, ctx: CallContext, payout, final: EscrowState, event: str) -> None:
        """Transfer every holding in ``payout`` and terminate in ``final``."""
        ctx.require(self.meta["state"] is EscrowState.ACTIVE, "already terminated")
        if self.meta["deposited"]:
            if self.asset.fungible:
                for owner, amount in payout.items():
                    if amount > 0:
                        ctx.call(self, self.asset.token, "transfer", to=owner, amount=amount)
            else:
                for token_id, owner in payout.items():
                    ctx.call(self, self.asset.token, "transfer", to=owner, token_id=token_id)
        self.meta["state"] = final
        ctx.emit(self, event, deal_id=self.deal_id)

    # ------------------------------------------------------------------
    # Off-chain inspection (parties' monitoring, tests)
    # ------------------------------------------------------------------
    def peek_state(self) -> EscrowState:
        """Current lifecycle state (unmetered)."""
        return self.meta.peek("state")

    def peek_deposited(self) -> bool:
        """Whether the asset has been escrowed (unmetered)."""
        return bool(self.meta.peek("deposited"))

    def peek_commit_holding(self, party: Address) -> object:
        """What ``party`` gets if the deal commits here (unmetered)."""
        if self.asset.fungible:
            return self.on_commit.peek(party, 0)
        return {
            token_id
            for token_id in self.asset.token_ids
            if self.on_commit.peek(token_id) == party
        }
