"""The market's commit log: one decision per deal, first one wins.

The per-deal CBC (:mod:`repro.consensus.bft`) gives each deal its own
certified log.  The market collapses that to a single
:class:`MarketCommitLog` contract per **shard**: deals are registered
with their plist, parties vote commit, and the deal is *decided*
exactly once — either the block that carries the last missing vote
(commit) or the block that carries an abort mark (timeout or escrow
conflict), whichever executes first.  Block order on the log's home
chain is the tie-breaker, which is what makes concurrent conflict
resolution deterministic: a vote landing after an abort mark reverts,
an abort mark landing after the deciding vote reverts.

Sharding (PR 5) splits the market across ``shards`` coordinator
chains, each carrying one commit log.  The cross-shard commit path
rests on two rules:

* **Routing is enforced on-chain.**  Every deal has exactly one home
  shard — :func:`~repro.market.order.shard_of_deal` of its content
  hash — and ``register`` *reverts* on any other shard's log.  Even a
  buggy or adversarial router cannot get the same deal registered
  (let alone decided) on two coordinators, so exactly-once needs no
  cross-shard coordination at decision time.
* **First-committed-wins resolves across books.**  A deal's escrows
  may live on books owned by *other* shards; conflicts over an escrow
  (a double-sell, an over-draw) are resolved by block order on the
  book's own chain, and each losing deal aborts through its *own*
  home log.  The two shards never have to agree on an order of
  events — the asset chain's block order is the shared arbiter.

The scheduler watches ``DealDecided`` events and fans the outcome out
to every involved chain's :class:`~repro.market.book.MarketEscrowBook`
as commit/abort claims, exactly as in the single-coordinator market.
"""

from __future__ import annotations

from repro.chain.contracts import CallContext, Contract
from repro.crypto.keys import Address
from repro.market.order import shard_of_deal

PENDING = "pending"
COMMITTED = "committed"
ABORTED = "aborted"


class MarketCommitLog(Contract):
    """Registration, votes, and the single decision per deal.

    ``shard``/``shards`` pin the log to its position in the market; an
    unsharded market is shard 0 of 1.  The contract is named
    ``market-commitlog-s{shard}``.
    """

    EXPORTS = ("register", "vote", "mark_abort")

    def __init__(self, coordinator: Address, shard: int, shards: int):
        super().__init__(f"market-commitlog-s{shard}")
        self.coordinator = coordinator
        self.shard = shard
        self.shards = shards
        self.plists = self.storage("plists")
        self.status = self.storage("status")
        self.voted = self.storage("voted")
        self.vote_counts = self.storage("voteCounts")

    def register(self, ctx: CallContext, deal_id: bytes, parties: tuple[Address, ...]) -> bool:
        """Enter a deal into the log (coordinator, after order checks)."""
        ctx.require(ctx.sender == self.coordinator, "only the coordinator registers")
        ctx.require(len(parties) > 0, "empty plist")
        ctx.require(
            shard_of_deal(deal_id, self.shards) == self.shard,
            "deal routed to the wrong shard",
        )
        ctx.require(deal_id not in self.status, "deal already registered")
        self.plists[deal_id] = tuple(parties)
        self.status[deal_id] = PENDING
        self.vote_counts[deal_id] = 0
        ctx.emit(self, "DealRegistered", deal_id=deal_id)
        return True

    def vote(self, ctx: CallContext, deal_id: bytes) -> bool:
        """Record the caller's commit vote; the last one decides."""
        status = self.status.get(deal_id)
        ctx.require(status is not None, "deal not registered")
        ctx.require(status == PENDING, "deal already decided")
        plist = self.plists[deal_id]
        ctx.require(ctx.sender in plist, "voter not in plist")
        ctx.require(not self.voted.get((deal_id, ctx.sender), False), "duplicate vote")
        self.voted[(deal_id, ctx.sender)] = True
        count = self.vote_counts[deal_id] + 1
        self.vote_counts[deal_id] = count
        ctx.emit(self, "VoteRecorded", deal_id=deal_id, voter=ctx.sender)
        if count == len(plist):
            self.status[deal_id] = COMMITTED
            ctx.emit(self, "DealDecided", deal_id=deal_id, outcome="commit")
        return True

    def mark_abort(self, ctx: CallContext, deal_id: bytes) -> bool:
        """Decide abort (timeout or escrow conflict) unless already committed."""
        status = self.status.get(deal_id)
        ctx.require(status is not None, "deal not registered")
        ctx.require(status == PENDING, "deal already decided")
        ctx.require(
            ctx.sender == self.coordinator or ctx.sender in self.plists[deal_id],
            "only the coordinator or a party may abort",
        )
        self.status[deal_id] = ABORTED
        ctx.emit(self, "DealDecided", deal_id=deal_id, outcome="abort")
        return True

    # ------------------------------------------------------------------
    # Off-chain inspection
    # ------------------------------------------------------------------
    def peek_status(self, deal_id: bytes) -> str | None:
        """The deal's decision state (unmetered)."""
        return self.status.peek(deal_id)

    def peek_registered(self) -> dict[bytes, str]:
        """Every registered deal's status (unmetered; for invariants).

        The cross-shard exactly-once invariant sweeps every shard's
        log through this: the per-log maps must be disjoint, and every
        entry must sit on the deal's home shard.
        """
        return {deal_id: status for deal_id, status in self.status.items()}
