"""Per-chain step mempools with whole-block signature checking.

Each market chain front-ends its block producer with a
:class:`StepMempool`.  Parties (driven by the scheduler) submit deal
steps at any instant; the mempool *seals* once per block interval, on
the half-grid between block boundaries, so every sealed step lands in
the very next block the chain batches (:mod:`repro.chain.ledger`
produces the block, :mod:`repro.chain.block` commits to it).

Sealing is where order signatures are paid for, at block granularity:

* every order first referenced in the sealing batch is structurally
  checked (one signature per party, no duplicate signers, all signers
  in the plist — :func:`repro.consensus.validators.quorum_structure_ok`);
* each sound order's signatures form one *group*, and the mempool calls
  no verification function itself: the block's groups go to its
  ``verify`` callable and one verdict per order comes back;
* the market binds ``verify`` to its simulator's
  :class:`~repro.chain.ledger.VerifyAggregator`, so the verdicts
  arrive in a flush later in the same simulated instant; when several
  order-carrying mempools seal at one boundary — in the sharded market
  every shard's home chain clears its own order flow, and all mempools
  seal on the same half-grid — their groups fold into a single
  multi-exponentiation, and a forged order is isolated inside that one
  :func:`repro.crypto.schnorr.batch_verify_many`.  Every verdict,
  receipt, and report byte is identical to verifying each order on the
  spot.

Steps of a cleared deal flow to the chain; steps of a rejected deal
are dropped and counted.  The shared :class:`OrderLedger` makes a deal
cleared market-wide the moment its registration block seals on the
deal's home shard chain, so asset chains (and other shards) never
re-verify the same order.

A ``max_txs_per_block`` cap models bounded block space: overflow stays
pending for the next seal (backpressure), and ``max_depth`` records
the worst backlog for the E16 report.  The pending queue is a
``deque`` drained from the left — under sustained backlog the
historical list-slicing drain (``self._pending = self._pending[cap:]``)
recopied the whole tail every seal, O(n²) across a burst; the deque
drain is O(cap) per seal with identical batch contents.

Block space is sold by a pluggable sealing policy
(:mod:`repro.market.fees`): the default FIFO policy is structurally
absent (``policy is None`` keeps the historical drain, byte for
byte), ``first_price`` seals highest-bid-first within the cap, and
``base_fee`` runs EIP-1559-style per-chain congestion pricing,
returning under-bidding steps to the queue and evicting the
never-fundable ones (``on_step_evicted`` tells the coordinator, which
resolves the deal as fee-priced-out).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.chain.tx import Transaction
from repro.consensus.validators import quorum_structure_ok
from repro.errors import MarketError, ReproError
from repro.market.order import SignedDealOrder, order_message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.ledger import Chain
    from repro.crypto.keys import Wallet


@dataclass
class OrderLedger:
    """Market-wide record of which orders cleared signature checks."""

    cleared: set = field(default_factory=set)
    rejected: set = field(default_factory=set)


@dataclass
class _PendingStep:
    tx: Transaction
    deal_id: bytes
    order: SignedDealOrder | None  # set only on registration steps
    seq: int = 0  # submission sequence — fee policies tie-break on it


class StepMempool:
    """One chain's admission queue for signed deal steps."""

    def __init__(
        self,
        chain: "Chain",
        wallet: "Wallet",
        ledger: OrderLedger,
        verify: Callable[[list, Callable[[list], None]], None],
        max_txs_per_block: int = 512,
        on_order_rejected: Callable[[bytes], None] | None = None,
        telemetry=None,
        policy=None,
        on_step_evicted: Callable[[bytes], None] | None = None,
    ):
        if max_txs_per_block <= 0:
            raise MarketError("max_txs_per_block must be positive")
        self.chain = chain
        self.wallet = wallet
        self.ledger = ledger
        # ``verify(groups, settle)`` checks one sealed block's
        # signature groups (one per order) and calls
        # ``settle(verdicts)`` within this same simulated instant.  The
        # market binds it to the shared VerifyAggregator, which merges
        # them with every other block sealing at the same boundary (one
        # multi-exp for the whole market instant).
        self.verify = verify
        self.max_txs_per_block = max_txs_per_block
        self.on_order_rejected = on_order_rejected
        # Telemetry hook (repro.telemetry.Telemetry or None): seals
        # report their occupancy and leftover depth; strictly
        # observational, one attribute check when off.
        self.telemetry = telemetry
        # Replication hook: when set and returning False, sealing is
        # deferred (the shard has no live leader).  The replication
        # layer calls :meth:`kick` when leadership resumes — the
        # mempool never polls a closed gate, so a dead shard costs no
        # simulator events.
        self.seal_gate: Callable[[], bool] | None = None
        # Sealing policy (repro.market.fees.SealPolicy) or None for
        # the historical FIFO drain.  Eviction (base-fee policy only)
        # reports the step's deal to ``on_step_evicted`` so the
        # coordinator can settle it as fee-priced-out.
        self.policy = policy
        self.on_step_evicted = on_step_evicted
        self._pending: deque[_PendingStep] = deque()
        self._seq = 0
        self._seal_scheduled = False
        self.stats = {
            "submitted": 0,
            "sealed": 0,
            "dropped": 0,
            "seals": 0,
            "orders_cleared": 0,
            "orders_rejected": 0,
            "max_depth": 0,
        }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        tx: Transaction,
        deal_id: bytes,
        order: SignedDealOrder | None = None,
    ) -> None:
        """Queue a deal step; registrations carry their signed order."""
        self._pending.append(_PendingStep(tx, deal_id, order, self._seq))
        self._seq += 1
        self.stats["submitted"] += 1
        if len(self._pending) > self.stats["max_depth"]:
            self.stats["max_depth"] = len(self._pending)
        self._ensure_seal_scheduled()

    def _ensure_seal_scheduled(self) -> None:
        if self._seal_scheduled:
            return
        self._seal_scheduled = True
        interval = self.chain.block_interval
        now = self.chain.simulator.now
        # Seal on the half-grid so sealed steps make the very next block.
        seal_at = (int(now / interval) + 0.5) * interval
        if seal_at <= now:
            seal_at += interval
        self.chain.simulator.schedule_at(
            seal_at, self._seal, label=f"{self.chain.chain_id}/mempool-seal"
        )

    # ------------------------------------------------------------------
    # Sealing (whole-block signature checking)
    # ------------------------------------------------------------------
    def _seal(self) -> None:
        self._seal_scheduled = False
        telemetry = self.telemetry
        if self.seal_gate is not None and not self.seal_gate():
            # Leaderless: hold every pending step until kick().
            self.stats["seals_deferred"] = self.stats.get("seals_deferred", 0) + 1
            if telemetry is not None:
                telemetry.mempool_gated(self.chain.chain_id)
            return
        cap = self.max_txs_per_block
        if self.policy is None:
            # FIFO: drain the left of the deque, O(cap) per seal
            # whatever the backlog, batch identical to the historical
            # list slice.
            pending = self._pending
            batch = [pending.popleft() for _ in range(min(cap, len(pending)))]
        else:
            batch, leftover, evicted = self.policy.select(
                list(self._pending), cap
            )
            self._pending = deque(leftover)
            if evicted:
                self.stats["fee_evicted"] = (
                    self.stats.get("fee_evicted", 0) + len(evicted)
                )
                if self.on_step_evicted is not None:
                    for step in evicted:
                        self.on_step_evicted(step.deal_id)
        self.stats["seals"] += 1
        if telemetry is not None:
            telemetry.mempool_seal(
                self.chain.chain_id, len(batch), len(self._pending)
            )
            for step in batch:
                if step.order is not None:
                    telemetry.deal_event(
                        step.deal_id, "seal-register",
                        chain=self.chain.chain_id,
                    )

        new_orders: dict[bytes, SignedDealOrder] = {}
        for step in batch:
            if step.order is not None and step.deal_id not in self.ledger.cleared:
                new_orders.setdefault(step.deal_id, step.order)
        if new_orders:
            self._clear_orders(list(new_orders.values()), batch)
        else:
            self._dispatch(batch)
        if self._pending:
            self._ensure_seal_scheduled()

    def _dispatch(self, batch: list[_PendingStep]) -> None:
        """Flow the sealed steps of cleared deals to the chain."""
        for step in batch:
            if step.deal_id in self.ledger.cleared:
                self.chain.submit(step.tx)
                self.stats["sealed"] += 1
            else:
                self.stats["dropped"] += 1

    def _clear_orders(
        self, orders: list[SignedDealOrder], batch: list[_PendingStep]
    ) -> None:
        """Verify every order newly referenced in this seal batch.

        Structural rejections happen immediately; every sound order's
        signatures form one group, and the block's groups go to
        ``self.verify`` (the market's shared :class:`VerifyAggregator`,
        so every block sealing at this boundary shares a single
        multi-exponentiation).  The verdicts land — and the sealed
        steps flow to the chain — at this same simulated instant,
        strictly before the next block executes.
        """
        sound: list[SignedDealOrder] = []
        groups: list[list] = []
        for order in orders:
            keys = self._expected_keys(order)
            if keys is None or not quorum_structure_ok(
                keys, len(order.parties), order.signatures
            ):
                self._reject(order)
                continue
            message = order_message(order.deal_id, order.fee_bid)
            sound.append(order)
            groups.append(
                [(entry.public_key, message, entry.signature)
                 for entry in order.signatures]
            )
        if not sound:
            self._dispatch(batch)
            return

        def settle(verdicts: list[bool]) -> None:
            for order, ok in zip(sound, verdicts):
                self._record(order, ok)
            self._dispatch(batch)

        self.verify(groups, settle)

    def _expected_keys(self, order: SignedDealOrder):
        try:
            return tuple(self.wallet.public_key(party) for party in order.parties)
        except ReproError:
            return None

    def _record(self, order: SignedDealOrder, ok: bool) -> None:
        if ok:
            self.ledger.cleared.add(order.deal_id)
            self.stats["orders_cleared"] += 1
        else:
            self._reject(order)

    def _reject(self, order: SignedDealOrder) -> None:
        self.ledger.rejected.add(order.deal_id)
        self.stats["orders_rejected"] += 1
        if self.on_order_rejected is not None:
            self.on_order_rejected(order.deal_id)

    def kick(self) -> None:
        """Resume sealing after the seal gate reopens (failover done)."""
        if self._pending:
            self._ensure_seal_scheduled()

    @property
    def depth(self) -> int:
        """Steps currently waiting to be sealed."""
        return len(self._pending)
