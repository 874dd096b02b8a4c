"""The market runtime: a thin coordinator over per-shard runtimes.

This module is the carve of the old 1,200-line scheduler god-object
into an explicit, message-passing architecture:

* :class:`ShardRuntime` — owns exactly one shard's state: its chains,
  :class:`~repro.market.mempool.StepMempool`\\ s and its
  :class:`~repro.market.commitlog.MarketCommitLog`.  A runtime never
  reaches into another shard; everything it does is a reaction to a
  typed message.
* :class:`MarketCoordinator` — the thin coordinator: admission, the
  deal phase engine (receipt routing), and reporting.  It talks to
  the runtimes *only* through the frozen payload types of
  :mod:`repro.market.messages`, wrapped in
  :class:`~repro.sim.network.Envelope` and carried by a
  :class:`~repro.sim.network.LocalBus`.

Signature verification is not a message plane.  In the paper a check
is contract work of the chain that executes the step (§7), so each
mempool hands its sealed block's batch straight to the market's one
:class:`~repro.consensus.validators.VerifyAggregator`, tagged with the
owner shard; the verdict lands in a flush later in the same simulated
instant.  ``VerifyAggregator.verify_many`` is the single seam an
execution backend (:mod:`repro.market.backends`) may replace.

Messages are exchanged on simulated time over a synchronous bus: all
messages for tick *t* are delivered before any runtime advances past
*t*, on either backend.

**Chaos hardening.**  A :class:`~repro.sim.chaos.ChaosPlan` in the
config is handed whole to the two message planes: the bus becomes a
:class:`~repro.sim.network.ChaosBus`, the replication layer storms its
delta network, and both heal losses with the one
:class:`~repro.sim.network.Retransmitter`.  Exactly-once is the
transport's job — no handler below ever sees a duplicate.  Chaos off
constructs the plain bus and schedules nothing extra, so default runs
stay byte-identical.

The report type lives in :mod:`repro.market.report`, the deal state
machine's types in :mod:`repro.market.protocols`; the public entry
point is :func:`repro.market.open_market`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.chain.contracts import Contract
from repro.chain.ledger import Chain
from repro.chain.tokens import FungibleToken, NonFungibleToken
from repro.chain.tx import Receipt, Transaction
from repro.consensus.bft import CertifiedBlockchain
from repro.consensus.validators import ValidatorSet, VerifyAggregator
from repro.core.deal import (
    PROTOCOL_CBC,
    PROTOCOL_TIMELOCK,
    PROTOCOL_UNANIMITY,
    DealSpec,
)
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.errors import MarketError
from repro.market.book import MarketEscrowBook
from repro.market.commitlog import MarketCommitLog
from repro.market.fees import FeeLedger, make_seal_policy
from repro.market.invariants import check_market_invariants
from repro.market.mempool import OrderLedger, StepMempool
from repro.market.messages import (
    BlockReceipts,
    CrossShardEscrowOp,
    DealDecided,
    Envelope,
    SubmitOrder,
    VoteFanout,
)
from repro.market.order import SignedDealOrder, shard_of_deal
from repro.market.protocols import (
    CbcDealDriver,
    DealPhase,
    TimelockDealDriver,
    _DealRun,
)
from repro.market.replication import ReplicationLayer
from repro.market.report import MarketReport, _percentile
from repro.sim.network import ChaosBus, LocalBus
from repro.sim.simulator import Simulator

BOOK_CONTRACT = "market-book"
COMMIT_LOG_CONTRACT = "market-commitlog"

_ABORT_RETRY_LIMIT = 5

COORDINATOR_ENDPOINT = "coordinator"

# Byzantine tolerance of each shard's CBC (3f+1 validators).
_CBC_F = 1
# Block batches one VerifyAggregator flush folds into a single
# multi-exponentiation.
_VERIFY_MAX_BLOCKS = 8
# Δ of the dedicated replication network (delta shipping + acks), and
# the detection delay before a crashed leader's shard fails over.
_REPLICATION_DELTA = 0.4
_FAILOVER_TIMEOUT = 2.0


def shard_endpoint(shard: int) -> str:
    """The bus endpoint name of one shard's runtime."""
    return f"shard-{shard}"


@dataclass
class MarketConfig:
    """Knobs of one market run (all times in simulator ticks)."""

    block_interval: float = 1.0
    patience: float = 60.0
    max_txs_per_block: int = 512
    max_events: int = 20_000_000
    # Re-check every conservation invariant after every block (O(state)
    # per block — for tests, not for 5000-deal runs).
    check_invariants_per_block: bool = False
    # §5 deadline unit Δ for timelock deals.  A direct (path length 1)
    # vote must execute before t0 + Δ; the market pipeline needs ~3
    # block intervals from registration to the vote block, so Δ must
    # comfortably exceed that plus any mempool backlog.
    timelock_delta: float = 8.0
    # Replication (repro.market.replication): each shard becomes a
    # replica group of this size.  The layer is only constructed when
    # factor > 1 or a fault plan is supplied, so the default market
    # runs byte-identical to the unreplicated layout.
    replication_factor: int = 1
    # A repro.sim.faults.FaultPlan: message faults install on the
    # replication network, ReplicaCrash/ReplicaRecover process faults
    # install on the replication layer.
    fault_plan: object | None = None
    # A repro.sim.chaos.ChaosPlan, or None.  An active market policy
    # swaps the plain LocalBus for a ChaosBus (seeded chaos +
    # at-least-once delivery); an active replication policy storms the
    # delta network and makes delta shipping acknowledged.  None (or
    # an all-zero plan) constructs the exact chaos-free objects.
    chaos: object | None = None
    # Block-space economics (repro.market.fees): how every mempool
    # sells its block slots.  "fifo" keeps the historical drain with
    # zero fee machinery constructed (make_seal_policy returns None),
    # so default reports are byte-identical to a build without fees;
    # "first_price" seals highest-bid-first; "base_fee" runs the
    # EIP-1559-style per-chain controller.
    seal_policy: str = "fifo"
    # Heterogeneous block space: {shard: max_txs_per_block} overrides.
    # Chains of a listed shard seal at that cap; every other chain
    # keeps the global max_txs_per_block.  None means homogeneous.
    shard_block_caps: dict | None = None
    # A repro.telemetry.Telemetry instance (one per run), or None.
    # Telemetry is strictly observational — it draws no randomness,
    # schedules no events, and mutates no market state — so report
    # bytes are identical either way; every instrumentation site in
    # the runtime guards on ``telemetry is not None`` (one attribute
    # check on the off path).
    telemetry: object | None = None


class ShardRuntime:
    """One shard's state and its message handlers.

    Owns the shard's chains (home/coordinator chain first), their
    step mempools and the shard's commit log.  The coordinator never
    submits a transaction to a shard's mempool directly: everything
    arrives as a typed envelope through :meth:`handle`, and everything
    the shard observes (sealed-block receipts) leaves as a
    :class:`~repro.market.messages.BlockReceipts` envelope back to the
    coordinator.
    """

    def __init__(self, market: "MarketCoordinator", shard: int):
        self.market = market
        self.shard = shard
        self.home_chain_id = market.shard_home_chain[shard]
        self.chains: dict[str, Chain] = {}
        self.mempools: dict[str, StepMempool] = {}
        self.commit_log: MarketCommitLog | None = None

    # ------------------------------------------------------------------
    # Construction (driven by the coordinator, in global chain order so
    # the simulator's event heap is byte-identical to the historical
    # single-object layout)
    # ------------------------------------------------------------------
    def add_chain(self, chain_id: str) -> Chain:
        """Build one of this shard's chains and its market plumbing."""
        market = self.market
        workload, config = market.workload, market.config
        chain = Chain(
            chain_id, market.simulator, market.wallet,
            block_interval=config.block_interval,
        )
        self.chains[chain_id] = chain
        market.chains[chain_id] = chain
        token = FungibleToken(workload.tokens[chain_id])
        chain.publish(token)
        market.tokens[chain_id] = token
        nft_name = getattr(workload, "nft_tokens", {}).get(chain_id)
        if nft_name is not None:
            nft_token = NonFungibleToken(nft_name)
            chain.publish(nft_token)
            market.nft_tokens[chain_id] = nft_token
        book = MarketEscrowBook(BOOK_CONTRACT, market.coordinator.address)
        chain.publish(book)
        market.books[chain_id] = book
        # Per-shard heterogeneous block space: a shard listed in
        # shard_block_caps seals all its chains at that cap.  The
        # sealing policy is per chain (base-fee state never leaks
        # across chains); "fifo" yields None and the historical drain.
        # Signature batches go straight to the market's aggregator,
        # tagged with this shard as their owner.
        caps = config.shard_block_caps or {}
        mempool = StepMempool(
            chain,
            market.wallet,
            market.order_ledger,
            verify=partial(market.verify_aggregator.enqueue, owner=self.shard),
            max_txs_per_block=caps.get(self.shard, config.max_txs_per_block),
            on_order_rejected=market._on_order_rejected,
            telemetry=market.telemetry,
            policy=make_seal_policy(config, market.fee_ledger),
            on_step_evicted=market._on_step_evicted,
        )
        self.mempools[chain_id] = mempool
        market.mempools[chain_id] = mempool
        chain.subscribe(self._on_block)
        return chain

    def install_commit_log(self, name: str, shards: int) -> MarketCommitLog:
        """Publish this shard's commit log on its home chain."""
        log = MarketCommitLog(
            name, self.market.coordinator.address, shard=self.shard, shards=shards
        )
        self.chains[self.home_chain_id].publish(log)
        self.commit_log = log
        return log

    # ------------------------------------------------------------------
    # Outbound: sealed blocks flow back to the coordinator
    # ------------------------------------------------------------------
    def _on_block(self, chain: Chain, block) -> None:
        self.market.bus.post(
            shard_endpoint(self.shard),
            COORDINATOR_ENDPOINT,
            self.shard,
            BlockReceipts(
                chain_id=chain.chain_id,
                height=block.height,
                receipts=tuple(block.receipts),
            ),
        )

    # ------------------------------------------------------------------
    # Inbound: the coordinator's typed messages
    # ------------------------------------------------------------------
    # Causal deferral: under a reordering bus, a step transaction can
    # land before the per-deal escrow contract it targets has been
    # published.  The runtime parks such messages and retries on a
    # short cadence; a message that never becomes deliverable (its
    # publish lost with the deal) is abandoned after the cap and the
    # deal resolves through the ordinary patience timeout.
    _DEFER_INTERVAL = 0.5
    _DEFER_LIMIT = 200

    def handle(self, envelope: Envelope) -> None:
        """Dispatch one coordinator envelope to the owning machinery."""
        self._dispatch(envelope.payload, 0)

    def _dispatch(self, message, deferrals: int) -> None:
        if isinstance(message, SubmitOrder):
            self._handle_submit_order(message)
        elif isinstance(message, VoteFanout):
            if not self.chains[message.chain_id].has_contract(
                message.tx.contract
            ):
                self._defer(message, deferrals)
                return
            self.mempools[message.chain_id].submit(message.tx, message.deal_id)
        elif isinstance(message, CrossShardEscrowOp):
            if message.op == "publish":
                self.chains[message.chain_id].publish(message.contract)
            else:
                if not self.chains[message.chain_id].has_contract(
                    message.tx.contract
                ):
                    self._defer(message, deferrals)
                    return
                self.mempools[message.chain_id].submit(
                    message.tx, message.deal_id
                )
        elif isinstance(message, DealDecided):
            self._handle_decided(message)
        else:  # pragma: no cover - vocabulary is closed
            raise MarketError(
                f"shard {self.shard}: unknown message {type(message).__name__}"
            )

    def _defer(self, message, deferrals: int) -> None:
        stats = self.market.bus.stats
        if deferrals >= self._DEFER_LIMIT:
            stats["defer_abandoned"] = stats.get("defer_abandoned", 0) + 1
            return
        stats["deferred"] = stats.get("deferred", 0) + 1
        self.market.simulator.schedule(
            self._DEFER_INTERVAL,
            lambda: self._dispatch(message, deferrals + 1),
            label=f"shard{self.shard}/defer",
        )

    def _handle_submit_order(self, message: SubmitOrder) -> None:
        order = message.order
        self.mempools[self.home_chain_id].submit(
            Transaction(
                sender=self.market.coordinator.address,
                contract=self.commit_log.name,
                method="register",
                args={"deal_id": message.deal_id, "parties": order.spec.parties},
                phase="market/register",
            ),
            message.deal_id,
            order=order,
        )

    def _handle_decided(self, message: DealDecided) -> None:
        self.mempools[message.chain_id].submit(
            Transaction(
                sender=self.market.coordinator.address,
                contract=BOOK_CONTRACT,
                method=message.method,
                args={"deal_id": message.deal_id},
                phase=f"market/{message.method}-claim",
            ),
            message.deal_id,
        )


class MarketCoordinator:
    """Build one market and run a workload of concurrent deals on it.

    The coordinator owns admission, the deal phase engine, and
    reporting; every shard-owned object lives in that shard's
    :class:`ShardRuntime`.  For compatibility with the historical
    ``DealScheduler`` surface (tests, invariants, telemetry,
    replication all navigate it), the coordinator also keeps merged
    read views — ``chains``, ``books``, ``mempools``, ``tokens``,
    ``commit_logs`` — over all shards; writes go through the bus.
    """

    def __init__(self, workload, config: MarketConfig | None = None):
        self.workload = workload
        self.config = config or MarketConfig()
        self.telemetry = self.config.telemetry
        self.simulator = Simulator()
        self.wallet = Wallet()
        self.coordinator = KeyPair.from_label(f"market-coordinator/{workload.seed}")
        self.wallet.register(self.coordinator)
        for keypair in workload.accounts.values():
            self.wallet.register(keypair)

        self.chains: dict[str, Chain] = {}
        self.tokens: dict[str, FungibleToken] = {}
        self.nft_tokens: dict[str, NonFungibleToken] = {}
        self.books: dict[str, MarketEscrowBook] = {}
        self.mempools: dict[str, StepMempool] = {}
        self.minted: dict[str, int] = {}  # chain_id -> total token supply
        self.nft_minted: dict[str, tuple] = {}  # chain_id -> ((tid, owner), ...)
        self.order_ledger = OrderLedger()
        # Fee market: bids posted at admission, charges and evictions
        # recorded by the sealing policies.  Always constructed (it is
        # a bare dict holder), but under "fifo" nothing ever touches it
        # — the policy objects are never built.
        self.fee_ledger = FeeLedger()
        self.runs: dict[bytes, _DealRun] = {}
        self._receipts_seen = 0
        self._receipts_reverted = 0
        # Per-deal escrow contracts (timelock/CBC): contract name ->
        # (deal_id, asset_id) for receipt routing, and the published
        # contracts per chain so the conservation invariants can count
        # their token holdings.
        self._escrow_index: dict[str, tuple[bytes, str]] = {}
        self.deal_escrows: dict[str, list[Contract]] = {
            chain_id: [] for chain_id in workload.chain_ids
        }
        self.stats = {"timelock_refund_sweeps": 0, "stale_proofs_rejected": 0}
        # One verify aggregator for the whole market: every mempool
        # sealing at a boundary contributes its block's signature batch
        # and the flush — later in the same simulated instant — pays a
        # single merged multi-exponentiation for all of them.
        self.verify_aggregator = VerifyAggregator(
            schedule=lambda callback: self.simulator.schedule_at(
                self.simulator.now, callback, label="market/verify-flush"
            ),
            max_blocks=_VERIFY_MAX_BLOCKS,
        )
        self.verify_aggregator.telemetry = self.telemetry
        # The processes backend's verify pool (None inline), plugged
        # into verify_aggregator.verify_many; kept here only as
        # kill_worker's target.
        self.verifier = None
        # Protocol-safety breaches observed directly by the drivers
        # (e.g. a stale proof accepted) — merged into the report's
        # invariant violations.
        self.protocol_violations: list[str] = []
        # One certified blockchain per shard, created on demand (CBC
        # deals of shard s resolve against cbcs[s] and nothing else).
        self.cbcs: dict[int, CertifiedBlockchain] = {}
        self._cbc_drivers: dict[int, list[CbcDealDriver]] = {}

        if len(workload.chain_ids) < 1:
            raise MarketError("a market needs at least one chain")
        self.shards = int(getattr(workload, "shards", 1) or 1)
        if self.shards < 1:
            raise MarketError("a market needs at least one shard")
        if self.shards > len(workload.chain_ids):
            raise MarketError(
                f"{self.shards} shards need at least that many chains "
                f"(got {len(workload.chain_ids)})"
            )
        # Chain i belongs to shard i % M; shard s's home (coordinator)
        # chain is chain_ids[s], which carries that shard's commit log
        # and therefore its order flow.
        self.chain_shard = {
            chain_id: index % self.shards
            for index, chain_id in enumerate(workload.chain_ids)
        }
        self.shard_home_chain = {
            shard: workload.chain_ids[shard] for shard in range(self.shards)
        }
        # The message plane: one synchronous bus, one endpoint per
        # shard runtime plus the coordinator.
        # An active chaos plan swaps in the ChaosBus (seeded hazards +
        # at-least-once delivery); the structural branch keeps the
        # chaos-off path byte-identical by construction.
        chaos = self.config.chaos
        if chaos is not None and chaos.market_active:
            self.bus = ChaosBus(
                self.simulator, chaos, seed=f"{workload.seed}/{chaos.seed}"
            )
        else:
            self.bus = LocalBus(self.simulator)
        self.bus.register(COORDINATOR_ENDPOINT, self._on_envelope)
        self.runtimes: dict[int, ShardRuntime] = {}
        for shard in range(self.shards):
            runtime = ShardRuntime(self, shard)
            self.runtimes[shard] = runtime
            self.bus.register(shard_endpoint(shard), runtime.handle)
        # Chains are created in the workload's global order (not shard
        # by shard): chain construction seeds the simulator's event
        # heap, and heap order is part of the byte-identity contract
        # with the historical single-object scheduler.
        for chain_id in workload.chain_ids:
            self.runtimes[self.chain_shard[chain_id]].add_chain(chain_id)
        self.coordinator_chain_id = workload.chain_ids[0]
        # One commit log per shard, on the shard's home chain.  Shard
        # 0 keeps the historical contract name so an unsharded market
        # is byte-identical to the pre-sharding layout.
        self.commit_logs: dict[int, MarketCommitLog] = {}
        self._commitlog_shards: dict[str, int] = {}
        for shard in range(self.shards):
            name = (
                COMMIT_LOG_CONTRACT if shard == 0
                else f"{COMMIT_LOG_CONTRACT}-s{shard}"
            )
            log = self.runtimes[shard].install_commit_log(name, self.shards)
            self.commit_logs[shard] = log
            self._commitlog_shards[name] = shard
        self.commit_log = self.commit_logs[0]
        self._fund_accounts()
        # Replication is strictly additive: the layer only exists when
        # asked for, and with no crash faults it adds no market-visible
        # behaviour (separate network, separate rng stream, gates that
        # never close) — the E16 fingerprint equivalence test holds the
        # runtime to that.
        self.replication: ReplicationLayer | None = None
        plan = self.config.fault_plan
        if self.config.replication_factor > 1 or (
            plan is not None and getattr(plan, "faults", ())
        ):
            self.replication = ReplicationLayer(
                self,
                factor=self.config.replication_factor,
                delta=_REPLICATION_DELTA,
                failover_timeout=_FAILOVER_TIMEOUT,
                # An active replication policy storms the delta network
                # and makes shipping acknowledged (resent until acked).
                chaos=chaos,
            )
            if plan is not None:
                plan.install(self.replication.network)
                plan.install_processes(self.replication)
        if plan is not None and getattr(plan, "faults", ()):
            # Worker-level faults (WorkerKill) are scheduled whatever
            # the backend, keeping the event heap identical inline and
            # pooled; kill_worker is inert without a pool.
            plan.install_workers(self)
        # Telemetry attaches last so the BlockTap's chain subscriptions
        # run after the runtimes' own (observer order is registration
        # order — the tap reads what the phase engine already routed).
        if self.telemetry is not None:
            self.telemetry.attach(self)

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def home_shard(self, deal_id: bytes) -> int:
        """The shard whose coordinator chain owns this deal.

        Hashed once per deal at admission and cached on the run
        (``run.home_shard``); the submit paths below take the cached
        value rather than re-deriving it.
        """
        return shard_of_deal(deal_id, self.shards)

    @property
    def cbc(self) -> CertifiedBlockchain | None:
        """Shard 0's certified blockchain (back-compat accessor)."""
        return self.cbcs.get(0)

    # ------------------------------------------------------------------
    # The message plane (coordinator side)
    # ------------------------------------------------------------------
    def _post(self, shard: int, payload: object) -> None:
        self.bus.post(COORDINATOR_ENDPOINT, shard_endpoint(shard), shard, payload)

    def submit_vote(self, chain_id: str, tx: Transaction, deal_id: bytes) -> None:
        """Fan one vote (or abort mark) out to the owning shard."""
        self._post(
            self.chain_shard[chain_id],
            VoteFanout(deal_id=deal_id, chain_id=chain_id, tx=tx),
        )

    def submit_escrow_op(
        self, chain_id: str, tx: Transaction, deal_id: bytes, op: str
    ) -> None:
        """Route one escrow-plane step to the asset chain's shard."""
        self._post(
            self.chain_shard[chain_id],
            CrossShardEscrowOp(deal_id=deal_id, chain_id=chain_id, op=op, tx=tx),
        )

    def _on_envelope(self, envelope: Envelope) -> None:
        """Inbound shard traffic: sealed-block receipts."""
        message = envelope.payload
        if isinstance(message, BlockReceipts):
            self._handle_block_receipts(message)
        else:  # pragma: no cover - vocabulary is closed
            raise MarketError(
                f"coordinator: unknown message {type(message).__name__}"
            )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _setup_tx(self, chain: Chain, sender: Address, contract: str,
                  method: str, **args) -> None:
        receipt = chain.execute_now(Transaction(
            sender=sender, contract=contract, method=method,
            args=args, phase="market/setup",
        ))
        if not receipt.ok:  # pragma: no cover - setup must succeed
            raise MarketError(f"setup failed: {receipt.error}")

    def _fund_accounts(self) -> None:
        """Mint and deposit every account's session balance (setup-time).

        ``book_fund_fraction`` of each balance goes into the escrow
        book (backing unanimity deals); the rest stays in the wallet,
        where timelock/CBC deals escrow it into per-deal contracts.
        Non-fungible tokens are minted per the workload's manifest and
        funded into the book's custody (deposit-once).  Funding runs
        before the first simulator event, outside the message plane —
        it is setup, not market traffic.
        """
        fraction = getattr(self.workload, "book_fund_fraction", 1.0)
        for chain_id in self.workload.chain_ids:
            chain = self.chains[chain_id]
            token = self.tokens[chain_id]
            book = self.books[chain_id]
            total = 0
            for address in self.workload.accounts:
                balance = self.workload.initial_balance
                book_amount = int(balance * fraction)
                total += balance
                self._setup_tx(chain, address, token.name, "mint",
                               to=address, amount=balance)
                if book_amount > 0:
                    self._setup_tx(chain, address, token.name, "approve",
                                   spender=book.address, amount=book_amount)
                    self._setup_tx(chain, address, BOOK_CONTRACT, "fund",
                                   token=token.name, amount=book_amount)
            self.minted[chain_id] = total
            nft_token = self.nft_tokens.get(chain_id)
            if nft_token is None:
                continue
            minted = tuple(getattr(self.workload, "nft_minted", {}).get(chain_id, ()))
            self.nft_minted[chain_id] = minted
            for token_id, owner in minted:
                self._setup_tx(chain, owner, nft_token.name, "mint",
                               to=owner, token_id=token_id)
                self._setup_tx(chain, owner, nft_token.name, "approve",
                               spender=book.address, token_id=token_id)
                self._setup_tx(chain, owner, BOOK_CONTRACT, "fund_nft",
                               token=nft_token.name, token_id=token_id)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> MarketReport:
        """Admit every order at its arrival time and run to quiescence."""
        for order in self.workload.orders():
            self.simulator.schedule_at(
                order.arrival,
                lambda order=order: self._admit(order),
                label="market/arrival",
            )
        self.simulator.run(max_events=self.config.max_events)
        if self.replication is not None:
            self.replication.finish(self.simulator.now)
        if self.telemetry is not None:
            self.telemetry.finalize(self)
        return self._report()

    def kill_worker(self, worker: int, mode: str) -> None:
        """``WorkerKill``'s target: fell one verify-pool worker."""
        if self.verifier is not None:
            self.verifier.kill_worker(worker, mode)

    def _admit(self, order: SignedDealOrder) -> None:
        spec = order.spec
        deal_id = spec.deal_id
        if deal_id in self.runs:
            raise MarketError(f"duplicate deal id for order #{order.index}")
        run = _DealRun(order=order)
        run.opens_expected = len(spec.assets)
        run.transfers_expected = len(spec.steps)
        run.claim_chains = spec.chains()
        run.home_shard = self.home_shard(deal_id)
        touched = {
            self.chain_shard.get(chain_id, run.home_shard)
            for chain_id in run.claim_chains
        }
        touched.add(run.home_shard)
        run.cross_shard = len(touched) > 1
        self.runs[deal_id] = run
        # The co-signed fee bid enters the ledger at admission; the
        # mempool sealing policies look it up per step.  A zero bid
        # (every FIFO-era order) records nothing.
        self.fee_ledger.post(deal_id, order.fee_bid)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.deal_admitted(run, self.simulator.now)
        if not self._admissible(spec):
            run.phase = DealPhase.REJECTED
            run.reason = "malformed"
            run.finished_at = self.simulator.now
            if telemetry is not None:
                telemetry.deal_finished(run, run.finished_at)
            return
        if spec.protocol == PROTOCOL_TIMELOCK:
            run.driver = TimelockDealDriver(self, run)
        elif spec.protocol == PROTOCOL_CBC:
            run.driver = CbcDealDriver(self, run)
            self._cbc_drivers.setdefault(run.home_shard, []).append(run.driver)
        self._post(run.home_shard, SubmitOrder(deal_id=deal_id, order=order))
        if spec.protocol != PROTOCOL_TIMELOCK:
            # Timelock deals need no patience timer: their own terminal
            # deadline (t0 + N·Δ) already guarantees termination.
            run.patience_handle = self.simulator.schedule(
                self.config.patience,
                lambda: self._on_patience(run),
                label="market/patience",
            )

    def _admissible(self, spec: DealSpec) -> bool:
        if not spec.assets:
            return False
        for asset in spec.assets:
            if asset.chain_id not in self.chains:
                return False
            if asset.fungible:
                if asset.token != self.tokens[asset.chain_id].name:
                    return False
            else:
                # NFT escrows live in the book: unanimity only.
                if spec.protocol != PROTOCOL_UNANIMITY:
                    return False
                nft_token = self.nft_tokens.get(asset.chain_id)
                if nft_token is None or asset.token != nft_token.name:
                    return False
        return spec.is_well_formed()

    # ------------------------------------------------------------------
    # Services for the protocol drivers
    # ------------------------------------------------------------------
    def keypair_for(self, party: Address) -> KeyPair:
        """The keypair of a market account (drivers sign votes with it)."""
        return self.workload.accounts[party]

    def publish_deal_escrow(
        self, chain_id: str, contract: Contract, deal_id: bytes, asset_id: str
    ) -> None:
        """Publish a per-deal escrow contract and index it for routing."""
        self._post(
            self.chain_shard[chain_id],
            CrossShardEscrowOp(
                deal_id=deal_id, chain_id=chain_id, op="publish",
                contract=contract, asset_id=asset_id,
            ),
        )
        self._escrow_index[contract.name] = (deal_id, asset_id)
        self.deal_escrows[chain_id].append(contract)

    def ensure_cbc(self, shard: int = 0) -> CertifiedBlockchain:
        """Create one shard's certified blockchain on demand.

        Each shard's CBC has its own validator set and log; a proof
        extracted from one shard's CBC carries that shard's validator
        signatures and is rejected by every escrow bound to another
        shard's keys (the wrong-shard replay defence).  Shard 0 keeps
        the unsharded market's name and validator seed.
        """
        cbc = self.cbcs.get(shard)
        if cbc is None:
            suffix = "" if shard == 0 else f"-s{shard}"
            validators = ValidatorSet.generate(
                _CBC_F,
                seed=f"market-cbc{suffix}/{self.workload.seed}",
            )
            cbc = CertifiedBlockchain(
                self.simulator, validators, self.wallet,
                block_interval=self.config.block_interval,
                name=f"market-cbc{suffix}",
            )
            cbc.subscribe(
                lambda _cbc, _block, shard=shard: self._on_cbc_block(shard)
            )
            self.cbcs[shard] = cbc
        return cbc

    def _on_cbc_block(self, shard: int) -> None:
        # Prune settled deals as we go so each CBC block only touches
        # the in-flight CBC runs of its own shard, not the whole
        # market history.
        survivors = []
        for driver in self._cbc_drivers.get(shard, ()):
            if driver.run.terminal:
                continue
            driver.on_cbc_block()
            if not driver.run.terminal:
                survivors.append(driver)
        self._cbc_drivers[shard] = survivors

    # ------------------------------------------------------------------
    # Receipt routing (the phase engine)
    # ------------------------------------------------------------------
    def _handle_block_receipts(self, message: BlockReceipts) -> None:
        chain = self.chains[message.chain_id]
        for receipt in message.receipts:
            self._receipts_seen += 1
            if not receipt.ok:
                self._receipts_reverted += 1
            self._route(chain, receipt)
        if self.config.check_invariants_per_block:
            violations = check_market_invariants(self)
            if violations:
                raise MarketError(
                    f"conservation violated at block {message.height} of "
                    f"{message.chain_id}: {violations[0]}"
                )

    def _route(self, chain: Chain, receipt: Receipt) -> None:
        escrow_ref = self._escrow_index.get(receipt.tx.contract)
        if escrow_ref is not None:
            deal_id, asset_id = escrow_ref
            run = self.runs.get(deal_id)
            if run is None or run.terminal or run.driver is None:
                return
            run.driver.on_escrow_receipt(asset_id, receipt)
            return
        if (
            receipt.tx.contract != BOOK_CONTRACT
            and receipt.tx.contract not in self._commitlog_shards
        ):
            return  # token transfers etc. are not deal phase steps
        deal_id = receipt.tx.args.get("deal_id")
        run = self.runs.get(deal_id)
        if run is None or run.terminal:
            return
        method = receipt.tx.method
        if method == "register":
            self._on_register(run, receipt)
        elif method == "open":
            self._on_open(run, receipt)
        elif method == "transfer":
            self._on_transfer(run, receipt)
        elif method in ("vote", "mark_abort"):
            self._on_log_receipt(run, receipt)
        elif method in ("commit", "abort"):
            self._on_claim(run, chain, receipt)

    def _on_register(self, run: _DealRun, receipt: Receipt) -> None:
        if not receipt.ok:
            self.finish(run, DealPhase.REJECTED, "register-reverted",
                        receipt.executed_at)
            return
        if run.driver is not None:
            # Timelock/CBC deals: the order cleared signature checks at
            # this block; hand the deal to its protocol driver.
            run.driver.on_registered(receipt)
            return
        run.phase = DealPhase.ESCROW
        if self.telemetry is not None:
            self.telemetry.deal_phase(run, "escrow", receipt.executed_at)
        spec = run.order.spec
        for asset in spec.assets:
            if asset.owner in run.order.no_show:
                continue  # adversarial owner: never escrows
            args = {
                "deal_id": spec.deal_id,
                "asset_id": asset.asset_id,
                "token": asset.token,
                "parties": spec.parties,
            }
            if asset.fungible:
                args["amount"] = asset.amount
            else:
                args["token_ids"] = asset.token_ids
            self.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=asset.owner,
                    contract=BOOK_CONTRACT,
                    method="open",
                    args=args,
                    phase="market/escrow",
                ),
                spec.deal_id,
                op="open",
            )

    def _on_open(self, run: _DealRun, receipt: Receipt) -> None:
        if not receipt.ok:
            if run.decided is not None or run.abort_requested:
                # A straggler open bouncing off an already-settled deal
                # (e.g. after a patience abort) is not a conflict.
                return
            # Escrow conflict: another deal already holds the funds.
            run.conflict = True
            self._request_abort(run, "conflict")
            return
        run.opens_done += 1
        if run.phase is DealPhase.ESCROW and run.opens_done == run.opens_expected:
            run.phase = DealPhase.TRANSFER
            if self.telemetry is not None:
                self.telemetry.deal_phase(run, "transfer", receipt.executed_at)
            if run.transfers_expected == 0:
                self._start_voting(run)
            else:
                self._submit_transfers(run)

    def _submit_transfers(self, run: _DealRun) -> None:
        spec = run.order.spec
        for step in spec.steps:
            asset = spec.asset(step.asset_id)
            args = {
                "deal_id": spec.deal_id,
                "asset_id": step.asset_id,
                "to": step.receiver,
            }
            if asset.fungible:
                args["amount"] = step.amount
            else:
                args["token_ids"] = step.token_ids
            self.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=step.giver,
                    contract=BOOK_CONTRACT,
                    method="transfer",
                    args=args,
                    phase="market/transfer",
                ),
                spec.deal_id,
                op="transfer",
            )

    def _on_transfer(self, run: _DealRun, receipt: Receipt) -> None:
        if not receipt.ok:
            self._request_abort(run, "transfer-failed")
            return
        run.transfers_done += 1
        if (
            run.phase is DealPhase.TRANSFER
            and run.transfers_done == run.transfers_expected
        ):
            self._start_voting(run)

    def _start_voting(self, run: _DealRun) -> None:
        run.phase = DealPhase.VOTING
        if self.telemetry is not None:
            self.telemetry.deal_phase(run, "voting", self.simulator.now)
        deal_id = run.order.deal_id
        home_chain = self.shard_home_chain[run.home_shard]
        for party in run.order.voters():
            self.submit_vote(
                home_chain,
                Transaction(
                    sender=party,
                    contract=self.commit_logs[run.home_shard].name,
                    method="vote",
                    args={"deal_id": deal_id},
                    phase="market/commit",
                ),
                deal_id,
            )

    def _on_log_receipt(self, run: _DealRun, receipt: Receipt) -> None:
        if not receipt.ok:
            # A mark_abort can only revert because the registration has
            # not landed yet or because the deal is already decided; in
            # the latter case the decision receipt precedes this one (the
            # log's state changed first), so ``decided`` is already set
            # and no retry fires.  No error-message inspection needed.
            if (
                receipt.tx.method == "mark_abort"
                and run.decided is None
                and run.abort_retries < _ABORT_RETRY_LIMIT
            ):
                run.abort_retries += 1
                run.abort_requested = False
                self.simulator.schedule(
                    2 * self.config.block_interval,
                    lambda: self._request_abort(run, run.reason or "timeout"),
                    label="market/abort-retry",
                )
            return  # a vote losing the race with an abort mark is benign
        for event in receipt.events:
            if event.name == "DealDecided":
                self._on_decided(run, event.fields["outcome"], receipt.executed_at)

    def _request_abort(self, run: _DealRun, reason: str) -> None:
        if run.abort_requested or run.decided is not None or run.terminal:
            return
        run.abort_requested = True
        if not run.reason:
            run.reason = reason
        self.submit_vote(
            self.shard_home_chain[run.home_shard],
            Transaction(
                sender=self.coordinator.address,
                contract=self.commit_logs[run.home_shard].name,
                method="mark_abort",
                args={"deal_id": run.order.deal_id},
                phase="market/abort",
            ),
            run.order.deal_id,
        )

    def _on_decided(self, run: _DealRun, outcome: str, at: float) -> None:
        if run.decided is not None:
            return
        run.decided = outcome
        run.phase = DealPhase.SETTLING
        if self.telemetry is not None:
            self.telemetry.deal_phase(run, "settling", at)
        method = "commit" if outcome == "commit" else "abort"
        # One DealDecided per claim chain, in spec order: cross-shard
        # claim interleavings stay exactly what they were when the
        # scheduler submitted to the mempools directly.
        for chain_id in run.claim_chains:
            self._post(
                self.chain_shard[chain_id],
                DealDecided(
                    deal_id=run.order.deal_id, chain_id=chain_id, method=method
                ),
            )

    def _on_claim(self, run: _DealRun, chain: Chain, receipt: Receipt) -> None:
        if not receipt.ok:
            return  # duplicate claim after the deal settled: benign
        run.settled_chains.add(chain.chain_id)
        if set(run.claim_chains) <= run.settled_chains:
            if run.decided == "commit":
                # A patience/abort request that lost the race with the
                # deciding vote leaves a stale reason; the deal committed.
                self.finish(run, DealPhase.COMMITTED, "", receipt.executed_at)
            else:
                self.finish(run, DealPhase.ABORTED, run.reason,
                            receipt.executed_at)

    def _on_patience(self, run: _DealRun) -> None:
        if run.terminal or run.decided is not None:
            return
        if run.driver is not None:
            run.driver.on_patience()
            return
        self._request_abort(run, "timeout")

    def _on_order_rejected(self, deal_id: bytes) -> None:
        run = self.runs.get(deal_id)
        if run is None or run.terminal:
            return
        self.finish(run, DealPhase.REJECTED, "forged", self.simulator.now)

    def _on_step_evicted(self, deal_id: bytes) -> None:
        """A base-fee mempool evicted one of the deal's steps.

        Eviction only happens when the bid sits below the base-fee
        floor, and a deal that ever cleared registration under the
        base-fee policy bid at least the ceiling of the register-time
        base fee (>= the floor) — so in practice only registration
        steps are evicted and the deal dies here with nothing on any
        chain.  That makes the direct abort below safe: there are no
        escrows to unwind.  Should a later step ever be evicted (a
        policy with different eligibility rules), the deal is only
        *marked* priced-out and the ordinary patience/deadline
        machinery still terminates and refunds it — the settlement
        phases are fee-exempt by construction.
        """
        run = self.runs.get(deal_id)
        if run is None or run.terminal:
            return
        run.priced_out = True
        self.fee_ledger.price_out(deal_id)
        if self.telemetry is not None:
            self.telemetry.deal_event(deal_id, "fee-priced-out")
        if run.phase is DealPhase.REGISTERING:
            self.finish(run, DealPhase.ABORTED, "priced-out", self.simulator.now)

    def finish(self, run: _DealRun, phase: DealPhase, reason: str, at: float) -> None:
        run.phase = phase
        run.reason = reason
        run.finished_at = at
        if run.patience_handle is not None:
            run.patience_handle.cancel()
            run.patience_handle = None
        if self.telemetry is not None:
            self.telemetry.deal_finished(run, at)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self) -> MarketReport:
        committed = aborted = rejected = stuck = conflicts = timeouts = 0
        cross_shard_deals = cross_shard_committed = 0
        commit_latencies: list[float] = []
        outcome_log = []
        per_protocol: dict[str, dict] = {}
        for run in self.runs.values():
            if run.cross_shard:
                cross_shard_deals += 1
                if run.phase is DealPhase.COMMITTED:
                    cross_shard_committed += 1
            latency = (
                run.finished_at - run.order.arrival
                if run.finished_at is not None
                else -1.0
            )
            outcome_log.append(
                (run.order.index, run.protocol, run.phase.value, run.reason, latency)
            )
            bucket = per_protocol.setdefault(
                run.protocol,
                {"committed": 0, "aborted": 0, "rejected": 0, "latencies": []},
            )
            if run.phase is DealPhase.COMMITTED:
                committed += 1
                commit_latencies.append(latency)
                bucket["committed"] += 1
                bucket["latencies"].append(latency)
            elif run.phase is DealPhase.ABORTED:
                aborted += 1
                bucket["aborted"] += 1
            elif run.phase is DealPhase.REJECTED:
                rejected += 1
                bucket["rejected"] += 1
            else:
                stuck += 1
            if run.conflict:
                conflicts += 1
            if run.phase is DealPhase.ABORTED and run.reason == "timeout":
                timeouts += 1
        commit_latencies.sort()
        outcome_log.sort()
        protocol_rows = []
        for protocol in sorted(per_protocol):
            bucket = per_protocol[protocol]
            latencies = sorted(bucket["latencies"])
            protocol_rows.append((
                protocol, bucket["committed"], bucket["aborted"],
                bucket["rejected"],
                _percentile(latencies, 0.50),
                _percentile(latencies, 0.90),
                _percentile(latencies, 0.99),
            ))
        end_time = self.simulator.now
        # The replication/fault rows exist only when the layer ran (a
        # fault plan with faults always constructs it); otherwise the
        # report keeps MarketReport's field defaults.
        replicated = {}
        if self.replication is not None:
            replicated = self.replication.report_fields(end_time)
            if self.config.fault_plan is not None:
                replicated["fault_stats"] = tuple(
                    tuple(sorted(row.items()))
                    for row in self.config.fault_plan.stats()
                )
        return MarketReport(
            deals=len(self.runs),
            committed=committed,
            aborted=aborted,
            rejected=rejected,
            stuck=stuck,
            conflicts=conflicts,
            timeouts=timeouts,
            latency_p50=_percentile(commit_latencies, 0.50),
            latency_p90=_percentile(commit_latencies, 0.90),
            latency_p99=_percentile(commit_latencies, 0.99),
            end_time=end_time,
            deals_per_kilotick=(committed / end_time * 1000.0) if end_time else 0.0,
            chains=len(self.chains),
            blocks=sum(len(chain.blocks) - 1 for chain in self.chains.values()),
            txs_executed=self._receipts_seen,
            txs_reverted=self._receipts_reverted,
            max_mempool_depth=max(
                pool.stats["max_depth"] for pool in self.mempools.values()
            ),
            events_processed=self.simulator.events_processed,
            invariant_violations=tuple(
                self.protocol_violations + check_market_invariants(self)
            ),
            outcome_log=tuple(outcome_log),
            per_protocol=tuple(protocol_rows),
            stale_proofs_rejected=self.stats["stale_proofs_rejected"],
            timelock_refund_sweeps=self.stats["timelock_refund_sweeps"],
            verify_stats=tuple(sorted(self.verify_aggregator.stats.items())),
            shards=self.shards,
            cross_shard_deals=cross_shard_deals,
            cross_shard_committed=cross_shard_committed,
            **replicated,
            sore_losers=sum(1 for run in self.runs.values() if run.sore_loser),
            bus_stats=tuple(sorted(self.bus.stats.items())),
            seal_policy=self.config.seal_policy,
            fee_priced_out=sum(
                1 for run in self.runs.values() if run.priced_out
            ),
            fees_accrued=self.fee_ledger.accrued,
            fee_stats=tuple(sorted(
                (name, sum(
                    pool.stats.get(name, 0) for pool in self.mempools.values()
                ))
                for name in ("fee_evicted",)
                if any(name in pool.stats for pool in self.mempools.values())
            )),
        )

