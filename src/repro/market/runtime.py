"""The market coordinator and its configuration.

:class:`MarketCoordinator` does four things and nothing per-protocol:

* **admits** an order — a malformed one is rejected on the spot (the
  only run that never gets a driver); any other gets the
  :class:`~repro.market.protocols.DealDriver` its protocol names in
  :data:`~repro.market.protocols.DRIVERS` and is sent to its home
  shard for registration;
* **routes** every receipt of every sealed block to *its deal's
  driver* (:meth:`MarketCoordinator._route`) — the phase logic of
  unanimity, timelock and CBC all lives behind that one interface in
  :mod:`repro.market.protocols`;
* handles the **cross-protocol events**: a forged order, a
  fee-evicted step, a reverted registration, and
  :meth:`MarketCoordinator.finish`;
* **reports** (:mod:`repro.market.report`).

Every shard's chains, mempools and commit log live in that shard's
:class:`~repro.market.shard.ShardRuntime`.  The coordinator writes to
them *only* through three frozen payload types of
:mod:`repro.market.messages` — ``SubmitOrder``, ``PublishEscrow``,
``SubmitStep`` — wrapped in :class:`~repro.sim.network.Envelope` and
carried by a :class:`~repro.sim.network.LocalBus`; sealed blocks come
back as ``BlockReceipts``.  The bus is synchronous on simulated time:
all messages for tick *t* are delivered before anything advances past
*t*, on either backend.

Signature verification is not a message plane.  In the paper a check
is contract work of the chain that executes the step (§7), so each
mempool hands its sealed block's signature groups (one per order)
straight to its simulator's one
:class:`~repro.chain.ledger.VerifyAggregator`, tagged with the owner
shard; the verdicts land in a flush later in the same simulated
instant.  ``VerifyAggregator.verify_many`` is the single seam an
execution backend (:mod:`repro.market.backends`) may replace.

**Chaos hardening.**  A :class:`~repro.sim.chaos.ChaosPlan` in the
config is handed whole to the two message planes: the bus becomes a
:class:`~repro.sim.network.ChaosBus`, the replication layer storms its
delta network, and both heal losses with the one
:class:`~repro.sim.network.Retransmitter`.  Exactly-once, in-order
delivery per chain is the transport's job — no handler ever sees a
duplicate, or a step ahead of the contract or step it follows.  Chaos
off constructs the plain bus and schedules nothing extra, so default
runs stay byte-identical.

The public entry point is :func:`repro.market.open_market`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.contracts import Contract
from repro.chain.ledger import Chain, VerifyAggregator
from repro.chain.tokens import FungibleToken, NonFungibleToken
from repro.chain.tx import Receipt, Transaction
from repro.consensus.bft import CertifiedBlockchain
from repro.consensus.validators import ValidatorSet
from repro.core.deal import PROTOCOL_UNANIMITY, DealSpec
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.errors import MarketError
from repro.market.book import BOOK_CONTRACT, MarketEscrowBook
from repro.market.commitlog import MarketCommitLog
from repro.market.fees import FeeLedger
from repro.market.invariants import check_market_invariants
from repro.market.mempool import OrderLedger, StepMempool
from repro.market.messages import (
    BlockReceipts,
    PublishEscrow,
    SubmitOrder,
    SubmitStep,
)
from repro.market.order import SignedDealOrder, shard_of_deal
from repro.market.protocols import DRIVERS, CbcDealDriver, DealPhase, _DealRun
from repro.market.replication import ReplicationLayer
from repro.market.report import MarketReport
from repro.market.shard import COORDINATOR_ENDPOINT, ShardRuntime, shard_endpoint
from repro.sim.network import ChaosBus, Envelope, LocalBus
from repro.sim.simulator import Simulator
from repro.telemetry.metrics import DealOutcome, tally

# Byzantine tolerance of each shard's CBC (3f+1 validators).
_CBC_F = 1
# Every market chain and CBC seals one block per tick, and a run that
# processes more simulator events than this raises (an event loop).
_BLOCK_INTERVAL = 1.0
_MAX_EVENTS = 20_000_000
# Δ of the dedicated replication network (delta shipping + acks), and
# the detection delay before a crashed leader's shard fails over.
_REPLICATION_DELTA = 0.4
_FAILOVER_TIMEOUT = 2.0


@dataclass
class MarketConfig:
    """Knobs of one market run (all times in simulator ticks)."""

    patience: float = 60.0
    max_txs_per_block: int = 512
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
    # A repro.sim.faults.FaultPlan, installed once on the replication
    # network with the coordinator as host: message effects filter
    # that network, replica and worker actions run on the coordinator.
    fault_plan: object | None = None
    # A repro.sim.chaos.ChaosPlan, or None.  An active market policy
    # swaps the plain LocalBus for a ChaosBus (seeded chaos +
    # at-least-once delivery); an active replication policy storms the
    # delta network and makes delta shipping acknowledged.  None (or
    # an all-zero plan) constructs the exact chaos-free objects.
    chaos: object | None = None
    # Block-space economics (repro.market.fees): how every mempool
    # sells its block slots.  "fifo" seals in arrival order and charges
    # nothing; "first_price" seals highest-bid-first; "base_fee" runs
    # the EIP-1559-style per-chain controller.
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


class MarketCoordinator:
    """Build one market and run a workload of concurrent deals on it.

    The coordinator owns admission, receipt routing, the
    cross-protocol events and reporting; each deal's phase logic lives
    in its :class:`~repro.market.protocols.DealDriver`, every
    shard-owned object in that shard's
    :class:`~repro.market.shard.ShardRuntime`.  The coordinator also
    keeps merged read views — ``chains``, ``books``, ``mempools``,
    ``tokens``, ``commit_logs`` — over all shards (drivers, tests,
    invariants, telemetry and replication navigate them); writes go
    through the bus.
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
        # recorded by the sealing policies (FIFO charges nothing).
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
        # The simulator's one verify aggregator: every mempool sealing
        # at a boundary contributes its block's signature groups and the
        # flush — later in the same simulated instant — pays a single
        # merged multi-exponentiation for all of them.
        self.verify_aggregator = VerifyAggregator.of(self.simulator)
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
        self.shards = workload.shards
        if self.shards < 1:
            raise MarketError("a market needs at least one shard")
        if self.shards > len(workload.chain_ids):
            raise MarketError(
                f"{self.shards} shards need at least that many chains "
                f"(got {len(workload.chain_ids)})"
            )
        caps = self.config.shard_block_caps or {}
        if strays := [shard for shard in caps if shard not in range(self.shards)]:
            raise MarketError(f"shard_block_caps: {strays} not among {self.shards} shards")
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
        # heap, so heap order does not depend on the shard count.
        for chain_id in workload.chain_ids:
            self.runtimes[self.chain_shard[chain_id]].add_chain(
                chain_id, _BLOCK_INTERVAL
            )
        # One commit log per shard, on the shard's home chain.
        self.commit_logs: dict[int, MarketCommitLog] = {}
        self._commitlog_shards: dict[str, int] = {}
        for shard in range(self.shards):
            log = self.runtimes[shard].install_commit_log()
            self.commit_logs[shard] = log
            self._commitlog_shards[log.name] = shard
        self._fund_accounts()
        # Replication is strictly additive: the layer only exists when
        # asked for, and with no crash faults it adds no market-visible
        # behaviour (separate network, separate rng stream, gates that
        # never close) — the E16 fingerprint equivalence test holds the
        # runtime to that.
        self.replication: ReplicationLayer | None = None
        plan = self.config.fault_plan
        if self.config.replication_factor > 1 or (
            plan is not None and plan.faults
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
                # The coordinator hosts every action, whatever the
                # backend, so the event heap is identical inline and
                # pooled (kill_worker is inert without a pool).
                plan.install(self.replication.network, self)
        if self.telemetry is not None:
            self.telemetry.attach(self)

    # ------------------------------------------------------------------
    # The message plane (coordinator side)
    # ------------------------------------------------------------------
    def _post(self, chain_id: str, payload: object) -> None:
        """Send ``payload`` down ``chain_id``'s stream to its shard."""
        self.bus.post(
            COORDINATOR_ENDPOINT,
            shard_endpoint(self.chain_shard[chain_id]),
            chain_id,
            payload,
        )

    def submit_step(self, chain_id: str, tx: Transaction, deal_id: bytes) -> None:
        """Route one deal step to the mempool of ``chain_id``'s shard."""
        self._post(chain_id, SubmitStep(deal_id=deal_id, chain_id=chain_id, tx=tx))

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
        fraction = self.workload.book_fund_fraction
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
            minted = tuple(self.workload.nft_minted.get(chain_id, ()))
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
        self.simulator.run(max_events=_MAX_EVENTS)
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
        run.claim_chains = spec.chains()
        # Hashed once per deal; everything downstream reads the run.
        run.home_shard = shard_of_deal(deal_id, self.shards)
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
        run.driver = DRIVERS[spec.protocol](self, run)
        self._post(
            self.shard_home_chain[run.home_shard],
            SubmitOrder(deal_id=deal_id, order=order),
        )
        if run.driver.arms_patience:
            run.patience_handle = self.simulator.schedule(
                self.config.patience,
                run.driver.on_patience,
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
        self._post(chain_id, PublishEscrow(chain_id=chain_id, contract=contract))
        self._escrow_index[contract.name] = (deal_id, asset_id)
        self.deal_escrows[chain_id].append(contract)

    def ensure_cbc(self, shard: int = 0) -> CertifiedBlockchain:
        """Create one shard's certified blockchain on demand.

        Each shard's CBC has its own validator set and log; a proof
        extracted from one shard's CBC carries that shard's validator
        signatures and is rejected by every escrow bound to another
        shard's keys (the wrong-shard replay defence).
        """
        cbc = self.cbcs.get(shard)
        if cbc is None:
            name = f"market-cbc-s{shard}"
            validators = ValidatorSet.generate(
                _CBC_F, seed=f"{name}/{self.workload.seed}"
            )
            cbc = CertifiedBlockchain(
                self.simulator, validators, self.wallet,
                block_interval=_BLOCK_INTERVAL, name=name,
            )
            cbc.subscribe(
                lambda _cbc, _block, shard=shard: self._on_cbc_block(shard)
            )
            self.cbcs[shard] = cbc
        return cbc

    def watch_cbc(self, shard: int, driver: CbcDealDriver) -> None:
        """Call ``driver.on_cbc_block`` after each of the shard's CBC
        blocks until its deal is terminal (in admission order)."""
        self._cbc_drivers.setdefault(shard, []).append(driver)

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
    # Receipt routing: every receipt goes to its deal's driver
    # ------------------------------------------------------------------
    def _handle_block_receipts(self, message: BlockReceipts) -> None:
        for receipt in message.receipts:
            self._receipts_seen += 1
            if not receipt.ok:
                self._receipts_reverted += 1
            self._route(receipt)
        if self.config.check_invariants_per_block:
            violations = check_market_invariants(self)
            if violations:
                raise MarketError(
                    f"conservation violated at block {message.height} of "
                    f"{message.chain_id}: {violations[0]}"
                )

    def _route(self, receipt: Receipt) -> None:
        tx = receipt.tx
        escrow_ref = self._escrow_index.get(tx.contract)
        if escrow_ref is not None:
            deal_id, asset_id = escrow_ref
        elif tx.contract == BOOK_CONTRACT or tx.contract in self._commitlog_shards:
            deal_id, asset_id = tx.args.get("deal_id"), ""
        else:
            return  # token transfers etc. are not deal phase steps
        run = self.runs.get(deal_id)
        if run is None or run.terminal:
            return
        if tx.method != "register":
            run.driver.on_escrow_receipt(asset_id, receipt)
        elif receipt.ok:
            # The order cleared signature checks at this block.
            run.driver.on_registered(receipt)
        else:
            self.finish(run, DealPhase.REJECTED, "register-reverted",
                        receipt.executed_at)

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
        outcome_log = []
        deals = []
        for run in self.runs.values():
            latency = (
                run.finished_at - run.order.arrival
                if run.finished_at is not None
                else -1.0
            )
            entry = (run.order.index, run.protocol, run.phase.value, run.reason, latency)
            outcome_log.append(entry)
            deals.append(DealOutcome(
                *entry[1:], run.conflict, run.cross_shard, run.sore_loser
            ))
        outcome_log.sort()
        counts = tally(deals)
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
            **counts,
            end_time=end_time,
            deals_per_kilotick=(
                counts["committed"] / end_time * 1000.0 if end_time else 0.0
            ),
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
            stale_proofs_rejected=self.stats["stale_proofs_rejected"],
            timelock_refund_sweeps=self.stats["timelock_refund_sweeps"],
            verify_stats=tuple(sorted(self.verify_aggregator.stats.items())),
            shards=self.shards,
            **replicated,
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

