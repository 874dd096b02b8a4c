"""The market runtime: a thin coordinator over per-shard runtimes.

This module is the carve of the old 1,200-line scheduler god-object
into an explicit, message-passing architecture:

* :class:`ShardRuntime` — owns exactly one shard's state: its chains,
  :class:`~repro.market.mempool.StepMempool`\\ s, escrow books, its
  :class:`~repro.market.commitlog.MarketCommitLog`, its certified
  blockchain and (when replicated) its replica group.  A runtime
  never reaches into another shard; everything it does is a reaction
  to a typed message.
* :class:`MarketCoordinator` — the thin coordinator: admission, the
  deal phase engine (receipt routing), and reporting.  It talks to
  the runtimes *only* through the frozen payload types of
  :mod:`repro.market.messages`, wrapped in
  :class:`~repro.sim.network.Envelope` and carried by a
  :class:`~repro.sim.network.LocalBus`.
* :class:`VerifyService` — the verification plane: per-seal signature
  batches travel as ``SealBatch`` messages keyed ``(chain_id, seq)``
  into the shared :class:`~repro.consensus.validators.VerifyAggregator`.
* :class:`ExecutionBackend` — where the run executes.
  :class:`InlineBackend` runs everything in-process (byte-identical
  to the historical scheduler).  :class:`ProcessBackend` runs the same
  single coordinator and moves only the signature checks — ~90% of a
  run's wall-clock, all behind ``VerifyAggregator.verify_many`` — to
  a pool of one forked worker per shard; a worker that dies or hangs
  is dropped and its batches are verified in the parent, so no market
  state ever lives outside this process.

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

The public entry point is :func:`repro.market.open_market`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.tables import render_table
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
from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.crypto.schnorr import (
    batch_verify as schnorr_batch_verify,
    batch_verify_many as schnorr_batch_verify_many,
)
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
    SealBatch,
    SubmitOrder,
    VoteFanout,
)
from repro.market.order import SignedDealOrder, shard_of_deal
from repro.market.protocols import CbcDealDriver, DealDriver, TimelockDealDriver
from repro.market.replication import ReplicationLayer
from repro.sim.network import ChaosBus, LocalBus
from repro.sim.simulator import Simulator

BOOK_CONTRACT = "market-book"
COMMIT_LOG_CONTRACT = "market-commitlog"

_ABORT_RETRY_LIMIT = 5

COORDINATOR_ENDPOINT = "coordinator"
VERIFY_ENDPOINT = "verify"

# Byzantine tolerance of each shard's CBC (3f+1 validators).
_CBC_F = 1
# Block batches one VerifyAggregator flush folds into a single
# multi-exponentiation.
_VERIFY_MAX_BLOCKS = 8
# Δ of the dedicated replication network (delta shipping + acks), and
# the detection delay before a crashed leader's shard fails over.
_REPLICATION_DELTA = 0.4
_FAILOVER_TIMEOUT = 2.0
# Wall-clock seconds a verify-pool worker may sit on one request
# before the pool declares it hung.
_STALL_TIMEOUT = 30.0


def shard_endpoint(shard: int) -> str:
    """The bus endpoint name of one shard's runtime."""
    return f"shard-{shard}"


class DealPhase(Enum):
    """Lifecycle of one deal inside the market."""

    REGISTERING = "registering"
    ESCROW = "escrow"
    TRANSFER = "transfer"
    VOTING = "voting"
    SETTLING = "settling"
    COMMITTED = "committed"
    ABORTED = "aborted"
    REJECTED = "rejected"


_TERMINAL = {DealPhase.COMMITTED, DealPhase.ABORTED, DealPhase.REJECTED}


@dataclass
class _DealRun:
    """Coordinator-internal state machine for one deal."""

    order: SignedDealOrder
    phase: DealPhase = DealPhase.REGISTERING
    opens_expected: int = 0
    opens_done: int = 0
    transfers_expected: int = 0
    transfers_done: int = 0
    decided: str | None = None
    abort_requested: bool = False
    abort_retries: int = 0
    conflict: bool = False
    reason: str = ""
    claim_chains: tuple[str, ...] = ()
    settled_chains: set = field(default_factory=set)
    finished_at: float | None = None
    # §5 sore loser: a timelock deal whose escrows settled non-uniformly
    # (released on one chain, refunded at deadline on another).  Only
    # crash-gated sealing can produce it; fault-free runs treat it as
    # an invariant violation.
    sore_loser: bool = False
    # Fee market: a base-fee mempool evicted one of the deal's steps
    # (its co-signed bid can never clear the base-fee floor).  A
    # measured outcome like sore losers, never a safety violation.
    priced_out: bool = False
    patience_handle: object = None
    # Sharding: the deal's home shard (where it registers and votes)
    # and whether its escrows straddle books owned by other shards.
    home_shard: int = 0
    cross_shard: bool = False
    # Timelock/CBC runs delegate their phase logic to a protocol driver
    # (repro.market.protocols); unanimity runs keep driver = None.
    driver: DealDriver | None = None

    @property
    def protocol(self) -> str:
        return self.order.spec.protocol

    @property
    def terminal(self) -> bool:
        return self.phase in _TERMINAL


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
    # Cross-block verify aggregation: merge the order-signature batches
    # of every block sealing at one boundary into a single
    # multi-exponentiation.  Wall-clock only — verdicts land at the
    # same simulated instant, so decisions and reports are byte
    # identical; the off switch exists for the equivalence tests that
    # prove exactly that.
    verify_aggregation: bool = True
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


@dataclass
class MarketReport:
    """The observable outcome of one market run (simulation units only)."""

    deals: int
    committed: int
    aborted: int
    rejected: int
    stuck: int
    conflicts: int
    timeouts: int
    latency_p50: float
    latency_p90: float
    latency_p99: float
    end_time: float
    deals_per_kilotick: float
    chains: int
    blocks: int
    txs_executed: int
    txs_reverted: int
    max_mempool_depth: int
    events_processed: int
    invariant_violations: tuple[str, ...] = ()
    outcome_log: tuple = ()
    # (protocol, committed, aborted, rejected, p50, p90, p99) rows,
    # one per protocol present in the workload, sorted by protocol.
    per_protocol: tuple = ()
    stale_proofs_rejected: int = 0
    timelock_refund_sweeps: int = 0
    # Sorted (name, count) rows from the market's VerifyAggregator —
    # deterministic simulation counters, but deliberately outside
    # render() and fingerprint() so toggling aggregation can never
    # change report bytes.  The E16 benchmark surfaces them in its own
    # aggregation table and in BENCH_market.json.
    verify_stats: tuple = ()
    # Sharding: how many coordinator shards the market ran with, and
    # how many deals straddled books owned by more than one shard.
    # Rendered only when shards > 1, so unsharded reports stay
    # byte-identical to the pre-sharding market.
    shards: int = 1
    cross_shard_deals: int = 0
    cross_shard_committed: int = 0
    # Replication/fault axis (PR 6): rendered only when the layer ran
    # and did something, so fault-free unreplicated reports keep their
    # exact bytes.  replication_stats mirrors verify_stats: sorted
    # counter rows, deliberately outside render() and fingerprint().
    replication_factor: int = 1
    faults_injected: int = 0
    recoveries: int = 0
    failovers: int = 0
    availability: float = 1.0
    replication_stats: tuple = ()
    # Fault/network observability (rendered inside the same gated
    # block): per-fault rows from FaultPlan.stats() — each a tuple of
    # sorted (name, value) items — and the replication network's
    # delivery counters.  Empty on fault-free unreplicated runs, so
    # those reports keep their exact bytes.
    fault_stats: tuple = ()
    network_stats: tuple = ()
    # §5 sore losers: timelock deals whose escrows settled mixed
    # (released here, deadline-refunded there) because crash faults
    # gated sealing mid-deal.  Always 0 in fault-free runs, where a
    # mixed settlement is an invariant violation instead.
    sore_losers: int = 0
    # Shard-bus delivery counters (sorted rows, outside render() and
    # fingerprint() like verify_stats): how many typed envelopes the
    # coordinator and runtimes exchanged.  Observability only.
    bus_stats: tuple = ()
    # Fee market (PR 10): the sealing policy the run priced block
    # space with, how many deals it priced out of the market entirely
    # (a measured outcome, like sore losers), and the fee units the
    # sealed traffic paid.  Rendered only under a non-FIFO policy, so
    # default reports keep their exact bytes; fee_stats mirrors
    # verify_stats (sorted counter rows outside render/fingerprint).
    seal_policy: str = "fifo"
    fee_priced_out: int = 0
    fees_accrued: int = 0
    fee_stats: tuple = ()

    @property
    def abort_rate(self) -> float:
        """Aborted fraction of all terminally settled deals."""
        settled = self.committed + self.aborted
        return self.aborted / settled if settled else 0.0

    @property
    def cross_shard_fraction(self) -> float:
        """Cross-shard slice of all spawned deals."""
        return self.cross_shard_deals / self.deals if self.deals else 0.0

    @property
    def sore_loser_rate(self) -> float:
        """Sore-loser slice of all terminally settled deals."""
        settled = self.committed + self.aborted
        return self.sore_losers / settled if settled else 0.0

    def aggregator_merge_rate(self) -> float:
        """Fraction of enqueued block batches that merged with others.

        The measurable sharding win at the verify layer: with one
        order-carrying shard this is exactly 0.0; with M shards
        sealing on the same boundary it approaches (M-1)/M.
        """
        stats = dict(self.verify_stats)
        batches = stats.get("batches", 0)
        return stats.get("merged_batches", 0) / batches if batches else 0.0

    def committed_by_protocol(self) -> dict[str, int]:
        """Committed deal count per protocol (empty rows omitted)."""
        return {row[0]: row[1] for row in self.per_protocol}

    def protocol_outcome_rows(self, include_p90: bool = True) -> list[list]:
        """The per-protocol rows, formatted for a render_table call.

        The single place that knows the ``per_protocol`` tuple layout —
        both the report's own table and the E16 benchmark table build
        on it.
        """
        rows = []
        for protocol, committed, aborted, rejected, p50, p90, p99 in self.per_protocol:
            row = [protocol, committed, aborted, rejected, f"{p50:.2f}"]
            if include_p90:
                row.append(f"{p90:.2f}")
            row.append(f"{p99:.2f}")
            rows.append(row)
        return rows

    def fingerprint(self) -> str:
        """A digest of every deal's outcome — the determinism witness."""
        parts = [b"repro/market/report"]
        for index, protocol, outcome, reason, latency in self.outcome_log:
            parts.append(
                f"{index}:{protocol}:{outcome}:{reason}:{latency:.9f}".encode("utf-8")
            )
        return tagged_hash("repro/market/fingerprint", b"|".join(parts)).hex()[:32]

    def render(self) -> str:
        """Paper-style summary table (deterministic bytes)."""
        rows = [
            ["deals spawned", self.deals],
            ["committed", self.committed],
            ["aborted", self.aborted],
            ["rejected (forged orders)", self.rejected],
            ["stuck (non-terminal)", self.stuck],
            ["escrow conflicts", self.conflicts],
            ["patience timeouts", self.timeouts],
            ["stale proofs rejected", self.stale_proofs_rejected],
            ["abort rate", f"{self.abort_rate:.1%}"],
            ["commit latency p50 (ticks)", f"{self.latency_p50:.2f}"],
            ["commit latency p90 (ticks)", f"{self.latency_p90:.2f}"],
            ["commit latency p99 (ticks)", f"{self.latency_p99:.2f}"],
            ["horizon (chain ticks)", f"{self.end_time:.1f}"],
            ["throughput (deals / 1000 ticks)", f"{self.deals_per_kilotick:.1f}"],
            ["chains", self.chains],
        ]
        if self.shards > 1:
            rows += [
                ["coordinator shards", self.shards],
                ["cross-shard deals", self.cross_shard_deals],
                ["cross-shard committed", self.cross_shard_committed],
                ["cross-shard fraction", f"{self.cross_shard_fraction:.1%}"],
            ]
        if (
            self.replication_factor > 1
            or self.faults_injected
            or self.failovers
            or self.recoveries
        ):
            rows += [
                ["replication factor", self.replication_factor],
                ["replica crashes injected", self.faults_injected],
                ["failovers", self.failovers],
                ["recoveries", self.recoveries],
                ["availability", f"{self.availability:.3%}"],
                ["sore losers (mixed timelock)", self.sore_losers],
            ]
            if self.network_stats:
                net = dict(self.network_stats)
                rows += [
                    ["replication msgs delivered", net.get("delivered", 0)],
                    ["replication msgs dropped", net.get("dropped", 0)],
                    ["replication msgs delayed (faults)",
                     net.get("filter_delayed", 0)],
                ]
            if self.fault_stats:
                fired = dropped = duplicated = 0
                kinds: dict[str, int] = {}
                for row in self.fault_stats:
                    record = dict(row)
                    kind = record.get("kind", "?")
                    kinds[kind] = kinds.get(kind, 0) + 1
                    fired += record.get("crashes", 0)
                    fired += record.get("recoveries", 0)
                    fired += record.get("kills", 0)
                    dropped += record.get("dropped", 0)
                    duplicated += record.get("duplicated", 0)
                plan = ", ".join(
                    f"{kind} x{count}" for kind, count in sorted(kinds.items())
                )
                rows += [
                    ["fault plan", plan],
                    ["fault firings (crash+recover+kill)", fired],
                    ["fault msg drops", dropped],
                    ["fault msg dups", duplicated],
                ]
        bus = dict(self.bus_stats)
        if "chaos_dropped" in bus:
            # Only the ChaosBus carries these keys, so chaos-off
            # reports render byte-identically to a chaos-free build.
            rows += [
                ["chaos msgs dropped", bus["chaos_dropped"]],
                ["chaos msgs duplicated", bus["chaos_duplicated"]],
                ["chaos msgs delayed", bus["chaos_delayed"]],
                ["chaos msgs reordered", bus["chaos_reordered"]],
                ["at-least-once resends", bus["resends"]],
                ["duplicates suppressed", bus["dup_suppressed"]],
            ]
        if "deferred" in bus or "defer_abandoned" in bus:
            # Causal-deferral outcomes (reordering bus only): how many
            # early-arriving steps were parked, and how many hit the
            # retry cap and were abandoned to the patience timeout.
            # The keys only exist once a runtime actually deferred, so
            # in-order runs keep their exact bytes.
            rows += [
                ["escrow ops deferred (causal)", bus.get("deferred", 0)],
                ["escrow ops abandoned (defer cap)",
                 bus.get("defer_abandoned", 0)],
            ]
        if self.seal_policy != "fifo":
            fees = dict(self.fee_stats)
            rows += [
                ["sealing policy", self.seal_policy],
                ["deals fee-priced-out", self.fee_priced_out],
                ["fee units accrued", self.fees_accrued],
                ["steps fee-evicted", fees.get("fee_evicted", 0)],
            ]
        rows += [
            ["blocks produced", self.blocks],
            ["transactions executed", self.txs_executed],
            ["transactions reverted", self.txs_reverted],
            ["max mempool depth", self.max_mempool_depth],
            ["conservation violations", len(self.invariant_violations)],
            ["fingerprint", self.fingerprint()],
        ]
        table = render_table(["measure", "value"], rows, title="Market run")
        if len(self.per_protocol) <= 1:
            return table
        return table + "\n" + render_table(
            ["protocol", "committed", "aborted", "rejected",
             "p50 (ticks)", "p90 (ticks)", "p99 (ticks)"],
            self.protocol_outcome_rows(),
            title="Per-protocol outcomes",
        )


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class VerifyService:
    """The verification plane: seal batches in, verdicts out.

    Every mempool hands its per-seal merged signature batch here; the
    service assigns the batch its ``(chain_id, seq)`` key, posts it
    over the bus as a :class:`~repro.market.messages.SealBatch` (so
    the plane's traffic shows up in the bus delivery stats like every
    other message), and routes it into the shared
    :class:`~repro.consensus.validators.VerifyAggregator` — or, when
    aggregation is off, verifies it on the spot.  The settle callback
    is held out-of-band keyed by the batch key, because callbacks
    never cross a process boundary; the key is the whole wire
    identity, which is what lets the ``processes`` backend partition
    verification by the batch's owner shard.
    """

    def __init__(self, market: "MarketCoordinator"):
        self.market = market
        self._seq: dict[str, int] = {}
        self._settles: dict[tuple[str, int], object] = {}
        market.bus.register(VERIFY_ENDPOINT, self._on_envelope)

    def submit(self, chain_id: str, items: list, settle) -> None:
        """Queue one sealed block's signature batch for verification."""
        seq = self._seq.get(chain_id, 0) + 1
        self._seq[chain_id] = seq
        key = (chain_id, seq)
        self._settles[key] = settle
        shard = self.market.chain_shard[chain_id]
        self.market.bus.post(
            shard_endpoint(shard),
            VERIFY_ENDPOINT,
            shard,
            SealBatch(chain_id=chain_id, seq=seq, items=tuple(items)),
        )

    def _on_envelope(self, envelope: Envelope) -> None:
        batch: SealBatch = envelope.payload
        key = (batch.chain_id, batch.seq)
        settle = self._settles.pop(key, None)
        if settle is None:  # replayed batch already settled
            return
        owner = self.market.chain_shard[batch.chain_id]
        items = list(batch.items)
        aggregator = self.market.verify_aggregator
        if aggregator is not None:
            aggregator.enqueue(items, settle, key=key, owner=owner)
            return
        verifier = self.market.verifier
        if verifier is not None:
            settle(verifier.verify_one(key, owner, items))
        else:
            settle(schnorr_batch_verify(items))


class ShardRuntime:
    """One shard's state and its message handlers.

    Owns the shard's chains (home/coordinator chain first), fungible
    and NFT tokens, escrow books, step mempools, commit log, certified
    blockchain, and replica group.  The coordinator never submits a
    transaction to a shard's mempool directly: everything arrives as a
    typed envelope through :meth:`handle`, and everything the shard
    observes (sealed-block receipts) leaves as a
    :class:`~repro.market.messages.BlockReceipts` envelope back to the
    coordinator.
    """

    def __init__(self, market: "MarketCoordinator", shard: int):
        self.market = market
        self.shard = shard
        self.home_chain_id = market.shard_home_chain[shard]
        self.chains: dict[str, Chain] = {}
        self.tokens: dict[str, FungibleToken] = {}
        self.nft_tokens: dict[str, NonFungibleToken] = {}
        self.books: dict[str, MarketEscrowBook] = {}
        self.mempools: dict[str, StepMempool] = {}
        self.commit_log: MarketCommitLog | None = None
        self.cbc: CertifiedBlockchain | None = None
        self.replica_group = None  # set by the ReplicationLayer

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
        self.tokens[chain_id] = token
        market.tokens[chain_id] = token
        nft_name = getattr(workload, "nft_tokens", {}).get(chain_id)
        if nft_name is not None:
            nft_token = NonFungibleToken(nft_name)
            chain.publish(nft_token)
            self.nft_tokens[chain_id] = nft_token
            market.nft_tokens[chain_id] = nft_token
        book = MarketEscrowBook(BOOK_CONTRACT, market.coordinator.address)
        chain.publish(book)
        self.books[chain_id] = book
        market.books[chain_id] = book
        # Per-shard heterogeneous block space: a shard listed in
        # shard_block_caps seals all its chains at that cap.  The
        # sealing policy is per chain (base-fee state never leaks
        # across chains); "fifo" yields None and the historical drain.
        caps = config.shard_block_caps or {}
        mempool = StepMempool(
            chain,
            market.wallet,
            market.order_ledger,
            max_txs_per_block=caps.get(self.shard, config.max_txs_per_block),
            on_order_rejected=market._on_order_rejected,
            aggregator=market.verify_aggregator,
            telemetry=market.telemetry,
            verify_service=market.verify_service,
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
        self.verify_aggregator = (
            VerifyAggregator(
                schedule=lambda callback: self.simulator.schedule_at(
                    self.simulator.now, callback, label="market/verify-flush"
                ),
                max_blocks=_VERIFY_MAX_BLOCKS,
            )
            if self.config.verify_aggregation
            else None
        )
        if self.verify_aggregator is not None:
            self.verify_aggregator.telemetry = self.telemetry
        # The processes backend's verify pool (None inline): it takes
        # over the actual batch checks while keys and verdict routing
        # stay here.
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
        # shard runtime plus the coordinator and the verify service.
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
        self.verify_service = VerifyService(self)
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
            for shard, group in self.replication.groups.items():
                self.runtimes[shard].replica_group = group
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

    def _home_log(self, shard: int) -> MarketCommitLog:
        return self.commit_logs[shard]

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
            self.runtimes[shard].cbc = cbc
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
                    contract=self._home_log(run.home_shard).name,
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
                contract=self._home_log(run.home_shard).name,
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
            verify_stats=tuple(
                sorted(self.verify_aggregator.stats.items())
                if self.verify_aggregator is not None
                else ()
            ),
            shards=self.shards,
            cross_shard_deals=cross_shard_deals,
            cross_shard_committed=cross_shard_committed,
            replication_factor=(
                self.replication.factor if self.replication is not None else 1
            ),
            faults_injected=(
                self.replication.counters["crashes"]
                if self.replication is not None
                else 0
            ),
            recoveries=(
                self.replication.counters["recoveries"]
                if self.replication is not None
                else 0
            ),
            failovers=(
                self.replication.counters["failovers"]
                if self.replication is not None
                else 0
            ),
            availability=(
                self.replication.availability(end_time)
                if self.replication is not None
                else 1.0
            ),
            replication_stats=tuple(
                sorted(self.replication.stats().items())
                if self.replication is not None
                else ()
            ),
            fault_stats=tuple(
                tuple(sorted(row.items()))
                for row in (
                    self.config.fault_plan.stats()
                    if self.config.fault_plan is not None
                    and getattr(self.config.fault_plan, "faults", ())
                    else ()
                )
            ),
            network_stats=tuple(
                sorted(self.replication.network.stats.items())
                if self.replication is not None
                else ()
            ),
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


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Where a market run's work actually executes."""

    name = "?"

    def execute(self, handle: "MarketHandle") -> MarketReport:
        raise NotImplementedError


class InlineBackend(ExecutionBackend):
    """Everything in this process — the historical scheduler, exactly."""

    name = "inline"

    def execute(self, handle: "MarketHandle") -> MarketReport:
        return handle.market.run()


def _pool_worker(conn, parent_ends) -> None:
    """One verify worker: batch lists in, verdict lists out, until EOF."""
    # The fork copied the parent's pipe ends; EOF — the pool closing,
    # or the parent dying — only arrives once no copy is left open.
    for end in parent_ends:
        end.close()
    try:
        while True:
            conn.send(schnorr_batch_verify_many(conn.recv()))
    except (EOFError, OSError):
        pass


class _VerifyPool:
    """One forked verify worker per shard, behind ``verify_many``.

    Plugged into the coordinator's :class:`VerifyAggregator` (and the
    :class:`VerifyService`'s unaggregated path) as the verifier: each
    flush chunk is split by owner shard, every owner's batches go to
    that shard's worker in one request, and the verdicts come back in
    chunk order.  All requests of a chunk are sent before any reply is
    awaited, so the workers check their slices concurrently.

    The parent holds all market state, so a worker is disposable: one
    that died (pipe EOF / broken pipe) or sat on a request longer than
    ``_STALL_TIMEOUT`` is killed and dropped (``workers_lost``), and
    its batches — the request in flight included — are verified in the
    parent from then on (``inline_batches``).  Verdicts are the same
    either way, so a lost worker costs wall-clock and nothing else.
    """

    def __init__(self, workers: int, stats: dict):
        self.stats = stats
        context = multiprocessing.get_context("fork")
        self._workers: dict[int, tuple] = {}  # shard -> (pipe, process)
        for shard in range(workers):
            conn, child_conn = context.Pipe()
            parent_ends = [conn] + [end for end, _ in self._workers.values()]
            proc = context.Process(
                target=_pool_worker, args=(child_conn, parent_ends),
                name=f"market-verify-{shard}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers[shard] = (conn, proc)

    def verify_many(self, keyed: list) -> list:
        """Verdicts for ``[(key, owner, items), ...]``, in order."""
        slices: dict[int, tuple[list, list]] = {}  # owner -> positions, batches
        for position, (_, owner, items) in enumerate(keyed):
            positions, batches = slices.setdefault(owner, ([], []))
            positions.append(position)
            batches.append(items)
        for owner, (_, batches) in slices.items():
            self._send(owner, batches)
        verdicts: list = [None] * len(keyed)
        for owner, (positions, batches) in slices.items():
            answer = self._recv(owner)
            if answer is None:
                self.stats["inline_batches"] += len(batches)
                answer = schnorr_batch_verify_many(batches)
            for position, ok in zip(positions, answer):
                verdicts[position] = ok
        return verdicts

    def verify_one(self, key, owner: int, items: list) -> bool:
        """The non-aggregated path: one batch, same ownership rule."""
        return self.verify_many([(key, owner, items)])[0]

    def _send(self, owner: int, batches: list) -> None:
        # A worker has at most this one request in flight and requests
        # are a few KB (17 KB at most over a full E16), far below the
        # socket buffer, so a hung worker cannot block the send: its
        # stall shows at the reply.
        if owner in self._workers:
            try:
                self._workers[owner][0].send(batches)
            except OSError:
                self._lose(owner)

    def _recv(self, owner: int) -> list | None:
        """The owner's reply, or ``None`` when it has no live worker."""
        if owner not in self._workers:
            return None
        conn = self._workers[owner][0]
        try:
            if conn.poll(_STALL_TIMEOUT):
                return conn.recv()
        except (EOFError, OSError):
            pass
        self._lose(owner)
        return None

    def _lose(self, owner: int) -> None:
        self._stop(owner)
        self.stats["workers_lost"] += 1

    def _stop(self, owner: int) -> None:
        conn, proc = self._workers.pop(owner)
        conn.close()
        proc.kill()  # SIGKILL also ends a SIGSTOP-hung worker
        proc.join()

    def kill_worker(self, worker: int, mode: str) -> None:
        """``WorkerKill``: SIGKILL (``"kill"``) or SIGSTOP (``"hang"``)."""
        if worker in self._workers:
            os.kill(
                self._workers[worker][1].pid,
                signal.SIGSTOP if mode == "hang" else signal.SIGKILL,
            )

    def close(self) -> None:
        for owner in list(self._workers):
            self._stop(owner)


class ProcessBackend(ExecutionBackend):
    """The inline market with its signature checks on a worker pool.

    One :class:`MarketCoordinator` runs in this process — same event
    heap, same messages, same report as inline — and the expensive
    part, seal-batch signature verification (~90% of a sharded E16's
    wall-clock), goes to a :class:`_VerifyPool` of one forked worker
    per shard through the ``VerifyAggregator.verify_many`` hook.  A
    merged Schnorr check succeeds iff every batch in it is valid, and
    its failure path isolates per batch, so per-owner verdicts equal
    the merged ones and the report is byte-identical to inline.
    ``stats`` counts lost workers and the batches verified in the
    parent in their stead.  Falls back to plain inline execution when
    workers cannot be forked — inside a daemonic pool worker such as
    ``run_all.py --jobs``, or on platforms without ``fork``.
    """

    name = "processes"

    def __init__(self):
        self.stats = {"workers_lost": 0, "inline_batches": 0}

    @staticmethod
    def _can_fork() -> bool:
        return (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        )

    def execute(self, handle: "MarketHandle") -> MarketReport:
        market = handle.market
        if not self._can_fork():
            return market.run()
        pool = _VerifyPool(market.shards, self.stats)
        market.verifier = pool
        if market.verify_aggregator is not None:
            market.verify_aggregator.verify_many = pool.verify_many
        try:
            return market.run()
        finally:
            pool.close()


_BACKENDS = {
    InlineBackend.name: InlineBackend,
    ProcessBackend.name: ProcessBackend,
}


class MarketHandle:
    """A constructed market plus the backend that will run it.

    The public surface of :func:`open_market`: ``run()`` executes the
    workload once (memoized), ``report()`` returns the same
    :class:`MarketReport`, ``backend`` names the execution backend.
    The underlying :class:`MarketCoordinator` is built eagerly and
    exposed as ``.market`` on every backend, so tests and tools can
    inject faults or inspect chains before running.
    """

    def __init__(self, workload, config: MarketConfig | None,
                 backend: ExecutionBackend):
        self.backend = backend
        self.market = MarketCoordinator(workload, config)
        self._report: MarketReport | None = None

    def run(self) -> MarketReport:
        """Run the market to quiescence (once) and return its report."""
        if self._report is None:
            self._report = self.backend.execute(self)
        return self._report

    def report(self) -> MarketReport:
        """The run's report (runs the market if it has not run yet)."""
        return self.run()


def open_market(
    workload,
    config: MarketConfig | None = None,
    backend: str | ExecutionBackend = "inline",
) -> MarketHandle:
    """Open one market over ``workload`` and pick its execution backend.

    The public entry point of :mod:`repro.market`::

        from repro.market import open_market
        report = open_market(MarketWorkload(profile)).run()

    ``backend`` is ``"inline"`` (default: everything in-process),
    ``"processes"`` (signature checks on one forked worker per shard;
    same bytes), or an :class:`ExecutionBackend` instance.
    """
    if isinstance(backend, str):
        try:
            backend = _BACKENDS[backend]()
        except KeyError:
            raise MarketError(
                f"unknown execution backend {backend!r} "
                f"(expected one of {sorted(_BACKENDS)})"
            ) from None
    return MarketHandle(workload, config, backend)
