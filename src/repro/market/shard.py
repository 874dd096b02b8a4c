"""One shard's runtime: its chains, mempools and commit log.

A :class:`ShardRuntime` owns exactly one shard's state and never
reaches into another shard.  Everything it does is a reaction to one
of the coordinator's three typed messages
(:mod:`repro.market.messages`): register an order
(:class:`~repro.market.messages.SubmitOrder`), publish a per-deal
escrow contract (:class:`~repro.market.messages.PublishEscrow`), or
put one ready-built transaction into a chain's mempool
(:class:`~repro.market.messages.SubmitStep`).  Everything it observes
— the receipts of every block its chains seal — leaves as a
:class:`~repro.market.messages.BlockReceipts` envelope back to the
coordinator.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.chain.ledger import Chain
from repro.chain.tokens import FungibleToken, NonFungibleToken
from repro.chain.tx import Transaction
from repro.errors import MarketError
from repro.market.book import BOOK_CONTRACT, MarketEscrowBook
from repro.market.commitlog import MarketCommitLog
from repro.market.fees import make_seal_policy
from repro.market.mempool import StepMempool
from repro.market.messages import (
    BlockReceipts,
    PublishEscrow,
    SubmitOrder,
    SubmitStep,
)
from repro.sim.network import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.market.runtime import MarketCoordinator

COORDINATOR_ENDPOINT = "coordinator"


def shard_endpoint(shard: int) -> str:
    """The bus endpoint name of one shard's runtime."""
    return f"shard-{shard}"


class ShardRuntime:
    """One shard's chains (home/coordinator chain first), their step
    mempools, its commit log, and the handlers of the three messages
    the coordinator sends it (:meth:`handle`)."""

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
        nft_name = workload.nft_tokens.get(chain_id)
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
        elif isinstance(message, SubmitStep):
            if not self.chains[message.chain_id].has_contract(
                message.tx.contract
            ):
                self._defer(message, deferrals)
                return
            self.mempools[message.chain_id].submit(message.tx, message.deal_id)
        elif isinstance(message, PublishEscrow):
            self.chains[message.chain_id].publish(message.contract)
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
