"""The typed messages of the shard-runtime API.

The market coordinator and its per-shard
:class:`~repro.market.shard.ShardRuntime`\\ s communicate *only*
through the frozen payload types below, wrapped in the uniform
:class:`~repro.sim.network.Envelope` (sender, chain_id, tick,
payload) and carried by a :class:`~repro.sim.network.LocalBus`.
Every message rides the stream of the chain it concerns —
``SubmitOrder`` its home chain's.  Each type names one protocol edge:

* :class:`SubmitOrder` — coordinator → home shard: register a signed
  deal order on the shard's commit log (the runtime builds the
  on-chain registration transaction itself).
* :class:`PublishEscrow` — coordinator → asset shard: publish one
  per-deal escrow contract (timelock/CBC) on an asset chain.
* :class:`SubmitStep` — coordinator → shard: one ready-built
  transaction for one chain's mempool.  Every step of every protocol
  is this one edge — a book ``open``/``transfer``/claim, a per-deal
  escrow ``approve``/``deposit``/``refund``/proof-carrying claim, a
  commit-log vote or abort mark, a §5 path-signature vote — because
  the shard does the same thing with all of them: ``mempool.submit``.
  The target contract already exists: a per-deal escrow's
  ``PublishEscrow`` went first down the same chain's stream.
* :class:`BlockReceipts` — shard → coordinator: one sealed block's
  receipts, each of which the coordinator routes to its deal's
  :class:`~repro.market.protocols.DealDriver`.
* :class:`DeltaShipment` / :class:`DeltaAck` — replication plane:
  sealed-block write-set shipping leader → follower and the
  follower's sequence acknowledgement.  These two ride the dedicated
  replication :class:`~repro.sim.network.SynchronousNetwork` bare, not
  the bus: its fault filters and stats key on endpoint names, so no
  wrapper is needed.

**At-least-once delivery** is the transport's job, not the payloads':
under a chaotic bus (:class:`~repro.sim.network.ChaosBus`) every
envelope carries a per-(sender, recipient, chain) ``msg_id``, is
resent until a :class:`~repro.sim.network.BusAck` comes back, and is
handed to its recipient exactly once and in its stream's order.
Delta shipments use the same :class:`~repro.sim.network.Retransmitter`,
with :class:`DeltaAck` as the acknowledgement and the follower's
sequence-gated apply as the duplicate filter.  ``msg_id == 0`` (the
plain bus) is exact transport.

A sealed block's signature check is *not* on this list: it is contract
work of the chain that seals the block (paper §7), so a mempool hands
its signature groups straight to the simulator's
:class:`~repro.chain.ledger.VerifyAggregator` — there is no network
between a block producer and the check of its own block.

Every type is a frozen dataclass and nothing here imports anything,
so the vocabulary is dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SubmitOrder",
    "PublishEscrow",
    "SubmitStep",
    "BlockReceipts",
    "DeltaShipment",
    "DeltaAck",
]


@dataclass(frozen=True, slots=True)
class SubmitOrder:
    """Register a signed order on its home shard's commit log."""

    deal_id: bytes
    order: object  # SignedDealOrder


@dataclass(frozen=True, slots=True)
class PublishEscrow:
    """Publish one per-deal escrow contract on an asset chain."""

    chain_id: str
    contract: object  # Contract


@dataclass(frozen=True, slots=True)
class SubmitStep:
    """One ready-built transaction for one chain's mempool."""

    deal_id: bytes
    chain_id: str
    tx: object  # Transaction


@dataclass(frozen=True, slots=True)
class BlockReceipts:
    """One sealed block's receipts, for the coordinator's phase engine."""

    chain_id: str
    height: int
    receipts: tuple


@dataclass(frozen=True, slots=True)
class DeltaShipment:
    """A sealed block's write-set, shipped leader → follower."""

    chain_id: str
    seq: int
    delta: object  # repro.chain.ledger.StateDelta


@dataclass(frozen=True, slots=True)
class DeltaAck:
    """A follower's highest-applied sequence acknowledgement."""

    follower: str
    chain_id: str
    seq: int
