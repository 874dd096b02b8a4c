"""The typed messages of the shard-runtime API.

The market coordinator and its per-shard
:class:`~repro.market.runtime.ShardRuntime`\\ s communicate *only*
through the frozen payload types below, wrapped in the uniform
:class:`~repro.sim.network.Envelope` (sender, shard, tick, payload)
and carried by a :class:`~repro.sim.network.LocalBus`.  Each type
names one protocol edge:

* :class:`SubmitOrder` — coordinator → home shard: register a signed
  deal order on the shard's commit log (the runtime builds the
  on-chain registration transaction itself).
* :class:`CrossShardEscrowOp` — coordinator → asset shard: publish a
  per-deal escrow contract or submit one escrow step (``open``,
  ``approve``, ``deposit``, ``transfer``, ``refund``, ``claim``) to
  the asset chain's mempool.
* :class:`VoteFanout` — coordinator → shard: a commit-log vote or
  abort mark on the deal's home shard, or a §5 path-signature vote
  fanned to a timelock escrow's chain.
* :class:`DealDecided` — coordinator → asset shard: the home commit
  log decided; claim (commit/abort) the deal's book escrows on one
  chain.
* :class:`BlockReceipts` — shard → coordinator: one sealed block's
  receipts, which the coordinator's phase engine routes to deal state
  machines.
* :class:`DeltaShipment` / :class:`DeltaAck` — replication plane:
  sealed-block write-set shipping leader → follower and the
  follower's sequence acknowledgement (these two ride the dedicated
  replication :class:`~repro.sim.network.SynchronousNetwork`, not the
  bus, but share the Envelope wrapper so network fault stats cover
  them uniformly).

**At-least-once delivery** is the transport's job, not the payloads':
under a chaotic bus (:class:`~repro.sim.network.ChaosBus`) every
envelope carries a per-(sender, recipient) ``msg_id``, is resent until
a :class:`~repro.sim.network.BusAck` comes back, and is handed to its
recipient exactly once.  Delta shipments use the same
:class:`~repro.sim.network.Retransmitter`, with :class:`DeltaAck` as
the acknowledgement and the follower's sequence-gated apply as the
duplicate filter.  ``msg_id == 0`` (the plain bus) is exact transport.

A sealed block's signature check is *not* on this list: it is contract
work of the chain that seals the block (paper §7), so a mempool hands
its batch straight to the market's ``VerifyAggregator`` — there is no
network between a block producer and the check of its own block.

Every type is a frozen dataclass; nothing here imports the runtime,
so the vocabulary is dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import BusAck, Envelope

__all__ = [
    "Envelope",
    "BusAck",
    "SubmitOrder",
    "CrossShardEscrowOp",
    "VoteFanout",
    "DealDecided",
    "BlockReceipts",
    "DeltaShipment",
    "DeltaAck",
]


@dataclass(frozen=True)
class SubmitOrder:
    """Register a signed order on its home shard's commit log."""

    deal_id: bytes
    order: object  # SignedDealOrder


@dataclass(frozen=True)
class CrossShardEscrowOp:
    """One escrow-plane operation on an asset chain.

    ``op == "publish"`` carries the per-deal escrow ``contract`` to
    publish; every other op carries the ready-signed transaction
    ``tx`` for the chain's mempool.
    """

    deal_id: bytes
    chain_id: str
    op: str
    tx: object | None = None  # Transaction
    contract: object | None = None  # Contract (publish only)
    asset_id: str = ""


@dataclass(frozen=True)
class VoteFanout:
    """A vote (or abort mark) fanned out to one chain's mempool."""

    deal_id: bytes
    chain_id: str
    tx: object  # Transaction


@dataclass(frozen=True)
class DealDecided:
    """The home log decided: claim the deal's book escrows on a chain."""

    deal_id: bytes
    chain_id: str
    method: str  # "commit" | "abort"


@dataclass(frozen=True)
class BlockReceipts:
    """One sealed block's receipts, for the coordinator's phase engine."""

    chain_id: str
    height: int
    receipts: tuple


@dataclass(frozen=True)
class DeltaShipment:
    """A sealed block's write-set, shipped leader → follower."""

    chain_id: str
    seq: int
    delta: object  # repro.chain.ledger.StateDelta


@dataclass(frozen=True)
class DeltaAck:
    """A follower's highest-applied sequence acknowledgement."""

    follower: str
    chain_id: str
    seq: int
