"""Signed deal orders: how a deal enters the market.

A :class:`SignedDealOrder` bundles a :class:`~repro.core.deal.DealSpec`
with one signature per party over the order manifest
(:func:`order_message`).  The signatures reuse the
:class:`~repro.consensus.validators.QuorumSignature` shape so an order
is literally a quorum certificate with ``quorum = n`` — the mempool
checks its structure at block-seal time and hands its signatures, one
group among the block's, to the market's merged
:func:`repro.crypto.schnorr.batch_verify_many`, and every later step a
party submits for the deal (escrow, transfer, vote) derives its
authority from that one check.

Adversarial knobs live on the order because the market's workload
generator plays the parties: ``withhold_votes`` lists parties that will
validate but never vote (the deal times out and aborts — for the
timelock protocol that means every escrow refunds at its terminal
deadline), ``no_show`` lists owners that never escrow their assets
(the deal stalls in the escrow phase; whatever *was* escrowed is
refunded), and ``stale_proof`` lists parties that present a stale or
forged commit proof to a CBC escrow before the deal actually decides
(the contract must reject it).  A forged order — one whose signature
set does not verify — is built by signing the wrong message; the
mempool must reject it before any step reaches a chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.validators import QuorumSignature
from repro.core.deal import DealSpec
from repro.crypto.hashing import hash_concat
from repro.crypto.keys import Address, KeyPair
from repro.errors import MarketError


def order_message(deal_id: bytes, fee_bid: int = 0) -> bytes:
    """The manifest every party signs to authorize a deal.

    The ``fee_bid`` is folded into the manifest *outside* the deal id
    (the id is a pure content hash of the spec — see
    :class:`~repro.core.deal.DealSpec`), so the parties co-sign the
    price they are willing to pay for block space and a relayer cannot
    tamper with it.
    """
    return hash_concat(
        b"repro/market/order-fee", deal_id, fee_bid.to_bytes(8, "big")
    )


def shard_of_deal(deal_id: bytes, shards: int) -> int:
    """Deterministic deal → shard routing for the sharded market.

    Every router in the system — workload generators, the scheduler,
    each shard's :class:`~repro.market.commitlog.MarketCommitLog`
    (which *enforces* the routing on-chain), tests — derives the home
    shard from the deal id the same way, so a deal can never be
    claimed by two coordinators.
    """
    digest = hash_concat(b"repro/market/shard", deal_id)
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class SignedDealOrder:
    """A deal spec plus the unanimous party signatures over its manifest."""

    spec: DealSpec
    signatures: tuple[QuorumSignature, ...]
    arrival: float = 0.0
    index: int = 0
    withhold_votes: frozenset = field(default_factory=frozenset)
    no_show: frozenset = field(default_factory=frozenset)
    stale_proof: frozenset = field(default_factory=frozenset)
    # Fee market (block-space economics): the deal's bid, in fee units
    # per sealed step, for priority under a non-FIFO sealing policy.
    # Folded into the signed manifest but *not* into the deal id.
    fee_bid: int = 0

    @property
    def deal_id(self) -> bytes:
        """The order's deal identifier (content-derived, see DealSpec)."""
        return self.spec.deal_id

    @property
    def protocol(self) -> str:
        """Which atomic-commit protocol drives this deal."""
        return self.spec.protocol

    @property
    def parties(self) -> tuple[Address, ...]:
        """The deal's plist."""
        return self.spec.parties

    def voters(self) -> tuple[Address, ...]:
        """Parties that will actually cast commit votes."""
        return tuple(p for p in self.spec.parties if p not in self.withhold_votes)

    def shard(self, shards: int) -> int:
        """The order's home shard under an ``shards``-way market."""
        return shard_of_deal(self.deal_id, shards)


def sign_order(
    spec: DealSpec,
    keypairs: dict[Address, KeyPair],
    arrival: float = 0.0,
    index: int = 0,
    withhold_votes: frozenset = frozenset(),
    no_show: frozenset = frozenset(),
    forge: frozenset = frozenset(),
    stale_proof: frozenset = frozenset(),
    fee_bid: int = 0,
) -> SignedDealOrder:
    """Produce a :class:`SignedDealOrder` with every party's signature.

    ``keypairs`` maps each party address to its keypair.  Parties in
    ``forge`` sign the *wrong* message — the resulting order is
    structurally well-shaped but must fail whole-block verification.
    ``fee_bid`` (non-negative) is co-signed via :func:`order_message`.
    """
    if fee_bid < 0:
        raise MarketError("fee_bid must be non-negative")
    message = order_message(spec.deal_id, fee_bid)
    signatures = []
    for party in spec.parties:
        keypair = keypairs.get(party)
        if keypair is None:
            raise MarketError(f"no keypair for party {party}")
        signed_bytes = message
        if party in forge:
            signed_bytes = hash_concat(b"repro/market/forged", message)
        signatures.append(
            QuorumSignature(keypair.public_key, keypair.sign(signed_bytes))
        )
    return SignedDealOrder(
        spec=spec,
        signatures=tuple(signatures),
        arrival=arrival,
        index=index,
        withhold_votes=frozenset(withhold_votes),
        no_show=frozenset(no_show),
        stale_proof=frozenset(stale_proof),
        fee_bid=fee_bid,
    )
