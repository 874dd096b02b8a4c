"""Blocks and block headers.

Each block commits to its transaction batch with a Merkle root and to
its predecessor with a parent hash, so entries can be proven to be on
a chain (the raw material of the §6.2 cross-chain proofs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.tx import Receipt
from repro.crypto.hashing import hash_concat, int_to_bytes
from repro.crypto.merkle import MerkleTree


def _encode_receipt(receipt: Receipt) -> bytes:
    parts = [
        int_to_bytes(receipt.tx.tx_id, 8),
        receipt.tx.contract.encode("utf-8"),
        receipt.tx.method.encode("utf-8"),
        receipt.status.value.encode("utf-8"),
    ]
    return hash_concat(*parts)


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """The authenticated part of a block."""

    chain_id: str
    height: int
    parent_hash: bytes
    merkle_root: bytes
    timestamp: float

    def hash(self) -> bytes:
        """The header hash, binding all fields."""
        return hash_concat(
            b"repro/block",
            self.chain_id.encode("utf-8"),
            int_to_bytes(self.height, 8),
            self.parent_hash,
            self.merkle_root,
            repr(self.timestamp).encode("utf-8"),
        )


@dataclass(frozen=True, slots=True)
class Block:
    """A block: header plus the receipts of its transactions."""

    header: BlockHeader
    receipts: tuple[Receipt, ...]

    @classmethod
    def build(
        cls,
        chain_id: str,
        height: int,
        parent_hash: bytes,
        receipts: list[Receipt],
        timestamp: float,
    ) -> "Block":
        """Assemble a block, computing its Merkle commitment."""
        leaves = [_encode_receipt(receipt) for receipt in receipts] or [b"empty"]
        root = MerkleTree(leaves).root
        header = BlockHeader(
            chain_id=chain_id,
            height=height,
            parent_hash=parent_hash,
            merkle_root=root,
            timestamp=timestamp,
        )
        return cls(header=header, receipts=tuple(receipts))

    @property
    def height(self) -> int:
        """The block's height (genesis = 0)."""
        return self.header.height

    def hash(self) -> bytes:
        """The block hash (header hash)."""
        return self.header.hash()
