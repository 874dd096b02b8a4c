"""Merkle trees: the root a block commits its transactions to.

Blocks commit to their transaction lists with a Merkle root, so a
cross-chain proof (§6.2 of the paper) could show a particular entry is
in a particular block with the entry's audit path instead of the whole
block; the simulation checks whole blocks and keeps only the root.  The
tree is the standard binary construction with duplicated last leaf on
odd levels, and leaf/interior domain separation to rule out
second-preimage tricks.
"""

from __future__ import annotations

from repro.crypto.hashing import tagged_hash
from repro.errors import CryptoError

_LEAF_TAG = "repro/merkle/leaf"
_NODE_TAG = "repro/merkle/node"


def _leaf_hash(data: bytes) -> bytes:
    return tagged_hash(_LEAF_TAG, data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return tagged_hash(_NODE_TAG, left + right)


class MerkleTree:
    """A binary Merkle tree over a fixed list of byte-string leaves.

    ``root`` is the Merkle root committing to all leaves.
    """

    def __init__(self, leaves: list[bytes]):
        if not leaves:
            raise CryptoError("Merkle tree requires at least one leaf")
        self._count = len(leaves)
        level = [_leaf_hash(leaf) for leaf in leaves]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level.append(level[-1])
            level = [
                _node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)
            ]
        self.root = level[0]

    def __len__(self) -> int:
        return self._count
