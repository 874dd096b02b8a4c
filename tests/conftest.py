"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.chain.ledger import Chain
from repro.chain.tokens import FungibleToken, NonFungibleToken
from repro.chain.tx import Transaction
from repro.crypto import merkle
from repro.crypto.keys import KeyPair, Wallet
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(42)


@pytest.fixture
def alice() -> KeyPair:
    return KeyPair.from_label("alice")


@pytest.fixture
def bob() -> KeyPair:
    return KeyPair.from_label("bob")


@pytest.fixture
def carol() -> KeyPair:
    return KeyPair.from_label("carol")


@pytest.fixture
def wallet(alice, bob, carol) -> Wallet:
    wallet = Wallet()
    for keypair in (alice, bob, carol):
        wallet.register(keypair)
    return wallet


@pytest.fixture
def chain(simulator, wallet) -> Chain:
    return Chain("testchain", simulator, wallet, block_interval=1.0)


@pytest.fixture
def coin(chain, alice, bob, carol) -> FungibleToken:
    """A fungible token with 1000 coins minted to each test party."""
    token = FungibleToken("coin")
    chain.publish(token)
    for keypair in (alice, bob, carol):
        chain.execute_now(
            Transaction(
                sender=keypair.address,
                contract="coin",
                method="mint",
                args={"to": keypair.address, "amount": 1000},
            )
        )
    return token


@pytest.fixture
def tickets(chain, bob) -> NonFungibleToken:
    """An NFT contract with two tickets minted to bob."""
    token = NonFungibleToken("tickets")
    chain.publish(token)
    for token_id in ("t0", "t1"):
        chain.execute_now(
            Transaction(
                sender=bob.address,
                contract="tickets",
                method="mint",
                args={"to": bob.address, "token_id": token_id, "metadata": {"seat": token_id}},
            )
        )
    return token


def call(chain: Chain, sender, contract: str, method: str, **args):
    """Execute a transaction immediately and return its receipt."""
    return chain.execute_now(
        Transaction(sender=sender, contract=contract, method=method, args=args)
    )


class MerkleAuditPath:
    """A leaf's inclusion proof against a Merkle root, built from the
    leaves alone — what a light client checks against a block's root.

    The program commits blocks to the root only; the tests hold
    :class:`~repro.crypto.merkle.MerkleTree` to this reference.
    """

    @staticmethod
    def of(leaves: list[bytes], index: int) -> list[bytes]:
        """The sibling hashes from leaf ``index`` up to the root."""
        level = [merkle._leaf_hash(leaf) for leaf in leaves]
        path = []
        while len(level) > 1:
            if len(level) % 2:
                level = level + [level[-1]]
            path.append(level[index ^ 1])
            level = [
                merkle._node_hash(level[i], level[i + 1])
                for i in range(0, len(level), 2)
            ]
            index //= 2
        return path

    @staticmethod
    def folds_to(root: bytes, leaf: bytes, index: int, path: list[bytes]) -> bool:
        """Whether ``leaf`` at ``index`` hashes up ``path`` to ``root``."""
        node = merkle._leaf_hash(leaf)
        for sibling in path:
            pair = (node, sibling) if index % 2 == 0 else (sibling, node)
            node = merkle._node_hash(*pair)
            index //= 2
        return node == root


@pytest.fixture(scope="session")
def audit_path() -> type[MerkleAuditPath]:
    return MerkleAuditPath
