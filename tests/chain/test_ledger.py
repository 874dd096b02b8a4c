"""Unit tests for the Chain: blocks, mempool, subscriptions, clock."""

import pytest

from repro.chain.contracts import Contract
from repro.chain.ledger import Chain
from repro.chain.tx import Transaction
from repro.crypto.keys import KeyPair, Wallet
from repro.errors import ChainError
from repro.sim.simulator import Simulator


class Echo(Contract):
    EXPORTS = ("ping",)

    def __init__(self):
        super().__init__("echo")
        self.log = self.storage("log")

    def ping(self, ctx, value):
        self.log[value] = ctx.now
        ctx.emit(self, "Pong", value=value)
        return value


@pytest.fixture
def setup():
    sim = Simulator()
    wallet = Wallet()
    user = KeyPair.from_label("user")
    wallet.register(user)
    chain = Chain("c", sim, wallet, block_interval=2.0)
    chain.publish(Echo())
    return sim, chain, user


def tx(user, value):
    return Transaction(sender=user.address, contract="echo", method="ping", args={"value": value})


def test_genesis_block_exists(setup):
    _, chain, _ = setup
    assert chain.height == 0
    assert len(chain.blocks) == 1


def test_submitted_tx_executes_at_next_boundary(setup):
    sim, chain, user = setup
    chain.submit(tx(user, "a"))
    sim.run()
    assert chain.height == 1
    receipts = chain.blocks[1].receipts
    assert len(receipts) == 1
    assert receipts[0].ok
    # Block boundary on the 2.0 grid.
    assert receipts[0].executed_at == 2.0


def test_txs_batch_into_one_block(setup):
    sim, chain, user = setup
    for value in ("a", "b", "c"):
        chain.submit(tx(user, value))
    sim.run()
    assert chain.height == 1
    assert len(chain.blocks[1].receipts) == 3


def test_later_txs_go_to_later_blocks(setup):
    sim, chain, user = setup
    chain.submit(tx(user, "a"))
    sim.schedule(3.0, lambda: chain.submit(tx(user, "b")))
    sim.run()
    assert chain.height == 2
    assert chain.blocks[1].receipts[0].tx.args["value"] == "a"
    assert chain.blocks[2].receipts[0].tx.args["value"] == "b"


def test_block_parent_hashes_link(setup):
    sim, chain, user = setup
    chain.submit(tx(user, "a"))
    sim.run()
    sim.schedule(0.1, lambda: chain.submit(tx(user, "b")))
    sim.run()
    blocks = chain.blocks
    for previous, current in zip(blocks, blocks[1:]):
        assert current.header.parent_hash == previous.hash()
        assert current.height == previous.height + 1


def test_subscribers_see_blocks(setup):
    sim, chain, user = setup
    seen = []
    chain.subscribe(lambda ch, block: seen.append(block.height))
    chain.submit(tx(user, "a"))
    sim.run()
    assert seen == [1]


def test_chain_time_tracks_simulator_grid(setup):
    sim, chain, user = setup
    assert chain.chain_time == 0.0
    chain.submit(tx(user, "a"))
    sim.run()
    # Simulator now at 2.0 -> chain time 2.0 (height grid).
    assert chain.chain_time == 2.0
    # Chain time advances with simulated time even without blocks.
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert chain.chain_time == 12.0


def test_contract_sees_chain_time(setup):
    sim, chain, user = setup
    echo = chain.contract("echo")
    chain.submit(tx(user, "a"))
    sim.run()
    assert echo.log.peek("a") == 2.0


def test_invalid_block_interval():
    sim = Simulator()
    with pytest.raises(ChainError):
        Chain("c", sim, Wallet(), block_interval=0)


def test_execute_now_bypasses_blocks(setup):
    sim, chain, user = setup
    receipt = chain.execute_now(tx(user, "direct"))
    assert receipt.ok
    assert chain.height == 0  # no block produced
