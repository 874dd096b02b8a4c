"""The records a run keeps one of per item are slotted frozen dataclasses.

A run holds one record per transaction, receipt, event, block and
signature, and one per message in flight, so each type is declared
``slots=True``: no per-instance ``__dict__``.  Slots must change
nothing else: a record still pickles (the processes backend sends
``PublicKey`` and ``Signature`` to its workers) and hashes and compares
by its fields exactly as a plain frozen dataclass does.
"""

import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.events import Event
from repro.chain.gas import GasBreakdown
from repro.chain.tx import Receipt, Transaction, TxStatus
from repro.crypto.schnorr import PublicKey, Signature, generate_keypair, sign
from repro.market.messages import (
    BlockReceipts,
    DeltaAck,
    DeltaShipment,
    PublishEscrow,
    SubmitOrder,
    SubmitStep,
)
from repro.sim.network import BusAck, Envelope, Message


def _samples():
    """Two unequal instances of every slotted record type."""
    private, public = generate_keypair(b"slots")
    _, other_public = generate_keypair(b"slots/other")
    signature = sign(private, b"message")
    tx = Transaction(sender="alice", contract="escrow", method="deposit",
                     args={"amount": 5}, phase="escrow")
    other_tx = Transaction(sender="bob", contract="escrow", method="claim", args={})
    gas = GasBreakdown(total=21, sstore=2, sig_verify=1)
    event = Event("escrow", "Deposited", {"amount": 5})
    receipt = Receipt(tx=tx, status=TxStatus.SUCCESS, gas=gas, block_height=3,
                      executed_at=1.5)
    with_event = Receipt(tx=other_tx, status=TxStatus.REVERTED, gas=gas,
                         block_height=4, executed_at=2.0, error="no",
                         events=(event,))
    block = Block.build("chain-0", 3, b"\x00" * 32, [receipt], 1.5)
    return {
        PublicKey: (public, other_public),
        Signature: (signature, sign(private, b"other")),
        Transaction: (tx, other_tx),
        GasBreakdown: (gas, GasBreakdown(total=1)),
        Event: (event, Event("escrow", "Refunded")),
        Receipt: (receipt, with_event),
        BlockHeader: (block.header, Block.build("chain-0", 4, b"\x01" * 32, [], 2.0).header),
        Block: (block, Block.build("chain-1", 1, b"\x02" * 32, [], 0.5)),
        SubmitOrder: (SubmitOrder(b"deal", "order"), SubmitOrder(b"deal2", "order")),
        PublishEscrow: (PublishEscrow("chain-0", "escrow"), PublishEscrow("chain-1", "escrow")),
        SubmitStep: (SubmitStep(b"deal", "chain-0", tx), SubmitStep(b"deal", "chain-0", other_tx)),
        BlockReceipts: (BlockReceipts("chain-0", 3, (receipt,)), BlockReceipts("chain-0", 4, ())),
        DeltaShipment: (DeltaShipment("chain-0", 1, "delta"), DeltaShipment("chain-0", 2, "delta")),
        DeltaAck: (DeltaAck("s0/r1", "chain-0", 1), DeltaAck("s0/r2", "chain-0", 1)),
        Message: (Message("a", "b", "hello", 0.5), Message("b", "a", "hello", 0.5)),
        Envelope: (Envelope("a", "chain-0", 1.0, "step", 3), Envelope("a", "chain-0", 1.0, "step")),
        BusAck: (BusAck("b", 3), BusAck("b", 4)),
    }


def _holds_an_event(record) -> bool:
    # An Event freezes its fields in a MappingProxyType, which pickle
    # refuses whether or not the record is slotted.
    if isinstance(record, Event):
        return True
    if isinstance(record, (tuple, list)):
        return any(_holds_an_event(item) for item in record)
    if hasattr(type(record), "__dataclass_fields__"):
        return any(_holds_an_event(getattr(record, f.name)) for f in fields(record))
    return False


SAMPLES = _samples()


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_is_slotted_and_frozen(cls):
    assert "__slots__" in cls.__dict__
    for record in SAMPLES[cls]:
        assert not hasattr(record, "__dict__")
        with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
            record.extra = 1


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_hashes_and_compares_by_its_fields(cls):
    first, second = SAMPLES[cls]
    assert first != second
    for record in (first, second):
        values = {f.name: getattr(record, f.name) for f in fields(record)}
        twin = cls(**values)
        assert twin == record and twin is not record
        # A frozen dataclass hashes the tuple of its fields, slotted or not.
        try:
            expected = hash(tuple(values.values()))
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == expected


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_survives_a_pickle_round_trip(cls):
    picklable = [record for record in SAMPLES[cls] if not _holds_an_event(record)]
    assert picklable or cls is Event
    for record in picklable:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is cls
