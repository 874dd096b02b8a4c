"""Transactions and receipts.

A :class:`Transaction` is a party's signed request to call a contract
method.  The chain executes it inside a block and produces a
:class:`Receipt` recording success/revert, the gas breakdown, any
events emitted, and the method's return value (contracts in this
substrate may return values to their caller, which the party observes
in the receipt — equivalent to reading the post-state).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.chain.events import Event
from repro.chain.gas import GasBreakdown
from repro.crypto.keys import Address

_tx_counter = itertools.count(1)


class TxStatus(Enum):
    """Terminal status of an executed transaction."""

    SUCCESS = "success"
    REVERTED = "reverted"


@dataclass(frozen=True, slots=True)
class Transaction:
    """A contract call request.

    ``phase`` is an experiment-side annotation ("escrow", "transfer",
    "commit", ...) used by the cost analysis to attribute gas to deal
    phases; chains ignore it.
    """

    sender: Address
    contract: str
    method: str
    args: dict
    tx_id: int = field(default_factory=lambda: next(_tx_counter))
    phase: str = ""

    def describe(self) -> str:
        """One-line human-readable summary (for traces)."""
        return f"tx#{self.tx_id} {self.sender} -> {self.contract}.{self.method}"


@dataclass(frozen=True, slots=True)
class Receipt:
    """The outcome of executing a transaction."""

    tx: Transaction
    status: TxStatus
    gas: GasBreakdown
    block_height: int
    executed_at: float
    return_value: object = None
    error: str = ""
    events: tuple[Event, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the transaction succeeded."""
        return self.status is TxStatus.SUCCESS
