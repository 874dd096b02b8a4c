"""The contract runtime: deterministic, metered, revertible.

Contracts are Python classes whose *persistent* state lives in
:class:`Storage` maps.  The runtime provides the Solidity-flavoured
facilities the paper's pseudocode (Figures 3, 5, 6) relies on:

* ``ctx.require(cond, msg)`` — abort and roll back on failure;
* metered storage: every write to a :class:`Storage` charges 5000 gas
  and is journaled so a revert undoes it;
* ``ctx.verify_signature(...)`` — charges 3000 gas per verification;
* ``ctx.emit(...)`` — event logs delivered to chain subscribers;
* ``ctx.now`` — the chain's imprecise clock (block height × block
  interval), per the paper's remark that "most blockchains measure
  time imprecisely".

A contract may also *declare* the signatures a call is going to check
(:meth:`Contract.signature_claims`), so the chain can batch-verify a
sealed block's worth before executing it.  Claims are facts to check,
never grants: a claim that verifies only makes the method's own
``ctx.verify_signature`` a hit in the run's verdict cache
(:attr:`CallContext.verify_cache`, the simulator's
:class:`~repro.chain.ledger.VerifyAggregator`'s), and one that does not
(or was never declared) is checked there from scratch.  Structure,
membership, deadlines and gas stay in the method.

Cross-contract calls on the *same* chain (e.g. an escrow manager
calling a token's ``transfer_from``) run inside the same transaction
journal, so a revert anywhere unwinds everything — but a contract has
no way to reach a different chain, by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.chain.events import Event
from repro.chain.gas import GasMeter
from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import Address
from repro.crypto.schnorr import Signature, VerifyCache, verify as schnorr_verify
from repro.errors import ContractError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.ledger import Chain

_MISSING = object()


class Storage:
    """A persistent key/value map with gas metering and journaling.

    Reads charge ``sload``; writes charge ``sstore`` and record the old
    value in the active transaction's journal so reverts can undo them.
    Outside a transaction (setup code, test inspection) access is free
    and unjournaled.
    """

    def __init__(self, contract: "Contract", name: str):
        self._contract = contract
        self._name = name
        self._data: dict = {}

    def _runtime(self) -> "_TxJournal | None":
        chain = self._contract.chain
        return chain.active_journal if chain is not None else None

    def __getitem__(self, key):
        runtime = self._runtime()
        if runtime is not None:
            runtime.meter.charge_sload()
        try:
            return self._data[key]
        except KeyError:
            raise ContractError(
                f"storage {self._contract.name}.{self._name}[{key!r}] unset"
            ) from None

    def get(self, key, default=None):
        """Read with a default (still charges a load inside a tx)."""
        runtime = self._runtime()
        if runtime is not None:
            runtime.meter.charge_sload()
        return self._data.get(key, default)

    def __setitem__(self, key, value) -> None:
        runtime = self._runtime()
        if runtime is not None:
            old = self._data.get(key, _MISSING)
            runtime.record(self, key, old)
            runtime.meter.charge_sstore()
        self._data[key] = value

    def __delitem__(self, key) -> None:
        runtime = self._runtime()
        if runtime is not None:
            old = self._data.get(key, _MISSING)
            runtime.record(self, key, old)
            runtime.meter.charge_sstore()
        self._data.pop(key, None)

    def __contains__(self, key) -> bool:
        runtime = self._runtime()
        if runtime is not None:
            runtime.meter.charge_sload()
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(sorted(self._data, key=repr))

    def items(self):
        """Iterate (key, value) pairs in deterministic order."""
        return [(key, self._data[key]) for key in self]

    def _restore(self, key, old_value) -> None:
        if old_value is _MISSING:
            self._data.pop(key, None)
        else:
            self._data[key] = old_value

    def peek(self, key, default=None):
        """Unmetered read for off-chain observers (parties, tests)."""
        return self._data.get(key, default)


class _TxJournal:
    """Undo log + meter for one transaction execution."""

    def __init__(self, meter: GasMeter):
        self.meter = meter
        self._undo: list[tuple[Storage, object, object]] = []
        self.events: list[Event] = []

    def record(self, storage: Storage, key, old_value) -> None:
        self._undo.append((storage, key, old_value))

    def rollback(self) -> None:
        for storage, key, old_value in reversed(self._undo):
            storage._restore(key, old_value)
        self.events.clear()


class CallContext:
    """Everything a contract method may consult during execution."""

    def __init__(
        self,
        chain: "Chain",
        sender: Address,
        journal: _TxJournal,
        block_height: int,
    ):
        self.chain = chain
        self.sender = sender
        self._journal = journal
        self.block_height = block_height

    @property
    def now(self) -> float:
        """The chain's imprecise clock (block-grid time, see
        :attr:`repro.chain.ledger.Chain.chain_time`)."""
        return self.chain.chain_time

    @property
    def meter(self) -> GasMeter:
        """The transaction's gas meter."""
        return self._journal.meter

    @property
    def verify_cache(self) -> VerifyCache:
        """The run's signature verdicts and key tables: the chain's
        simulator's :class:`~repro.chain.ledger.VerifyAggregator`'s."""
        return self.chain._verify.cache

    def require(self, condition: bool, message: str) -> None:
        """Solidity-style ``require``: revert the transaction if false."""
        self.meter.charge_compute()
        if not condition:
            raise ContractError(message)

    def verify_signature(
        self, signer: Address, message: bytes, signature: Signature
    ) -> bool:
        """Verify a signature against the chain's PKI; charges 3000 gas."""
        self.meter.charge_sig_verify()
        wallet = self.chain.wallet
        if not wallet.knows(signer):
            return False
        return schnorr_verify(
            wallet.public_key(signer), message, signature, self.verify_cache
        )

    def verify_raw_signature(self, public_key, message: bytes, signature) -> bool:
        """Verify against an explicit public key (validator certs)."""
        self.meter.charge_sig_verify()
        return schnorr_verify(public_key, message, signature, self.verify_cache)

    def verify_signature_batch(
        self, items: list[tuple[Address, bytes, object]]
    ) -> bool:
        """Batch-verify ``(signer, message, signature)`` triples.

        The §9 signature-combining ablation: one batched check costs
        a full verification plus a marginal term per extra signature.
        Unknown signers fail the whole batch.
        """
        self.meter.charge_sig_verify_batch(len(items))
        return self.chain.wallet.batch_verify(items, self.verify_cache)

    def emit(self, contract: "Contract", name: str, **fields: object) -> None:
        """Emit an event into the transaction's log."""
        self.meter.charge_event()
        self._journal.events.append(Event(contract.name, name, fields))

    def call(self, caller: "Contract", contract_name: str, method: str, **args: object):
        """Call another contract on the *same* chain, same journal.

        The callee sees ``caller``'s contract address as the sender —
        the pattern Figure 3 uses when the escrow manager pulls tokens
        via ``transferFrom`` (the escrow contract itself becomes the
        token owner).
        """
        self.meter.charge_call()
        contract = self.chain.contract(contract_name)
        child = CallContext(self.chain, caller.address, self._journal, self.block_height)
        return contract.invoke(child, method, args)


class Contract:
    """Base class for on-chain contracts.

    Subclasses declare persistent maps with :meth:`storage` in their
    ``__init__`` and expose callable methods named in ``EXPORTS``.
    """

    EXPORTS: tuple[str, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self.chain: "Chain | None" = None
        self._storages: dict[str, Storage] = {}
        # Contracts can own assets (the escrow pattern), so they carry
        # an address derived from their name.
        self.address = Address(tagged_hash("repro/contract", name.encode("utf-8"))[:20])

    def storage(self, name: str) -> Storage:
        """Declare (or fetch) a persistent storage map."""
        if name not in self._storages:
            self._storages[name] = Storage(self, name)
        return self._storages[name]

    def attach(self, chain: "Chain") -> None:
        """Called by the chain when the contract is published."""
        self.chain = chain

    def snapshot_state(self) -> dict[str, dict]:
        """Copy every storage map: ``{storage_name: {key: value}}``.

        Storage values are immutable (primitives, enums, frozen
        dataclasses), so a per-map shallow copy is a faithful
        snapshot.  Used by the replication layer
        (:mod:`repro.market.replication`) and crash-recovery tests.
        """
        return {
            name: dict(storage._data)
            for name, storage in sorted(self._storages.items())
        }

    def restore_state(self, state: dict[str, dict]) -> None:
        """Overwrite every storage map from a :meth:`snapshot_state`.

        Unjournaled and unmetered — this is operator-level recovery,
        not a transaction.
        """
        for name, storage in self._storages.items():
            storage._data = dict(state.get(name, {}))

    def signature_claims(self, method: str, args: dict) -> list:
        """The ``(PublicKey, message, Signature)`` triples a call to
        ``method`` with ``args`` would verify, for the block's batched
        pre-verification (module docstring).  Default: none."""
        return []

    def invoke(self, ctx: CallContext, method: str, args: dict):
        """Dispatch ``method`` with ``args`` under ``ctx``."""
        if method not in self.EXPORTS:
            raise ContractError(f"{self.name} exports no method {method!r}")
        handler = getattr(self, method)
        return handler(ctx, **args)
