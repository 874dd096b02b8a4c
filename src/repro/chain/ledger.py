"""The Chain: block production, transaction execution, subscriptions.

A chain is an actor on the simulator.  Life of a transaction:

1. a party calls :meth:`Chain.submit` (typically via the network, so
   the submission itself took up to one message delay);
2. the transaction waits in the mempool until the next block boundary
   (blocks are produced every ``block_interval`` ticks);
3. at the boundary, the signatures the pending transactions declare
   (:meth:`Contract.signature_claims`) are batch-verified in one merged
   check, then all pending transactions execute in arrival order, each
   inside its own journal (revert on ``require`` failure).  The merged
   check spans the simulator's instant, not just this chain: every
   block producer — chains and the CBC log alike — files its
   pending-claims reader with the simulator's :class:`VerifyAggregator`
   under the boundary it schedules, and the first to run at an instant
   settles the instant, certifying the claims of every producer due
   there in one :func:`~repro.crypto.schnorr.batch_verify_many`; a
   producer that runs later at the same instant certifies only what
   arrived after that look-ahead;
4. the block, with receipts and events, is pushed to every subscriber
   with the subscriber's propagation delay.

The pre-verification in step 3 cannot change a receipt: it only fills
:mod:`repro.crypto.schnorr`'s verdict cache with signatures that *did*
verify (a merged check passes exactly when each member would alone:
both compare up to sign), execution still calls and charges every
verification itself, and a cached verdict is keyed on the full (key,
message, signature) triple — a bad, undeclared, skipped, malformed or
raising claim meets a cold check.  Reading a peer's claims ahead is
reading what it would read itself: none of its blocks runs in between.

So the paper's Δ — "the time needed to change any blockchain's state
in a way observable by all parties" — is bounded here by
``submit latency + block_interval + propagation delay``, and the
timing benchmarks (Figure 7) measure it rather than assume it.
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.chain.block import Block
from repro.chain.contracts import CallContext, Contract, _MISSING, _TxJournal
from repro.chain.gas import GasMeter, GasSchedule
from repro.chain.tx import Receipt, Transaction, TxStatus
from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import Wallet
from repro.crypto.schnorr import PublicKey, Signature, batch_verify_many
from repro.errors import ChainError, ContractError, UnknownContractError
from repro.sim.simulator import Simulator

BlockObserver = Callable[["Chain", Block], None]

# A state delta shipped to Chain.delta_observer: a dict with "kind"
# ("init" | "block" | "exec"), the chain id, and either a full contract
# state ("init") or sorted write/delete lists keyed by
# (contract, storage, key).
StateDelta = dict

DeltaObserver = Callable[["Chain", StateDelta], None]


def digest_state(state: dict[str, dict[str, dict]]) -> bytes:
    """Canonical digest of ``{contract: {storage: {key: value}}}``.

    Keys and values are frozen dataclasses, enums, and primitives with
    deterministic ``repr``s, so a repr-based encoding is canonical:
    two states digest equal iff they hold the same entries.  Shared
    between :meth:`Chain.state_hash` and the replication layer's
    replica images so "byte-identical to its group" is one comparison.
    """
    lines = []
    for contract_name in sorted(state):
        storages = state[contract_name]
        for storage_name in sorted(storages):
            data = storages[storage_name]
            for key in sorted(data, key=repr):
                lines.append(
                    f"{contract_name}/{storage_name}/{key!r}={data[key]!r}"
                )
    return tagged_hash("repro/state", "\n".join(lines).encode("utf-8"))


# simulator -> its VerifyAggregator (step 3 of the module docstring).
_PLANES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class VerifyAggregator:
    """One simulator's same-instant signature verification.

    Everything due at one simulated instant is filed here and settled
    by one merged check:

    * a block producer (a :class:`Chain`, the CBC log) files a reader of
      its pending claims — one list of ``(public_key, message,
      signature)`` triples per transaction or log entry, to be certified
      only — under the boundary it schedules (:meth:`schedule_block`);
    * a market mempool's seal files its block's order groups with a
      callback under ``now`` (:meth:`enqueue`); the instant's first such
      filing schedules a ``market/verify-flush`` event at ``now``, which
      runs after every seal there and before the next block executes.

    The first producer to run at an instant, or that flush, settles it
    (:meth:`settle`): claims go through
    :func:`~repro.crypto.schnorr.batch_verify_many` in this process,
    whose verdict store they warm, and waiting groups through the
    ``verify_many`` hook, whose verdicts go back to each filing in
    order.  A later producer at the same instant certifies only its own
    claims.  Blocks sit on the grid and seals on the half-grid, so an
    instant holds one kind of filing in practice.

    ``key_tables`` is the simulator's store of recurring public keys'
    odd-power tables (:func:`repro.crypto.fastexp.key_table`), handed to
    every ``batch_verify_many`` made for this simulator — both of
    ``settle``'s paths and the CBC log's own check — so each signing key
    builds its table once per run, on first use.  It holds keys only,
    never a commitment, and dies with the plane, which dies with the
    simulator.

    ``verify_many`` takes ``[(owner, group), ...]`` and returns each
    group's own validity, in order; the ``processes`` backend plugs its
    verify pool in here, one worker per owner shard.  In ``stats``,
    ``batches`` counts enqueued blocks, ``flushes`` the settlements that
    answered some, ``merged_*`` those (and their blocks) answering more
    than one, and ``isolation_fallbacks`` those in which a group failed.

    One per simulator (:meth:`of`), holding it and ``telemetry``
    weakly: a telemetry object holds its market, which holds the
    simulator keying this plane.
    """

    def __init__(self, simulator: Simulator):
        self._simulator = weakref.ref(simulator)
        # instant -> (claim readers, [(groups, on_verdicts, owner), ...])
        self._due: dict[float, tuple[list, list]] = {}
        self._flush_scheduled = False
        self._telemetry = lambda: None
        # The hook closes over the store, not the plane: no cycle, so
        # the plane goes the moment its simulator does.
        key_tables: dict[int, list[int]] = {}
        self.key_tables = key_tables
        self.verify_many = lambda owned: batch_verify_many(
            [g for _, g in owned], key_tables
        )
        self.stats = dict.fromkeys(
            ("flushes", "batches", "merged_flushes", "merged_batches",
             "isolation_fallbacks"), 0,
        )

    @classmethod
    def of(cls, simulator: Simulator) -> "VerifyAggregator":
        """``simulator``'s aggregator, made on first use."""
        if simulator not in _PLANES:
            _PLANES[simulator] = cls(simulator)
        return _PLANES[simulator]

    @property
    def telemetry(self):
        """A ``repro.telemetry.Telemetry`` told each flush's merge width
        and signature count, or ``None``."""
        return self._telemetry()

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        self._telemetry = (lambda: None) if telemetry is None else weakref.ref(telemetry)

    def schedule_block(self, interval: float, produce, claims, label: str) -> None:
        """Schedule ``produce`` at the next multiple of ``interval`` on the
        global clock grid and file ``claims`` as due at that instant."""
        simulator = self._simulator()
        boundary = (int(simulator.now / interval) + 1) * interval
        handle = simulator.schedule_at(boundary, produce, label=label)
        # Filed under the event's own time, which is what ``now`` will read.
        self._filings(handle.time)[0].append(claims)

    def enqueue(self, groups: list, on_verdicts, owner: int = 0) -> None:
        """File one sealed block's groups (an order's signatures each);
        ``on_verdicts([ok, …])`` at ``now``.  ``owner`` is the block's
        shard — all a plugged ``verify_many`` needs to partition work."""
        simulator = self._simulator()
        self._filings(simulator.now)[1].append((groups, on_verdicts, owner))
        self.stats["batches"] += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            simulator.schedule_at(simulator.now, self._flush, label="market/verify-flush")

    def _filings(self, at: float) -> tuple[list, list]:
        return self._due.setdefault(at, ([], []))

    def _flush(self) -> None:
        self._flush_scheduled = False
        self.settle()

    def settle(self, claims=None) -> None:
        """Settle everything filed for ``now``; ``claims``, the calling
        producer's own reader, stands in if that was done already."""
        readers, waiting = self._due.pop(
            self._simulator().now, ([claims] if claims else [], [])
        )
        certify = [group for pending in readers for group in pending()]
        if certify:
            batch_verify_many(certify, self.key_tables)
        if not waiting:
            return
        self.stats["flushes"] += 1
        owned = [(owner, group) for groups, _, owner in waiting for group in groups]
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.verify_flush(len(waiting), sum(len(g) for _, g in owned))
        if len(waiting) > 1:
            self.stats["merged_flushes"] += 1
            self.stats["merged_batches"] += len(waiting)
        verdicts = self.verify_many(owned)
        if not all(verdicts):
            self.stats["isolation_fallbacks"] += 1
        answers = iter(verdicts)
        for groups, on_verdicts, _ in waiting:
            on_verdicts([next(answers) for _ in groups])


def _well_formed(claim) -> bool:
    match claim:
        case (PublicKey(), bytes(), Signature()):
            return True
    return False


class Chain:
    """A single blockchain: contracts, blocks, and observers."""

    def __init__(
        self,
        chain_id: str,
        simulator: Simulator,
        wallet: Wallet,
        block_interval: float = 1.0,
    ):
        if block_interval <= 0:
            raise ChainError("block interval must be positive")
        self.chain_id = chain_id
        self.simulator = simulator
        self.wallet = wallet
        self.block_interval = block_interval
        self.gas_schedule = GasSchedule.paper()
        self._contracts: dict[str, Contract] = {}
        self._mempool: list[Transaction] = []
        self._blocks: list[Block] = []
        self._observers: list[BlockObserver] = []
        self._block_scheduled = False
        self._verify = VerifyAggregator.of(simulator)
        self.active_journal: _TxJournal | None = None
        self._receipts_by_tx: dict[int, Receipt] = {}
        # Replication hook: when set, publications and committed writes
        # are emitted as state deltas (see module docstring for shape).
        self.delta_observer: DeltaObserver | None = None
        self._pending_writes: dict[tuple, bool] = {}
        genesis = Block.build(chain_id, 0, b"\x00" * 32, [], simulator.now)
        self._blocks.append(genesis)

    # ------------------------------------------------------------------
    # Contract management
    # ------------------------------------------------------------------
    def publish(self, contract: Contract) -> Contract:
        """Deploy ``contract`` on this chain (setup-time, unmetered)."""
        if contract.name in self._contracts:
            raise ChainError(f"contract {contract.name!r} already published")
        contract.attach(self)
        self._contracts[contract.name] = contract
        if self.delta_observer is not None:
            # Publications write initial state outside any journal
            # (e.g. an escrow manager's ACTIVE flag), so followers get
            # the full contract image as an init delta.
            self.delta_observer(
                self,
                {
                    "kind": "init",
                    "chain": self.chain_id,
                    "contract": contract.name,
                    "state": contract.snapshot_state(),
                },
            )
        return contract

    def contract(self, name: str) -> Contract:
        """Look up a published contract by name."""
        try:
            return self._contracts[name]
        except KeyError:
            raise UnknownContractError(
                f"chain {self.chain_id!r} has no contract {name!r}"
            ) from None

    def has_contract(self, name: str) -> bool:
        """Whether a contract named ``name`` is published here."""
        return name in self._contracts

    # ------------------------------------------------------------------
    # Block clock
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """The current chain height (genesis = 0)."""
        return self._blocks[-1].height

    @property
    def chain_time(self) -> float:
        """The chain's imprecise clock (paper §5: "block height ×
        average block rate").

        Blocks are produced on a fixed grid, so the height a
        continuously producing chain would have reached is
        ``floor(now / interval)``; the clock is that height times the
        interval.  (Block *objects* are only materialized on demand —
        an optimization that does not affect observable time.)
        """
        return float(int(self.simulator.now / self.block_interval)) * self.block_interval

    @property
    def blocks(self) -> tuple[Block, ...]:
        """All blocks produced so far."""
        return tuple(self._blocks)

    def receipt_for(self, tx_id: int) -> Receipt | None:
        """Fetch the receipt of an executed transaction, if any."""
        return self._receipts_by_tx.get(tx_id)

    # ------------------------------------------------------------------
    # Transaction flow
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction) -> None:
        """Queue ``tx`` for inclusion in the next block."""
        self._mempool.append(tx)
        self._ensure_block_scheduled()

    def _ensure_block_scheduled(self) -> None:
        if self._block_scheduled:
            return
        self._block_scheduled = True
        self._verify.schedule_block(
            self.block_interval,
            self._produce_block,
            self._pending_claims,
            f"{self.chain_id}/block",
        )

    def _produce_block(self) -> None:
        self._block_scheduled = False
        self._verify.settle(self._pending_claims)
        pending, self._mempool = self._mempool, []
        height = self.height + 1
        receipts = [self._execute(tx, height) for tx in pending]
        block = Block.build(
            self.chain_id,
            height,
            self._blocks[-1].hash(),
            receipts,
            self.simulator.now,
        )
        self._blocks.append(block)
        for receipt in receipts:
            self._receipts_by_tx[receipt.tx.tx_id] = receipt
        # Ship the block's write-set before observers run: observers
        # may publish contracts or submit follow-up work, and replicas
        # must see this block's state first.
        self._flush_delta("block")
        for observer in list(self._observers):
            observer(self, block)
        if self._mempool:
            self._ensure_block_scheduled()

    def _pending_claims(self) -> list:
        return [self._signature_claims(tx) for tx in self._mempool]

    def _signature_claims(self, tx: Transaction) -> list:
        """The well-formed triples ``tx``'s contract declares: a claim is
        a hint, and malformed arguments are the method's to refuse."""
        contract = self._contracts.get(tx.contract)
        if contract is None:
            return []
        try:
            return [
                claim
                for claim in contract.signature_claims(tx.method, tx.args)
                if _well_formed(claim)
            ]
        except Exception:
            return []

    def _execute(self, tx: Transaction, height: int) -> Receipt:
        meter = GasMeter(schedule=self.gas_schedule)
        journal = _TxJournal(meter)
        ctx = CallContext(self, tx.sender, journal, height)
        self.active_journal = journal
        try:
            meter.charge_call()
            contract = self.contract(tx.contract)
            value = contract.invoke(ctx, tx.method, dict(tx.args))
        except ContractError as exc:
            journal.rollback()
            return Receipt(
                tx=tx,
                status=TxStatus.REVERTED,
                gas=meter.snapshot(),
                block_height=height,
                executed_at=self.simulator.now,
                error=str(exc),
            )
        finally:
            self.active_journal = None
        if self.delta_observer is not None:
            # Reverted txs roll back, so only committed writes reach
            # the replication write-set.
            for storage, key, _old in journal._undo:
                self._pending_writes[(storage, key)] = True
        return Receipt(
            tx=tx,
            status=TxStatus.SUCCESS,
            gas=meter.snapshot(),
            block_height=height,
            executed_at=self.simulator.now,
            return_value=value,
            events=tuple(journal.events),
        )

    def _flush_delta(self, kind: str) -> None:
        """Emit the accumulated write-set as one delta, then clear it."""
        observer = self.delta_observer
        if observer is None or not self._pending_writes:
            self._pending_writes = {}
            return
        writes: list[tuple] = []
        deletes: list[tuple] = []
        ordered = sorted(
            self._pending_writes,
            key=lambda item: (
                item[0]._contract.name,
                item[0]._name,
                repr(item[1]),
            ),
        )
        for storage, key in ordered:
            value = storage._data.get(key, _MISSING)
            entry = (storage._contract.name, storage._name, key)
            if value is _MISSING:
                deletes.append(entry)
            else:
                writes.append(entry + (value,))
        self._pending_writes = {}
        observer(
            self,
            {
                "kind": kind,
                "chain": self.chain_id,
                "height": self.height,
                "writes": writes,
                "deletes": deletes,
            },
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (crash recovery)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, dict]]:
        """Copy the full contract state: ``{contract: {storage: data}}``."""
        return {
            name: contract.snapshot_state()
            for name, contract in sorted(self._contracts.items())
        }

    def restore(self, state: dict[str, dict[str, dict]]) -> None:
        """Reset every published contract's storage to ``state``.

        Contracts published after the snapshot was taken are wiped to
        empty (they did not exist at snapshot time), so the restored
        chain digests equal to the snapshot.
        """
        for name, contract in self._contracts.items():
            contract.restore_state(state.get(name, {}))

    def state_hash(self) -> bytes:
        """Canonical digest of the chain's contract state."""
        return digest_state(self.snapshot())

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def subscribe(self, observer: BlockObserver) -> None:
        """Receive every future block (at production time; callers who
        model propagation delay should wrap the observer)."""
        self._observers.append(observer)

    def unsubscribe(self, observer: BlockObserver) -> None:
        """Stop receiving block notifications."""
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Convenience for setup code and tests (bypasses the network)
    # ------------------------------------------------------------------
    def execute_now(self, tx: Transaction) -> Receipt:
        """Execute ``tx`` immediately, outside block production.

        Used by setup code (minting test tokens) and by unit tests that
        want synchronous behaviour; protocol code always goes through
        :meth:`submit`.
        """
        receipt = self._execute(tx, self.height + 1)
        self._receipts_by_tx[receipt.tx.tx_id] = receipt
        self._flush_delta("exec")
        return receipt
