"""Per-deal commit-protocol drivers for the concurrent market.

PR 2's market committed every deal through a simplified
unanimity-order flow (one vote per party on a shared commit log).
This module drives the paper's two *real* atomic cross-chain commit
protocols through the same per-chain
:class:`~repro.market.mempool.StepMempool`\\ s and shared block space:

* :class:`TimelockDealDriver` — §5's timelock protocol.  One
  :class:`~repro.core.timelock.TimelockEscrow` is published per
  (deal, asset) with a common start time ``t0`` and deadline unit Δ;
  deposits and tentative transfers flow through the mempools, then
  every party's commit vote — a path signature from
  :mod:`repro.crypto.pathsig` — is submitted to **every** escrow of
  the deal (the O(n·m) vote fan-out of §7.1).  An escrow releases in
  the transaction that carries its last missing vote; a withheld vote
  means no escrow ever releases and the driver's refund sweep at the
  terminal deadline ``t0 + N·Δ`` refunds every deposit.

* :class:`CbcDealDriver` — §6's CBC protocol.  The deal is started on
  its home shard's :class:`~repro.consensus.bft.CertifiedBlockchain`
  (one ``startDeal`` entry — the unsharded market has exactly one
  such CBC), one
  :class:`~repro.core.cbc.CbcEscrow` is published per (deal, asset)
  with the definitive start hash and the CBC's initial validator keys,
  and parties vote commit (or abort) *on the CBC*, which batch-checks
  every vote arriving in a block interval with one combined Schnorr
  verification at block production (see
  :meth:`repro.consensus.bft.CertifiedBlockchain.submit`).  Once the CBC log
  is decisive, the driver extracts a quorum-signed
  :class:`~repro.core.proofs.StatusProof` and submits one
  proof-carrying commit/abort transaction per escrow; each proof is
  verified inside the block that executes it.  A stale-proof forger
  submits a certificate bound to a stale start hash before the deal
  decides — the contract must reject it.

Both drivers resolve contention the same way the book does: a deposit
that reverts (another deal drained the owner's wallet balance first)
is an escrow conflict, and the deal unwinds with every successful
deposit refunded — by terminal timeout for the timelock protocol (it
has no abort vote; §5) and by an abort vote plus abort proofs for the
CBC.

Faithfulness caveat (§5): timelock atomicity rests on the paper's Δ
assumption — a vote submitted in time must *execute* within Δ.  The
market submits direct (path length 1) votes and does not forward late
votes, so ``MarketConfig.timelock_delta`` must exceed the pipeline
depth (~3 block intervals) plus the worst mempool backlog; if a
congested chain pushes a vote past ``t0 + Δ`` while quieter chains
accept theirs, the deal settles non-atomically and the uniformity
invariant (:mod:`repro.market.invariants`) reports it — exactly the
failure mode the paper predicts when Δ is violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from repro.chain.tx import Receipt, Transaction
from repro.consensus.bft import DealStatus, LogEntry, StatusCertificate
from repro.core.cbc import CbcEscrow
from repro.core.escrow import EscrowState
from repro.core.proofs import StatusProof
from repro.core.timelock import TimelockEscrow
from repro.crypto.hashing import hash_concat
from repro.crypto.pathsig import sign_vote
from repro.market.order import SignedDealOrder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.market.runtime import MarketCoordinator


class DealPhase(Enum):
    """Lifecycle of one deal inside the market."""

    REGISTERING = "registering"
    ESCROW = "escrow"
    TRANSFER = "transfer"
    VOTING = "voting"
    SETTLING = "settling"
    COMMITTED = "committed"
    ABORTED = "aborted"
    REJECTED = "rejected"


_TERMINAL = {DealPhase.COMMITTED, DealPhase.ABORTED, DealPhase.REJECTED}


@dataclass
class _DealRun:
    """Coordinator-internal state machine for one deal."""

    order: SignedDealOrder
    phase: DealPhase = DealPhase.REGISTERING
    opens_expected: int = 0
    opens_done: int = 0
    transfers_expected: int = 0
    transfers_done: int = 0
    decided: str | None = None
    abort_requested: bool = False
    abort_retries: int = 0
    conflict: bool = False
    reason: str = ""
    claim_chains: tuple[str, ...] = ()
    settled_chains: set = field(default_factory=set)
    finished_at: float | None = None
    # §5 sore loser: a timelock deal whose escrows settled non-uniformly
    # (released on one chain, refunded at deadline on another).  Only
    # crash-gated sealing can produce it; fault-free runs treat it as
    # an invariant violation.
    sore_loser: bool = False
    # Fee market: a base-fee mempool evicted one of the deal's steps
    # (its co-signed bid can never clear the base-fee floor).  A
    # measured outcome like sore losers, never a safety violation.
    priced_out: bool = False
    patience_handle: object = None
    # Sharding: the deal's home shard (where it registers and votes)
    # and whether its escrows straddle books owned by other shards.
    home_shard: int = 0
    cross_shard: bool = False
    # Timelock/CBC runs delegate their phase logic to a protocol driver
    # (repro.market.protocols); unanimity runs keep driver = None.
    driver: DealDriver | None = None

    @property
    def protocol(self) -> str:
        return self.order.spec.protocol

    @property
    def terminal(self) -> bool:
        return self.phase in _TERMINAL


class DealDriver:
    """Shared machinery: per-deal escrow contracts behind the mempools.

    Drivers never touch a shard's mempool directly: every escrow step
    and vote goes through the coordinator's typed submit methods
    (:meth:`~repro.market.runtime.MarketCoordinator.submit_escrow_op`,
    :meth:`~repro.market.runtime.MarketCoordinator.submit_vote`), which
    route it over the shard bus to the owning
    :class:`~repro.market.runtime.ShardRuntime`.  Chain *reads* (escrow
    state peeks for sweeps and invariants) stay direct — they are
    observations, not market traffic.
    """

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        self.scheduler = scheduler
        self.run = run
        self.spec = run.order.spec
        self.deal_id = self.spec.deal_id
        # asset_id -> on-chain escrow contract name, once published.
        self.escrow_names: dict[str, str] = {}
        self.deposits_done = 0
        self.transfers_done = 0
        self.released: set[str] = set()
        self.refunded: set[str] = set()
        self.escrow_failed = False

    # ------------------------------------------------------------------
    # Shared escrow plumbing
    # ------------------------------------------------------------------
    def _publish_escrows(self, factory) -> None:
        """Publish one escrow contract per asset and queue its funding.

        ``factory(asset, name)`` builds the protocol's contract.  The
        approve and deposit steps ride the asset chain's mempool in
        order, so they execute back to back inside one block.
        """
        scheduler = self.scheduler
        for asset in self.spec.assets:
            name = self.spec.escrow_contract_name(asset.asset_id)
            contract = factory(asset, name)
            scheduler.publish_deal_escrow(asset.chain_id, contract, self.deal_id,
                                          asset.asset_id)
            self.escrow_names[asset.asset_id] = name
            if asset.owner in self.run.order.no_show:
                continue  # adversarial owner: never escrows
            scheduler.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=asset.owner, contract=asset.token, method="approve",
                    args={"spender": contract.address, "amount": asset.amount},
                    phase="market/escrow-approve",
                ),
                self.deal_id,
                op="approve",
            )
            scheduler.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=asset.owner, contract=name, method="deposit",
                    args={}, phase="market/escrow",
                ),
                self.deal_id,
                op="deposit",
            )

    def _phase_change(self, phase: str, at: float) -> None:
        telemetry = self.scheduler.telemetry
        if telemetry is not None:
            telemetry.deal_phase(self.run, phase, at)

    def _submit_transfers(self) -> None:
        self.run.phase = DealPhase.TRANSFER
        self._phase_change("transfer", self.scheduler.simulator.now)
        if not self.spec.steps:
            self._start_voting()
            return
        for step in self.spec.steps:
            asset = self.spec.asset(step.asset_id)
            self.scheduler.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=step.giver,
                    contract=self.escrow_names[step.asset_id],
                    method="transfer",
                    args={"to": step.receiver, "amount": step.amount},
                    phase="market/transfer",
                ),
                self.deal_id,
                op="transfer",
            )

    def _on_deposit(self, receipt: Receipt) -> None:
        if not receipt.ok:
            # Another deal drained the owner's wallet balance first —
            # the per-deal analogue of the book's escrow conflict.
            if not self.escrow_failed:
                self.escrow_failed = True
                self.run.conflict = True
                if not self.run.reason:
                    self.run.reason = "conflict"
                self._on_escrow_conflict()
            return
        self.deposits_done += 1
        if self.deposits_done == len(self.spec.assets):
            self._submit_transfers()

    def _on_transfer(self, receipt: Receipt) -> None:
        if not receipt.ok:
            if not self.run.reason:
                self.run.reason = "transfer-failed"
            return
        self.transfers_done += 1
        if self.transfers_done == len(self.spec.steps):
            self._start_voting()

    def _note_settled(self, asset_id: str, receipt: Receipt) -> None:
        """Record a Released/Refunded event and finish when uniform."""
        for event in receipt.events:
            if event.name == "Released":
                self.released.add(asset_id)
            elif event.name == "Refunded":
                self.refunded.add(asset_id)
        if len(self.released) + len(self.refunded) < len(self.spec.assets):
            return
        # Timelock has no prior decision point, so the settled pattern
        # *is* the decision; a CBC deal keeps what its claim decided
        # (so a non-uniform settlement still reports against it).
        # A *mixed* timelock settlement — some escrows released, the
        # rest refunded at deadline — is §5's sore-loser outcome: the
        # votes made one chain in time and missed another.  Honest
        # infrastructure never produces it; the invariant sweep only
        # tolerates it when crash faults gated sealing mid-deal.
        if self.run.protocol == "timelock" and 0 < len(self.released) < len(
            self.spec.assets
        ):
            self.run.sore_loser = True
        if len(self.released) == len(self.spec.assets):
            if self.run.decided is None:
                self.run.decided = "commit"
            self.scheduler.finish(self.run, DealPhase.COMMITTED, "",
                                  receipt.executed_at)
        else:
            if self.run.decided is None:
                self.run.decided = "abort"
            self.scheduler.finish(
                self.run, DealPhase.ABORTED,
                self.run.reason or "unsettled", receipt.executed_at,
            )

    def escrow_states(self) -> dict[str, EscrowState]:
        """Each asset's escrow lifecycle state (for the invariants)."""
        states = {}
        for asset in self.spec.assets:
            name = self.escrow_names.get(asset.asset_id)
            if name is None:
                states[asset.asset_id] = None
                continue
            contract = self.scheduler.chains[asset.chain_id].contract(name)
            states[asset.asset_id] = contract.peek_state()
        return states

    # -- protocol hooks -------------------------------------------------
    def on_registered(self, receipt: Receipt) -> None:
        raise NotImplementedError

    def on_escrow_receipt(self, asset_id: str, receipt: Receipt) -> None:
        raise NotImplementedError

    def on_patience(self) -> None:
        raise NotImplementedError

    def _start_voting(self) -> None:
        raise NotImplementedError

    def _on_escrow_conflict(self) -> None:
        raise NotImplementedError


class TimelockDealDriver(DealDriver):
    """Drive one deal through §5's timelock protocol on shared chains."""

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        super().__init__(scheduler, run)
        self.t0 = 0.0
        self.delta = scheduler.config.timelock_delta

    @property
    def terminal_deadline(self) -> float:
        """``t0 + N·Δ``: when refunds become possible (§5)."""
        return self.t0 + len(self.spec.parties) * self.delta

    def on_registered(self, receipt: Receipt) -> None:
        self.run.phase = DealPhase.ESCROW
        self._phase_change("escrow", receipt.executed_at)
        self.t0 = receipt.executed_at
        self._publish_escrows(
            lambda asset, name: TimelockEscrow(
                name, self.deal_id, self.spec.parties, asset,
                t0=self.t0, delta=self.delta,
            )
        )
        # The protocol's only liveness guarantee: at the terminal
        # deadline no missing vote can ever be accepted, so whatever is
        # still active refunds.  One sweep per deal settles stragglers.
        self.scheduler.simulator.schedule_at(
            self.terminal_deadline, self._refund_sweep,
            label="market/timelock-terminal",
        )

    def _on_escrow_conflict(self) -> None:
        # No abort vote exists in the timelock protocol: timeouts play
        # that role (§5), so the deal just waits for its terminal sweep.
        pass

    def _start_voting(self) -> None:
        self.run.phase = DealPhase.VOTING
        self._phase_change("voting", self.scheduler.simulator.now)
        scheduler = self.scheduler
        for party in self.run.order.voters():
            # A direct vote: path length 1, deadline t0 + Δ.  The
            # market plays the parties, so votes need no forwarding;
            # forwarded (longer) paths are exercised by the per-deal
            # executor and the protocol tests.
            path = sign_vote(scheduler.keypair_for(party), self.deal_id)
            for asset in self.spec.assets:
                scheduler.submit_vote(
                    asset.chain_id,
                    Transaction(
                        sender=party,
                        contract=self.escrow_names[asset.asset_id],
                        method="commit",
                        args={"path": path},
                        phase="market/commit",
                    ),
                    self.deal_id,
                )

    def on_escrow_receipt(self, asset_id: str, receipt: Receipt) -> None:
        method = receipt.tx.method
        if method == "deposit":
            self._on_deposit(receipt)
        elif method == "transfer":
            self._on_transfer(receipt)
        elif method == "commit":
            # A rejected vote (late past its path deadline, duplicate,
            # or bounced off a terminated escrow) needs no action: the
            # terminal sweep settles whatever did not release.
            if receipt.ok:
                self._note_settled(asset_id, receipt)
        elif method == "refund":
            if receipt.ok:
                self._note_settled(asset_id, receipt)

    def on_patience(self) -> None:
        # Patience is the unanimity/CBC escape hatch; the timelock
        # protocol's own terminal deadline is the refund trigger.
        pass

    def _refund_sweep(self) -> None:
        if self.run.terminal:
            return
        # The terminal deadline is the §5 timeout, not a scheduler
        # patience expiry — keep the reasons (and the report's
        # "patience timeouts" row) distinct.
        if not self.run.reason:
            self.run.reason = "deadline"
        scheduler = self.scheduler
        scheduler.stats["timelock_refund_sweeps"] += 1
        telemetry = scheduler.telemetry
        if telemetry is not None:
            telemetry.deal_event(
                self.deal_id, "refund-sweep", deadline=self.terminal_deadline
            )
        for asset in self.spec.assets:
            name = self.escrow_names[asset.asset_id]
            contract = scheduler.chains[asset.chain_id].contract(name)
            if contract.peek_state() is not EscrowState.ACTIVE:
                continue
            scheduler.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=scheduler.coordinator.address, contract=name,
                    method="refund", args={}, phase="market/refund",
                ),
                self.deal_id,
                op="refund",
            )


class CbcDealDriver(DealDriver):
    """Drive one deal through §6's CBC protocol on shared chains."""

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        super().__init__(scheduler, run)
        self.start_hash: bytes | None = None
        self.abort_vote_sent = False
        self.abort_when_started = False
        self._stale_proof: "StatusProof | None" = None
        # The deal resolves against its home shard's CBC and nothing
        # else: its escrows learn that CBC's validator keys, so a
        # proof replayed from another shard's log cannot verify.
        self.cbc = None

    def on_registered(self, receipt: Receipt) -> None:
        self.run.phase = DealPhase.ESCROW
        self._phase_change("escrow", receipt.executed_at)
        cbc = self.cbc = self.scheduler.ensure_cbc(self.run.home_shard)
        opener = self.spec.parties[0]
        entry = LogEntry(
            kind="startDeal", deal_id=self.deal_id, party=opener,
            plist=self.spec.parties,
        )
        cbc.submit(replace(
            entry,
            signature=self.scheduler.keypair_for(opener).sign(entry.message()),
        ))

    def on_cbc_block(self) -> None:
        """React to new CBC state: the start landing, then the decision."""
        cbc = self.cbc
        if cbc is None:
            # The shard's CBC (created by an earlier deal) is already
            # producing blocks, but this deal's registration has not
            # sealed yet — nothing to react to.
            return
        if self.start_hash is None:
            start_hash = cbc.definitive_start_hash(self.deal_id)
            if start_hash is None:
                return
            self.start_hash = start_hash
            self._publish_escrows(
                lambda asset, name: CbcEscrow(
                    name, self.deal_id, self.spec.parties, asset,
                    start_hash=start_hash,
                    validator_keys=cbc.initial_public_keys,
                )
            )
            if self.abort_when_started:
                # An abort requested before the startDeal landed could
                # not reference the definitive start hash; cast it now.
                self.abort_when_started = False
                self._request_abort()
            return
        if self.run.decided is not None or self.run.terminal:
            return
        status = cbc.deal_status(self.deal_id, self.start_hash)
        if status is DealStatus.COMMITTED:
            self._claim("commit")
        elif status is DealStatus.ABORTED:
            self._claim("abort")

    def _claim(self, outcome: str) -> None:
        self.run.decided = outcome
        self.run.phase = DealPhase.SETTLING
        self._phase_change("settling", self.scheduler.simulator.now)
        certificate = self.cbc.status_certificate(self.deal_id)
        proof = StatusProof(certificate=certificate)
        for asset in self.spec.assets:
            self.scheduler.submit_escrow_op(
                asset.chain_id,
                Transaction(
                    sender=self.scheduler.coordinator.address,
                    contract=self.escrow_names[asset.asset_id],
                    method=outcome,
                    args={"proof": proof},
                    phase=f"market/{outcome}-claim",
                ),
                self.deal_id,
                op=outcome,
            )

    def _vote(self, party, kind: str) -> None:
        entry = LogEntry(
            kind=kind, deal_id=self.deal_id, party=party,
            start_hash=self.start_hash or b"",
        )
        self.cbc.submit(replace(
            entry,
            signature=self.scheduler.keypair_for(party).sign(entry.message()),
        ))

    def _start_voting(self) -> None:
        self.run.phase = DealPhase.VOTING
        self._phase_change("voting", self.scheduler.simulator.now)
        for party in self.run.order.voters():
            self._vote(party, "commit")
        for forger in self.run.order.stale_proof:
            self._forge_stale_proof(forger)

    def _forge_stale_proof(self, forger) -> None:
        """Present a certificate bound to a stale start hash (§6.2).

        The certificate is genuinely quorum-signed — the attack is the
        *binding*: it certifies a superseded ``startDeal``, so the
        escrow's start-hash check must reject it before any signature
        is even considered.  The forged certificate is built once per
        deal and reused by every forger in the plist (the attack bytes
        are identical, so re-signing per forger is pure waste).
        """
        if self._stale_proof is None:
            stale_start = hash_concat(b"repro/market/stale-start", self.deal_id)
            validators = self.cbc.validators
            message = StatusCertificate.message(
                self.deal_id, stale_start, DealStatus.COMMITTED, validators.epoch
            )
            self._stale_proof = StatusProof(certificate=StatusCertificate(
                deal_id=self.deal_id,
                start_hash=stale_start,
                status=DealStatus.COMMITTED,
                epoch=validators.epoch,
                signatures=validators.quorum_sign(message),
            ))
        target = self.spec.assets[0]
        self.scheduler.submit_escrow_op(
            target.chain_id,
            Transaction(
                sender=forger,
                contract=self.escrow_names[target.asset_id],
                method="commit",
                args={"proof": self._stale_proof},
                phase="market/stale-proof",
            ),
            self.deal_id,
            op="stale-proof",
        )

    def _on_escrow_conflict(self) -> None:
        self._request_abort()

    def _request_abort(self) -> None:
        if self.abort_vote_sent or self.run.decided is not None:
            return
        if self.start_hash is None:
            self.abort_when_started = True
            return
        self.abort_vote_sent = True
        # Any party may rescind; the first non-withholding party plays
        # the role of the one who wants its escrow back.
        voters = self.run.order.voters() or self.spec.parties
        self._vote(voters[0], "abort")

    def on_escrow_receipt(self, asset_id: str, receipt: Receipt) -> None:
        if receipt.tx.phase == "market/stale-proof":
            if receipt.ok:
                # The contract accepted a stale proof: a safety break
                # the invariants must surface, never silently absorb.
                self.scheduler.protocol_violations.append(
                    f"deal #{self.run.order.index}: stale proof accepted "
                    f"by {receipt.tx.contract}"
                )
            else:
                self.scheduler.stats["stale_proofs_rejected"] += 1
            return
        method = receipt.tx.method
        if method == "deposit":
            self._on_deposit(receipt)
        elif method == "transfer":
            self._on_transfer(receipt)
        elif method in ("commit", "abort"):
            if receipt.ok:
                self._note_settled(asset_id, receipt)

    def on_patience(self) -> None:
        if self.run.decided is None and not self.run.terminal:
            if not self.run.reason:
                self.run.reason = "timeout"
            self._request_abort()
