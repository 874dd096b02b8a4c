"""The deal state machine: one :class:`DealDriver` per deal.

The paper gives every deal the same phase skeleton — clearing →
escrow → transfer → validation → commit — and lets only the *commit*
phase differ between protocols.  The market mirrors that: the
coordinator (:mod:`repro.market.runtime`) admits an order, looks its
protocol up in :data:`DRIVERS`, and from then on calls only the
driver's hooks — ``on_registered``, ``on_escrow_receipt``,
``on_patience`` (plus :meth:`CbcDealDriver.on_cbc_block`).  All three
drivers run through the same per-chain
:class:`~repro.market.mempool.StepMempool`\\ s and shared block space:

* :class:`UnanimityDealDriver` — the market's own unanimity flow.
  Escrows open in each chain's shared
  :class:`~repro.market.book.MarketEscrowBook`, every party casts one
  vote on the home shard's
  :class:`~repro.market.commitlog.MarketCommitLog`, the log decides
  exactly once (the last vote commits; an abort mark — cast on an
  escrow conflict, a failed transfer or patience expiry — aborts),
  and the driver claims the decision on every book the deal touched.

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
  (one ``startDeal`` entry), one :class:`~repro.core.cbc.CbcEscrow` is
  published per (deal, asset) with the definitive start hash and the
  CBC's initial validator keys, and parties vote commit (or abort)
  *on the CBC*, which batch-checks a block interval's votes with one
  combined Schnorr verification at block production.  Once the CBC
  log is decisive, the driver extracts a quorum-signed
  :class:`~repro.core.proofs.StatusProof` and submits one
  proof-carrying commit/abort transaction per escrow; each proof is
  verified inside the block that executes it.  A stale-proof forger
  submits a certificate bound to a stale start hash before the deal
  decides — the contract must reject it.

All three resolve contention the same way: an escrow step that
reverts (another deal drew on the owner's balance first) is an escrow
conflict, and the deal unwinds with every successful escrow refunded —
by an abort mark on the commit log for unanimity, by terminal timeout
for the timelock protocol (it has no abort vote; §5) and by an abort
vote plus abort proofs for the CBC.

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

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.chain.tx import Receipt, Transaction
from repro.consensus.bft import DealStatus, LogEntry, StatusCertificate
from repro.core.cbc import CbcEscrow
from repro.core.deal import PROTOCOL_CBC, PROTOCOL_TIMELOCK, PROTOCOL_UNANIMITY
from repro.core.escrow import EscrowState
from repro.core.proofs import StatusProof
from repro.core.timelock import TimelockEscrow
from repro.crypto.hashing import hash_concat
from repro.crypto.pathsig import sign_vote
from repro.market.book import ABORTED, BOOK_CONTRACT, COMMITTED
from repro.market.order import SignedDealOrder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.market.runtime import MarketCoordinator

# How often a reverted abort mark (cast before the registration landed)
# is re-cast before the deal is left to its patience timer.
_ABORT_RETRY_LIMIT = 5


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
    """What the coordinator knows about one deal, whatever its protocol.

    Progress counters, retry budgets and settlement sets belong to the
    deal's :class:`DealDriver`; a run without a driver is a malformed
    order, rejected at admission.
    """

    order: SignedDealOrder
    phase: DealPhase = DealPhase.REGISTERING
    decided: str | None = None
    conflict: bool = False
    reason: str = ""
    claim_chains: tuple[str, ...] = ()
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
    driver: DealDriver | None = None

    @property
    def protocol(self) -> str:
        return self.order.spec.protocol

    @property
    def terminal(self) -> bool:
        return self.phase in _TERMINAL


class DealDriver:
    """One deal's phase engine; the coordinator only calls the hooks.

    Drivers never touch a shard's mempool directly: every transaction
    they build goes through :meth:`_submit`, i.e. the coordinator's
    :meth:`~repro.market.runtime.MarketCoordinator.submit_step`, which
    routes it over the shard bus to the owning
    :class:`~repro.market.shard.ShardRuntime`.  Chain *reads* (escrow
    state peeks for sweeps and invariants) stay direct — they are
    observations, not market traffic.
    """

    # Whether admission arms the coordinator's patience timer (whose
    # expiry calls :meth:`on_patience`) for deals of this protocol.
    arms_patience = True

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        self.scheduler = scheduler
        self.run = run
        self.spec = run.order.spec
        self.deal_id = self.spec.deal_id
        self.transfers_done = 0

    def _submit(self, chain_id: str, sender, contract: str, method: str,
                phase: str, **args) -> None:
        """Build one step transaction and route it to its chain."""
        self.scheduler.submit_step(
            chain_id,
            Transaction(sender=sender, contract=contract, method=method,
                        args=args, phase=phase),
            self.deal_id,
        )

    def _enter(self, phase: DealPhase, at: float) -> None:
        self.run.phase = phase
        telemetry = self.scheduler.telemetry
        if telemetry is not None:
            telemetry.deal_phase(self.run, phase.value, at)

    # -- the interface the coordinator and the invariant sweep use ------
    def on_registered(self, receipt: Receipt) -> None:
        """The order cleared its signature checks and registered."""
        raise NotImplementedError

    def on_escrow_receipt(self, asset_id: str, receipt: Receipt) -> None:
        """One of the deal's steps executed (or reverted) on a chain.

        ``asset_id`` names the asset of a per-deal escrow contract; it
        is empty for book and commit-log receipts."""
        raise NotImplementedError

    def on_patience(self) -> None:
        """The coordinator's patience timer for this deal expired."""
        raise NotImplementedError

    def settlement_disagreements(self) -> dict:
        """Where the deal's escrows sit in a state contradicting
        ``run.decided`` — empty when the outcome is uniform."""
        raise NotImplementedError


class UnanimityDealDriver(DealDriver):
    """Book escrows, one vote per party on the home shard's commit log."""

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        super().__init__(scheduler, run)
        self.home_chain = scheduler.shard_home_chain[run.home_shard]
        self.log_name = scheduler.commit_logs[run.home_shard].name
        self.opens_done = 0
        self.claims_done = 0
        self.abort_requested = False
        self.abort_retries = 0

    def on_registered(self, receipt: Receipt) -> None:
        self._enter(DealPhase.ESCROW, receipt.executed_at)
        spec = self.spec
        for asset in spec.assets:
            if asset.owner in self.run.order.no_show:
                continue  # adversarial owner: never escrows
            holding = (
                {"amount": asset.amount} if asset.fungible
                else {"token_ids": asset.token_ids}
            )
            self._submit(
                asset.chain_id, asset.owner, BOOK_CONTRACT, "open",
                "market/escrow", deal_id=self.deal_id, asset_id=asset.asset_id,
                token=asset.token, parties=spec.parties, **holding,
            )

    def on_escrow_receipt(self, asset_id: str, receipt: Receipt) -> None:
        method = receipt.tx.method
        if method == "open":
            self._on_open(receipt)
        elif method == "transfer":
            self._on_transfer(receipt)
        elif method in ("vote", "mark_abort"):
            self._on_log_receipt(receipt)
        elif method in ("commit", "abort"):
            self._on_claim(receipt)

    def on_patience(self) -> None:
        self._request_abort("timeout")

    def _on_open(self, receipt: Receipt) -> None:
        run = self.run
        if not receipt.ok:
            if run.decided is not None or self.abort_requested:
                # A straggler open bouncing off an already-settled deal
                # (e.g. after a patience abort) is not a conflict.
                return
            # Escrow conflict: another deal already holds the funds.
            run.conflict = True
            self._request_abort("conflict")
            return
        self.opens_done += 1
        if run.phase is DealPhase.ESCROW and self.opens_done == len(
            self.spec.assets
        ):
            self._enter(DealPhase.TRANSFER, receipt.executed_at)
            if self.spec.steps:
                self._submit_transfers()
            else:
                self._start_voting()

    def _submit_transfers(self) -> None:
        spec = self.spec
        for step in spec.steps:
            asset = spec.asset(step.asset_id)
            moved = (
                {"amount": step.amount} if asset.fungible
                else {"token_ids": step.token_ids}
            )
            self._submit(
                asset.chain_id, step.giver, BOOK_CONTRACT, "transfer",
                "market/transfer", deal_id=self.deal_id,
                asset_id=step.asset_id, to=step.receiver, **moved,
            )

    def _on_transfer(self, receipt: Receipt) -> None:
        if not receipt.ok:
            self._request_abort("transfer-failed")
            return
        self.transfers_done += 1
        if (
            self.run.phase is DealPhase.TRANSFER
            and self.transfers_done == len(self.spec.steps)
        ):
            self._start_voting()

    def _start_voting(self) -> None:
        self._enter(DealPhase.VOTING, self.scheduler.simulator.now)
        for party in self.run.order.voters():
            self._submit(self.home_chain, party, self.log_name, "vote",
                         "market/commit", deal_id=self.deal_id)

    def _on_log_receipt(self, receipt: Receipt) -> None:
        run = self.run
        if not receipt.ok:
            # A mark_abort can only revert because the registration has
            # not landed yet or because the deal is already decided; in
            # the latter case the decision receipt precedes this one (the
            # log's state changed first), so ``decided`` is already set
            # and no retry fires.  No error-message inspection needed.
            if (
                receipt.tx.method == "mark_abort"
                and run.decided is None
                and self.abort_retries < _ABORT_RETRY_LIMIT
            ):
                self.abort_retries += 1
                self.abort_requested = False
                self.scheduler.simulator.schedule(
                    2 * self.scheduler.chains[self.home_chain].block_interval,
                    lambda: self._request_abort(run.reason or "timeout"),
                    label="market/abort-retry",
                )
            return  # a vote losing the race with an abort mark is benign
        for event in receipt.events:
            if event.name == "DealDecided":
                self._on_decided(event.fields["outcome"], receipt.executed_at)

    def _request_abort(self, reason: str) -> None:
        run = self.run
        if self.abort_requested or run.decided is not None or run.terminal:
            return
        self.abort_requested = True
        if not run.reason:
            run.reason = reason
        self._submit(
            self.home_chain, self.scheduler.coordinator.address, self.log_name,
            "mark_abort", "market/abort", deal_id=self.deal_id,
        )

    def _on_decided(self, outcome: str, at: float) -> None:
        if self.run.decided is not None:
            return
        self.run.decided = outcome
        self._enter(DealPhase.SETTLING, at)
        method = "commit" if outcome == "commit" else "abort"
        # One claim per book the deal touched, in spec order.
        for chain_id in self.run.claim_chains:
            self._submit(
                chain_id, self.scheduler.coordinator.address, BOOK_CONTRACT,
                method, f"market/{method}-claim", deal_id=self.deal_id,
            )

    def _on_claim(self, receipt: Receipt) -> None:
        if not receipt.ok:
            return  # duplicate claim after the deal settled: benign
        # A book settles a deal once, so each claim chain reports one
        # successful claim.
        self.claims_done += 1
        if self.claims_done < len(self.run.claim_chains):
            return
        if self.run.decided == "commit":
            # A patience/abort request that lost the race with the
            # deciding vote leaves a stale reason; the deal committed.
            self.scheduler.finish(self.run, DealPhase.COMMITTED, "",
                                  receipt.executed_at)
        else:
            self.scheduler.finish(self.run, DealPhase.ABORTED, self.run.reason,
                                  receipt.executed_at)

    def settlement_disagreements(self) -> dict:
        settled = (
            (COMMITTED,) if self.run.decided == "commit" else (ABORTED, None)
        )
        states = {
            chain_id: self.scheduler.books[chain_id].peek_deal_state(self.deal_id)
            for chain_id in self.run.claim_chains
        }
        return {c: state for c, state in states.items() if state not in settled}


class _EscrowContractDriver(DealDriver):
    """Shared machinery of §5/§6: one escrow contract per (deal, asset)."""

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        super().__init__(scheduler, run)
        # asset_id -> on-chain escrow contract name, once published.
        self.escrow_names: dict[str, str] = {}
        self.deposits_done = 0
        self.released: set[str] = set()
        self.refunded: set[str] = set()
        self.escrow_failed = False

    def _publish_escrows(self, factory) -> None:
        """Publish one escrow contract per asset and queue its funding.

        ``factory(asset, name)`` builds the protocol's contract.  The
        approve and deposit steps ride the asset chain's mempool in
        order, so they execute back to back inside one block.
        """
        for asset in self.spec.assets:
            name = self.spec.escrow_contract_name(asset.asset_id)
            contract = factory(asset, name)
            self.scheduler.publish_deal_escrow(
                asset.chain_id, contract, self.deal_id, asset.asset_id
            )
            self.escrow_names[asset.asset_id] = name
            if asset.owner in self.run.order.no_show:
                continue  # adversarial owner: never escrows
            self._submit(
                asset.chain_id, asset.owner, asset.token, "approve",
                "market/escrow-approve",
                spender=contract.address, amount=asset.amount,
            )
            self._submit(asset.chain_id, asset.owner, name, "deposit",
                         "market/escrow")

    def on_escrow_receipt(self, asset_id: str, receipt: Receipt) -> None:
        method = receipt.tx.method
        if method == "deposit":
            self._on_deposit(receipt)
        elif method == "transfer":
            self._on_transfer(receipt)
        elif receipt.ok:
            # A vote, proof-carrying claim or refund.  A rejected one
            # (a vote past its path deadline, a duplicate, a bounce off
            # a terminated escrow) needs no action: the terminal sweep
            # or the next claim settles whatever did not release.
            self._note_settled(asset_id, receipt)

    def _submit_transfers(self) -> None:
        self._enter(DealPhase.TRANSFER, self.scheduler.simulator.now)
        if not self.spec.steps:
            self._start_voting()
            return
        for step in self.spec.steps:
            self._submit(
                self.spec.asset(step.asset_id).chain_id, step.giver,
                self.escrow_names[step.asset_id], "transfer",
                "market/transfer", to=step.receiver, amount=step.amount,
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
        if self.run.protocol == PROTOCOL_TIMELOCK and 0 < len(
            self.released
        ) < len(self.spec.assets):
            self.run.sore_loser = True
        committed = len(self.released) == len(self.spec.assets)
        if self.run.decided is None:
            self.run.decided = "commit" if committed else "abort"
        if committed:
            self.scheduler.finish(self.run, DealPhase.COMMITTED, "",
                                  receipt.executed_at)
        else:
            self.scheduler.finish(
                self.run, DealPhase.ABORTED,
                self.run.reason or "unsettled", receipt.executed_at,
            )

    def escrow_states(self) -> dict[str, EscrowState]:
        """Each asset's escrow lifecycle state (``None``: unpublished)."""
        states = {}
        for asset in self.spec.assets:
            name = self.escrow_names.get(asset.asset_id)
            if name is None:
                states[asset.asset_id] = None
                continue
            contract = self.scheduler.chains[asset.chain_id].contract(name)
            states[asset.asset_id] = contract.peek_state()
        return states

    def settlement_disagreements(self) -> dict:
        released = self.run.decided == "commit"
        return {
            asset_id: state for asset_id, state in self.escrow_states().items()
            if (state is EscrowState.RELEASED) != released
        }

    # -- protocol hooks -------------------------------------------------
    def _start_voting(self) -> None:
        raise NotImplementedError

    def _on_escrow_conflict(self) -> None:
        """Cast the protocol's abort vote, if it has one.  §5 has none:
        timeouts play that role, so a timelock deal just waits for its
        terminal sweep."""


class TimelockDealDriver(_EscrowContractDriver):
    """Drive one deal through §5's timelock protocol on shared chains."""

    # The terminal deadline t0 + N·Δ already guarantees termination.
    arms_patience = False

    def __init__(self, scheduler: "MarketCoordinator", run: "_DealRun"):
        super().__init__(scheduler, run)
        self.t0 = 0.0
        self.delta = scheduler.config.timelock_delta

    @property
    def terminal_deadline(self) -> float:
        """``t0 + N·Δ``: when refunds become possible (§5)."""
        return self.t0 + len(self.spec.parties) * self.delta

    def on_registered(self, receipt: Receipt) -> None:
        self._enter(DealPhase.ESCROW, receipt.executed_at)
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

    def _start_voting(self) -> None:
        self._enter(DealPhase.VOTING, self.scheduler.simulator.now)
        for party in self.run.order.voters():
            # A direct vote: path length 1, deadline t0 + Δ.  The
            # market plays the parties, so votes need no forwarding;
            # forwarded (longer) paths are exercised by the per-deal
            # executor and the protocol tests.
            path = sign_vote(self.scheduler.keypair_for(party), self.deal_id)
            for asset in self.spec.assets:
                self._submit(
                    asset.chain_id, party, self.escrow_names[asset.asset_id],
                    "commit", "market/commit", path=path,
                )

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
            self._submit(asset.chain_id, scheduler.coordinator.address, name,
                         "refund", "market/refund")


class CbcDealDriver(_EscrowContractDriver):
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
        scheduler.watch_cbc(run.home_shard, self)

    def on_registered(self, receipt: Receipt) -> None:
        self._enter(DealPhase.ESCROW, receipt.executed_at)
        cbc = self.cbc = self.scheduler.ensure_cbc(self.run.home_shard)
        opener = self.spec.parties[0]
        cbc.submit(LogEntry(
            kind="startDeal", deal_id=self.deal_id, party=opener,
            plist=self.spec.parties,
        ).signed(self.scheduler.keypair_for(opener)))

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
        self._enter(DealPhase.SETTLING, self.scheduler.simulator.now)
        certificate = self.cbc.status_certificate(self.deal_id)
        proof = StatusProof(certificate=certificate)
        for asset in self.spec.assets:
            self._submit(
                asset.chain_id, self.scheduler.coordinator.address,
                self.escrow_names[asset.asset_id], outcome,
                f"market/{outcome}-claim", proof=proof,
            )

    def _vote(self, party, kind: str) -> None:
        self.cbc.submit(LogEntry(
            kind=kind, deal_id=self.deal_id, party=party,
            start_hash=self.start_hash or b"",
        ).signed(self.scheduler.keypair_for(party)))

    def _start_voting(self) -> None:
        self._enter(DealPhase.VOTING, self.scheduler.simulator.now)
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
        self._submit(
            target.chain_id, forger, self.escrow_names[target.asset_id],
            "commit", "market/stale-proof", proof=self._stale_proof,
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
        super().on_escrow_receipt(asset_id, receipt)

    def on_patience(self) -> None:
        if self.run.decided is None and not self.run.terminal:
            if not self.run.reason:
                self.run.reason = "timeout"
            self._request_abort()


# The one table admission consults: commit protocol -> driver class.
DRIVERS = {
    PROTOCOL_UNANIMITY: UnanimityDealDriver,
    PROTOCOL_TIMELOCK: TimelockDealDriver,
    PROTOCOL_CBC: CbcDealDriver,
}
