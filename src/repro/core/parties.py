"""Party state machines.

A :class:`CompliantParty` follows the paper's protocol exactly:

1. **Escrow**: approve and deposit each asset it owns;
2. **Transfer**: submit each step where it is the giver, as soon as
   the step is enabled (its tentative holding covers it);
3. **Validation**: once every asset's tentative state matches the
   deal's projected commit state, the party is satisfied;
4. **Commit** (timelock): send a signed commit vote to the escrow
   contracts of its *incoming* assets; monitor its *outgoing* assets'
   contracts and forward newly observed votes (path-extended) to its
   incoming contracts; schedule refunds past the terminal timeout.
   (§5: this is the incentive-minimal behaviour; the
   ``altruistic_votes`` ablation sends votes everywhere directly.)
5. **Commit** (CBC): publish a commit vote on the CBC; when the CBC
   shows a decisive outcome, extract a proof and settle the escrow
   contracts it cares about.  If the deal drags past its patience, or
   validation fails, vote abort (after the mandatory ≥ Δ wait if a
   commit vote was already cast).  The party talks to ``env.cbc``
   through three questions — a signed vote, the deal's status, a
   presentable proof or ``None`` — that the BFT log and the §6.2
   proof-of-work log answer alike, so one code path serves both (the
   PoW log withholds proofs until they are buried deep enough).

Deviating strategies (package :mod:`repro.adversary`) subclass this
and override the small ``decide_*`` hooks, so every attack shares the
compliant plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.consensus.bft import DealStatus
from repro.chain.tx import Transaction
from repro.core.config import ProtocolConfig, ProtocolKind
from repro.core.deal import Asset, DealSpec, TransferStep
from repro.core.escrow import EscrowState
from repro.crypto.keys import Address, KeyPair
from repro.crypto.pathsig import PathSignature, extend_path_signature, sign_vote

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import DealEnvironment


@dataclass
class PartyStats:
    """Per-party activity counters (used by cost/timing analyses)."""

    txs_sent: int = 0
    votes_cast: int = 0
    votes_forwarded: int = 0
    cbc_entries: int = 0
    validated_at: float | None = None
    signatures_produced: int = 0


class CompliantParty:
    """A party that follows the protocol (the paper's "compliant")."""

    def __init__(self, keypair: KeyPair, label: str):
        self.keypair = keypair
        self.label = label
        self.address: Address = keypair.address
        self.stats = PartyStats()
        self.env: "DealEnvironment | None" = None
        self.spec: DealSpec | None = None
        self.config: ProtocolConfig | None = None
        # Protocol progress
        self._deposited: set[str] = set()
        self._submitted_steps: set[int] = set()
        self._validated = False
        self._voted_contracts: set[str] = set()
        self._accepted_votes: dict[str, set[Address]] = {}
        self._known_paths: dict[Address, PathSignature] = {}
        self._voted_cbc = False
        self._commit_vote_time: float | None = None
        self._aborted_cbc = False
        self._settle_submitted: set[str] = set()
        self._refund_submitted: set[str] = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """The party's network endpoint name."""
        return f"party:{self.label}"

    def bind(self, env: "DealEnvironment", spec: DealSpec, config: ProtocolConfig) -> None:
        """Attach the party to a deal environment before the run."""
        self.env = env
        self.spec = spec
        self.config = config
        env.network.register(self.endpoint, self.on_message)

    # Derived role sets --------------------------------------------------
    def my_assets(self) -> list[Asset]:
        """Assets this party escrows."""
        return [asset for asset in self.spec.assets if asset.owner == self.address]

    def incoming_asset_ids(self) -> list[str]:
        """Assets on which some step pays this party (its column)."""
        seen: list[str] = []
        for step in self.spec.steps:
            if step.receiver == self.address and step.asset_id not in seen:
                seen.append(step.asset_id)
        return seen

    def outgoing_asset_ids(self) -> list[str]:
        """Assets on which some step debits this party (its row)."""
        seen: list[str] = []
        for step in self.spec.steps:
            if step.giver == self.address and step.asset_id not in seen:
                seen.append(step.asset_id)
        return seen

    def my_steps(self) -> list[tuple[int, TransferStep]]:
        """The transfer steps this party must perform, with indices."""
        return [
            (index, step)
            for index, step in enumerate(self.spec.steps)
            if step.giver == self.address
        ]

    # ------------------------------------------------------------------
    # Deviation hooks (compliant defaults)
    # ------------------------------------------------------------------
    def decide_deposit(self, asset: Asset) -> bool:
        """Whether to escrow ``asset`` (deviators may refuse)."""
        return True

    def decide_transfer(self, step: TransferStep) -> bool:
        """Whether to perform ``step`` (deviators may refuse)."""
        return True

    def decide_validate(self) -> bool:
        """Extra validation veto (deviators/unsatisfied parties refuse)."""
        return True

    def decide_vote(self) -> bool:
        """Whether to cast a commit vote after successful validation."""
        return True

    def decide_forward(self, voter: Address, to_asset_id: str) -> bool:
        """Whether to forward ``voter``'s vote to an incoming contract."""
        return True

    def decide_settle(self, asset_id: str) -> bool:
        """Whether to submit claims/refunds for ``asset_id`` (CBC)."""
        return True

    def is_active(self) -> bool:
        """Deviators may simulate a local crash by returning False."""
        return True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def send_tx(self, chain_id: str, contract: str, method: str, phase: str, **args) -> None:
        """Submit a transaction to ``chain_id`` over the network."""
        tx = Transaction(
            sender=self.address, contract=contract, method=method, args=args, phase=phase
        )
        self.stats.txs_sent += 1
        self.env.network.send(self.endpoint, f"chain:{chain_id}", ("tx", tx))

    def send_cbc_entry(self, entry) -> None:
        """Submit a log entry to the CBC over the network."""
        self.stats.cbc_entries += 1
        self.env.network.send(self.endpoint, "cbc", ("entry", entry))

    def schedule(self, delay: float, callback, label: str = "") -> None:
        """Set a local timer (fires regardless of network state)."""
        self.env.simulator.schedule(delay, callback, label=f"{self.label}/{label}")

    def on_message(self, message) -> None:
        """Network delivery entry point."""
        if not self.is_active():
            return
        payload = message.payload
        kind = payload[0]
        if kind == "block":
            _, chain_id, block = payload
            self._on_chain_block(chain_id, block)
        elif kind == "cbc_block":
            self._on_cbc_block(payload[1])

    # ------------------------------------------------------------------
    # Phase 1-2: escrow and transfers
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Kick off the party's participation (scheduled by executor)."""
        if not self.is_active():
            return
        for asset in self.my_assets():
            if not self.decide_deposit(asset):
                continue
            escrow_name = self.spec.escrow_contract_name(asset.asset_id)
            escrow = self.env.escrows[asset.asset_id]
            if asset.fungible:
                self.send_tx(
                    asset.chain_id,
                    asset.token,
                    "approve",
                    phase="escrow",
                    spender=escrow.address,
                    amount=asset.amount,
                )
            else:
                for token_id in asset.token_ids:
                    self.send_tx(
                        asset.chain_id,
                        asset.token,
                        "approve",
                        phase="escrow",
                        spender=escrow.address,
                        token_id=token_id,
                    )
            self.send_tx(asset.chain_id, escrow_name, "deposit", phase="escrow")
        if self.config.kind is ProtocolKind.TIMELOCK:
            self._schedule_timelock_refunds()
        else:
            self.schedule(self.config.patience, self._on_patience_expired, "patience")
        self._try_progress()

    def _on_chain_block(self, chain_id: str, block) -> None:
        for receipt in block.receipts:
            for event in receipt.events:
                self._on_event(chain_id, event)
        self._try_progress()

    def _on_event(self, chain_id: str, event) -> None:
        if event.name == "VoteAccepted":
            self._note_vote(event.contract, event.fields["voter"], event.fields["path"])

    def _try_progress(self) -> None:
        """Advance transfers, validation, and voting as far as possible."""
        if not self.is_active():
            return
        self._submit_enabled_steps()
        if not self._validated and self._tentative_state_final():
            if self.decide_validate():
                self._validated = True
                self.stats.validated_at = self.env.simulator.now
                self._cast_votes()
            elif self.config.kind is not ProtocolKind.TIMELOCK:
                # Validation failed: a CBC party votes abort outright.
                self._vote_abort_cbc()
        if self.config.kind is not ProtocolKind.TIMELOCK:
            self._try_settle_cbc()

    def _submit_enabled_steps(self) -> None:
        for index, step in self.my_steps():
            if index in self._submitted_steps:
                continue
            if not self._step_enabled(step):
                continue
            if not self.decide_transfer(step):
                continue
            self._submitted_steps.add(index)
            self._send_transfer(step, step.amount, step.token_ids)

    def _send_transfer(self, step: TransferStep, amount: int, token_ids: tuple) -> None:
        """Submit a tentative transfer on ``step``'s escrow contract."""
        self.send_tx(
            self.spec.asset(step.asset_id).chain_id,
            self.spec.escrow_contract_name(step.asset_id),
            "transfer",
            phase="transfer",
            to=step.receiver,
            amount=amount,
            token_ids=token_ids,
        )

    def _step_enabled(self, step: TransferStep) -> bool:
        escrow = self.env.escrows[step.asset_id]
        if not escrow.peek_deposited():
            return False
        holding = escrow.peek_commit_holding(self.address)
        asset = self.spec.asset(step.asset_id)
        if asset.fungible:
            # Reserve for earlier unexecuted steps of mine on this asset.
            pending = sum(
                other.amount
                for index, other in self.my_steps()
                if other.asset_id == step.asset_id
                and index in self._submitted_steps
                and not self._step_applied(other)
            )
            return holding - pending >= step.amount
        return set(step.token_ids) <= set(holding)

    def _step_applied(self, step: TransferStep) -> bool:
        """Best-effort check whether a submitted step has executed."""
        escrow = self.env.escrows[step.asset_id]
        asset = self.spec.asset(step.asset_id)
        if not asset.fungible:
            return not (set(step.token_ids) <= set(escrow.peek_commit_holding(self.address)))
        return False  # conservative for fungible: keep the reservation

    def _tentative_state_final(self) -> bool:
        """Whether every asset's C-map matches the deal's projection."""
        projected = self.spec.final_commit_holdings()
        for asset in self.spec.assets:
            escrow = self.env.escrows[asset.asset_id]
            if not escrow.peek_deposited():
                return False
            if escrow.peek_state() is not EscrowState.ACTIVE:
                continue
            for party in self.spec.parties:
                expected = projected[asset.asset_id].get(party)
                actual = escrow.peek_commit_holding(party)
                if asset.fungible:
                    if (expected or 0) != actual:
                        return False
                else:
                    if set(expected or set()) != set(actual):
                        return False
        # CBC parties also check the recorded startDeal (§6 escrow
        # phase: "properly escrowed with the correct plist and h"): the
        # log knows no deal started by any other entry.
        if self.env.cbc is not None and self._cbc_status() is DealStatus.UNKNOWN:
            return False
        return True

    # ------------------------------------------------------------------
    # Phase 4 (timelock): voting and forwarding
    # ------------------------------------------------------------------
    def _cast_votes(self) -> None:
        if not self.decide_vote():
            return
        if self.config.kind is ProtocolKind.TIMELOCK:
            self._cast_timelock_votes()
        else:
            self._vote_commit_cbc()

    def _cast_timelock_votes(self) -> None:
        path = sign_vote(self.keypair, self.spec.deal_id)
        self.stats.signatures_produced += 1
        self._known_paths[self.address] = path
        if self.config.altruistic_votes:
            targets = [asset.asset_id for asset in self.spec.assets]
        else:
            targets = self.incoming_asset_ids()
        for asset_id in targets:
            self._send_vote(asset_id, path)

    def _send_vote(self, asset_id: str, path: PathSignature) -> None:
        asset = self.spec.asset(asset_id)
        escrow_name = self.spec.escrow_contract_name(asset_id)
        key = (escrow_name, path.voter)
        if key in self._voted_contracts:
            return
        self._voted_contracts.add(key)
        self.stats.votes_cast += 1
        self.send_tx(asset.chain_id, escrow_name, "commit", phase="commit", path=path)

    def _note_vote(self, contract_name: str, voter: Address, path: PathSignature) -> None:
        """React to a VoteAccepted event somewhere in the deal."""
        self._accepted_votes.setdefault(contract_name, set()).add(voter)
        self._voted_contracts.add((contract_name, voter))
        if self.config.kind is not ProtocolKind.TIMELOCK:
            return
        if voter == self.address:
            return
        # Forward votes observed on my outgoing contracts to my
        # incoming contracts that have not accepted them yet (§5).
        outgoing_contracts = {
            self.spec.escrow_contract_name(asset_id)
            for asset_id in self.outgoing_asset_ids()
        }
        if self.config.altruistic_votes:
            outgoing_contracts.add(contract_name)
        if contract_name not in outgoing_contracts:
            return
        if not self._validated:
            return
        extended = extend_path_signature(path, self.keypair)
        self.stats.signatures_produced += 1
        for asset_id in self.incoming_asset_ids():
            target = self.spec.escrow_contract_name(asset_id)
            if voter in self._accepted_votes.get(target, set()):
                continue
            if (target, voter) in self._voted_contracts:
                continue
            if not self.decide_forward(voter, asset_id):
                continue
            self.stats.votes_forwarded += 1
            self._voted_contracts.add((target, voter))
            asset = self.spec.asset(asset_id)
            self.send_tx(
                asset.chain_id, target, "commit", phase="commit", path=extended
            )

    def _schedule_timelock_refunds(self) -> None:
        """Arrange timeout refunds for every escrow in the deal.

        The refund is permissionless (anyone may poke a timed-out
        contract), so a compliant party covers *all* assets, not only
        its own — otherwise an owner silenced by a DoS window (§5.3)
        would leave its escrow stranded.  Attempts are retried a few
        times in case the party's own transactions are being dropped.
        """
        deadline = self.config.t0 + len(self.spec.parties) * self.config.delta
        # A small slack past the deadline so the chain clock
        # (block-grid time) has certainly crossed it.
        first_attempt = deadline + 2 * self.config.delta
        retry_interval = 4 * self.config.delta
        max_attempts = 8

        def attempt(asset, attempts_left):
            if not self.is_active():
                return
            current = self.env.escrows[asset.asset_id]
            if current.peek_state() is not EscrowState.ACTIVE:
                return
            self.send_tx(
                asset.chain_id,
                self.spec.escrow_contract_name(asset.asset_id),
                "refund",
                phase="abort",
            )
            if attempts_left > 1:
                self.schedule(
                    retry_interval,
                    lambda: attempt(asset, attempts_left - 1),
                    "refund-retry",
                )

        for asset in self.spec.assets:
            self.env.simulator.schedule_at(
                first_attempt,
                lambda asset=asset: attempt(asset, max_attempts),
                label=f"{self.label}/refund",
            )

    # ------------------------------------------------------------------
    # Phase 4 (CBC): voting, settling, aborting
    # ------------------------------------------------------------------
    def _signed_cbc_vote(self, kind: str):
        """This party's signed ``kind`` vote, in the log's own entry form."""
        return self.env.cbc.signed_vote(
            self.keypair, kind, self.spec.deal_id, self.spec.parties, self.env.start_hash
        )

    def _vote_commit_cbc(self) -> None:
        if self._voted_cbc or self._aborted_cbc:
            return
        self._voted_cbc = True
        self._commit_vote_time = self.env.simulator.now
        self.stats.votes_cast += 1
        self.stats.signatures_produced += 1
        self.send_cbc_entry(self._signed_cbc_vote("commit"))

    def _vote_abort_cbc(self) -> None:
        if self._aborted_cbc:
            return
        self._aborted_cbc = True
        self.stats.signatures_produced += 1
        self.send_cbc_entry(self._signed_cbc_vote("abort"))

    def _cbc_status(self) -> DealStatus:
        """The log's status of the deal (as started by the executor's
        ``startDeal`` on the BFT log)."""
        return self.env.cbc.deal_status(self.spec.deal_id, self.env.start_hash)

    def _on_patience_expired(self) -> None:
        """Weak liveness: abort if the deal is dragging (§6)."""
        if not self.is_active():
            return
        status = self._cbc_status()
        if status in (DealStatus.COMMITTED, DealStatus.ABORTED):
            return
        if self._voted_cbc and self._commit_vote_time is not None:
            elapsed = self.env.simulator.now - self._commit_vote_time
            wait = self.config.effective_rescind_wait
            if elapsed < wait:
                self.schedule(wait - elapsed, self._on_patience_expired, "rescind-wait")
                return
        self._vote_abort_cbc()

    def _on_cbc_block(self, block) -> None:
        if not self.is_active():
            return
        self._try_progress()

    def _try_settle_cbc(self) -> None:
        status = self._cbc_status()
        if status is DealStatus.COMMITTED:
            method = "commit"
            # Most motivated: my incoming assets first.
            priority = self.incoming_asset_ids()
        elif status is DealStatus.ABORTED:
            method = "abort"
            priority = [asset.asset_id for asset in self.my_assets()]
        else:
            return
        # Settle the motivated assets, then sweep the rest: the deal
        # is decided everywhere, and leaving an escrow for a crashed
        # counterparty to settle would strand it (weak liveness).
        remaining = [
            asset.asset_id for asset in self.spec.assets
            if asset.asset_id not in priority
        ]
        for asset_id in priority + remaining:
            self._settle_asset(asset_id, method)

    def _settle_asset(self, asset_id: str, method: str) -> None:
        if asset_id in self._settle_submitted:
            return
        if not self.decide_settle(asset_id):
            return
        escrow = self.env.escrows[asset_id]
        if escrow.peek_state() is not EscrowState.ACTIVE:
            return
        proof = self._build_proof(method)
        if proof is None:
            return
        self._settle_submitted.add(asset_id)
        asset = self.spec.asset(asset_id)
        phase = "commit" if method == "commit" else "abort"
        self.send_tx(
            asset.chain_id,
            self.spec.escrow_contract_name(asset_id),
            method,
            phase=phase,
            proof=proof,
        )

    def _build_proof(self, method: str):
        """Fetch a presentable proof from the log (an off-chain request)."""
        status = DealStatus.COMMITTED if method == "commit" else DealStatus.ABORTED
        return self.env.cbc.presentable_proof(
            self.spec.deal_id, status, self.config.proof_kind
        )
