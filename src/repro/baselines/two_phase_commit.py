"""Classical two-phase commit with a trusted coordinator (§8, §4.1).

The paper repeatedly contrasts deals with classical distributed
transactions: "computation is directed by a trusted coordinator, and
executed by parties that can be trusted to follow directions."  This
baseline makes the contrast measurable:

* escrow contracts trust a designated **coordinator address** and
  resolve on its bare word — no votes on chain, no signatures
  verified by contracts;
* the coordinator collects prepare votes off-chain (plain messages)
  and writes one resolution transaction per contract.

Costs: O(m) storage writes, **zero** on-chain signature
verifications, commit latency one round trip plus a block — the
numbers adversarial commerce pays a premium over (Figure 4 vs this).
The price is the trust: a malicious coordinator could steal
everything, which is exactly what the deal protocols exist to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.contracts import CallContext
from repro.chain.gas import GasBreakdown
from repro.chain.tx import Receipt, Transaction
from repro.core.deal import Asset, DealSpec
from repro.core.escrow import EscrowManager
from repro.core.executor import ReceiptGas, build_environment, collect_receipts
from repro.crypto.keys import Address, KeyPair
from repro.errors import ConfigurationError


class TrustedEscrow(EscrowManager):
    """An escrow that resolves on the coordinator's instruction."""

    EXPORTS = EscrowManager.EXPORTS + ("resolve",)

    def __init__(self, name, deal_id, plist, asset: Asset, coordinator: Address):
        super().__init__(name, deal_id, plist, asset)
        self.coordinator = coordinator

    def resolve(self, ctx: CallContext, decision: str) -> bool:
        """Commit or abort this escrow; coordinator only."""
        ctx.require(ctx.sender == self.coordinator, "only the coordinator may resolve")
        ctx.require(decision in ("commit", "abort"), "unknown decision")
        if decision == "commit":
            self._release(ctx)
        else:
            self._refund(ctx)
        return True


@dataclass
class TwoPhaseCommitResult(ReceiptGas):
    """Outcome of a 2PC run."""

    spec: DealSpec
    escrow_states: dict
    receipts: list[Receipt]
    duration: float
    decision: str

    def commit_phase_gas(self) -> GasBreakdown:
        """Gas of the resolution transactions only."""
        return self.gas_by_phase().get("resolve", GasBreakdown.zero())


class TwoPhaseCommitExecutor:
    """Run a deal under classical 2PC with a trusted coordinator.

    Parties escrow and transfer exactly as in the deal protocols, then
    send prepare votes *to the coordinator* (plain messages); the
    coordinator resolves every contract.  ``voters_refuse`` lists
    party labels that vote no, forcing a global abort.
    """

    def __init__(
        self,
        spec: DealSpec,
        keys: dict[str, KeyPair],
        seed: int = 0,
        msg_bound: float = 1.0,
        block_interval: float = 1.0,
        voters_refuse: set[str] | None = None,
    ):
        if {kp.address for kp in keys.values()} != set(spec.parties):
            raise ConfigurationError("keys do not match the deal's plist")
        self.spec = spec
        self.keys = keys
        self.seed = seed
        self.msg_bound = msg_bound
        self.block_interval = block_interval
        self.voters_refuse = voters_refuse or set()
        self.coordinator_key = KeyPair.from_label(f"coordinator/{seed}")

    def run(self) -> TwoPhaseCommitResult:
        """Execute escrow, transfers, prepare, and resolution."""
        env = build_environment(
            self.spec,
            [*self.keys.values(), self.coordinator_key],
            self.seed,
            self.msg_bound,
            self.block_interval,
        )
        simulator, network, escrows = env.simulator, env.network, env.escrows
        for asset in self.spec.assets:
            escrows[asset.asset_id] = env.chains[asset.chain_id].publish(
                TrustedEscrow(
                    self.spec.escrow_contract_name(asset.asset_id),
                    self.spec.deal_id,
                    self.spec.parties,
                    asset,
                    coordinator=self.coordinator_key.address,
                )
            )

        # Phase 1: escrow + transfers, driven as one scripted schedule
        # (parties are trusted to follow directions — the classical
        # model).  Approvals and deposits at t=0; step k at t = k·cycle.
        cycle = 2 * self.msg_bound + self.block_interval
        label_of = {kp.address: label for label, kp in self.keys.items()}

        def send_tx(sender: Address, chain_id: str, contract: str, method: str, phase: str, **args) -> None:
            tx = Transaction(sender=sender, contract=contract, method=method, args=args, phase=phase)
            network.send(f"2pc:{label_of.get(sender, 'coordinator')}", f"chain:{chain_id}", ("tx", tx))

        for asset in self.spec.assets:
            escrow = escrows[asset.asset_id]
            if asset.fungible:
                send_tx(asset.owner, asset.chain_id, asset.token, "approve", "escrow",
                        spender=escrow.address, amount=asset.amount)
            else:
                for token_id in asset.token_ids:
                    send_tx(asset.owner, asset.chain_id, asset.token, "approve", "escrow",
                            spender=escrow.address, token_id=token_id)
            send_tx(asset.owner, asset.chain_id, escrow.name, "deposit", "escrow")
        for index, step in enumerate(self.spec.steps):
            asset = self.spec.asset(step.asset_id)
            simulator.schedule(
                (index + 2) * cycle,
                lambda step=step, asset=asset: send_tx(
                    step.giver, asset.chain_id, self.spec.escrow_contract_name(step.asset_id),
                    "transfer", "transfer",
                    to=step.receiver, amount=step.amount, token_ids=step.token_ids,
                ),
                label="2pc/transfer",
            )

        # Phase 2: prepare votes (off-chain) then resolution.
        decision = "abort" if self.voters_refuse else "commit"
        resolve_at = (len(self.spec.steps) + 4) * cycle

        def resolve() -> None:
            for asset in self.spec.assets:
                send_tx(
                    self.coordinator_key.address,
                    asset.chain_id,
                    escrows[asset.asset_id].name,
                    "resolve",
                    "resolve",
                    decision=decision,
                )

        simulator.schedule(resolve_at, resolve, label="2pc/resolve")
        simulator.run(max_events=200_000)
        return TwoPhaseCommitResult(
            spec=self.spec,
            escrow_states={aid: e.peek_state() for aid, e in escrows.items()},
            receipts=collect_receipts(env),
            duration=simulator.now,
            decision=decision,
        )
