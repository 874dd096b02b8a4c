"""The atomic cross-chain swap baseline (Herlihy, PODC 2018).

In a swap, "each party transfers an asset directly to another party
and halts" (§8).  :func:`is_swap_expressible` captures that test: a
deal is a swap iff every asset is moved by exactly one step whose
giver is the asset's original owner.  The ticket-broker deal fails it
(Alice transfers tickets she never owned; two steps touch each
asset), and so does the §9 auction — the paper's core motivation.

For swap-expressible *cycle* digraphs we run the PODC'18 protocol on
the HTLC substrate:

1. the **leader** (a feedback vertex; for a ring, any single party)
   picks a secret ``s`` and hashlock ``h = H(s)``;
2. contracts deploy along the ring starting at the leader, each party
   locking its outgoing asset for its successor once its own incoming
   lock is visible; the lock from party *i* to *i+1* times out at
   ``t0 + (N - i)·Δ`` (deadlines shrink along the deployment order);
3. the leader claims its incoming lock by revealing ``s``; claims
   propagate backwards around the ring, each revelation unlocking the
   previous hop before its deadline.

This gives the E11 comparison: swaps and timelock deals have the same
asymptotic gas shape on rings (each contract verifies just one
hashlock, cheaper constants), but swaps simply reject the brokered
and auction workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.htlc import HashedTimelockContract
from repro.chain.tx import Receipt, Transaction
from repro.core.deal import DealSpec
from repro.core.executor import (
    DealEnvironment,
    ReceiptGas,
    build_environment,
    collect_receipts,
    fan_out,
    snapshot_holdings,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import Address, KeyPair
from repro.errors import SwapError


def is_swap_expressible(spec: DealSpec) -> bool:
    """Whether the deal is a direct-exchange swap (§8's criterion).

    Every asset must be transferred by exactly one step, and that
    step's giver must be the asset's original owner — no party may
    move value it did not bring to the deal.
    """
    steps_by_asset: dict[str, list] = {}
    for step in spec.steps:
        steps_by_asset.setdefault(step.asset_id, []).append(step)
    for asset in spec.assets:
        steps = steps_by_asset.get(asset.asset_id, [])
        if len(steps) != 1:
            return False
        step = steps[0]
        if step.giver != asset.owner:
            return False
        if asset.fungible and step.amount != asset.amount:
            return False
        if not asset.fungible and set(step.token_ids) != set(asset.token_ids):
            return False
    return True


def ring_order(spec: DealSpec) -> list[Address]:
    """The parties in ring order (leader first), or raise SwapError.

    The PODC'18 protocol handles general strongly connected digraphs
    with multiple leaders; this implementation covers the single-cycle
    case, which is the workload the E11 comparison uses.
    """
    if not is_swap_expressible(spec):
        raise SwapError("deal is not swap-expressible")
    successor: dict[Address, Address] = {}
    for step in spec.steps:
        if step.giver in successor:
            raise SwapError("not a single cycle: a party gives twice")
        successor[step.giver] = step.receiver
    if set(successor) != set(spec.parties):
        raise SwapError("not a single cycle: some party gives nothing")
    order = [spec.parties[0]]
    while True:
        nxt = successor[order[-1]]
        if nxt == order[0]:
            break
        if nxt in order:
            raise SwapError("not a single cycle: digraph has a chord")
        order.append(nxt)
    if len(order) != len(spec.parties):
        raise SwapError("not a single cycle: disconnected parties")
    return order


@dataclass
class SwapResult(ReceiptGas):
    """Outcome of one swap run; its gas phases are lock / claim / refund."""

    spec: DealSpec
    initial_holdings: dict
    final_holdings: dict
    receipts: list[Receipt]
    lock_states: dict
    completed: bool
    duration: float


class SwapParty:
    """One ring-swap participant's state machine."""

    def __init__(self, keypair: KeyPair, label: str, stop_before_lock: bool = False):
        self.keypair = keypair
        self.label = label
        self.address = keypair.address
        # Deviation knob: halt before locking the outgoing asset.
        self.stop_before_lock = stop_before_lock
        self.executor: "SwapExecutor | None" = None
        self._locked = False
        self._claimed = False

    @property
    def endpoint(self) -> str:
        """Network endpoint name."""
        return f"swap:{self.label}"

    def on_message(self, message) -> None:
        """React to chain block notifications."""
        payload = message.payload
        if payload[0] != "block":
            return
        _, chain_id, block = payload
        executor = self.executor
        for receipt in block.receipts:
            for event in receipt.events:
                if event.name == "Locked":
                    executor.on_lock_visible(self, event.fields["lock_id"])
                elif event.name == "Claimed":
                    executor.on_claim_visible(
                        self, event.fields["lock_id"], event.fields["preimage"]
                    )


class SwapExecutor:
    """Run the PODC'18 ring swap for a swap-expressible cycle deal."""

    def __init__(
        self,
        spec: DealSpec,
        parties: list[SwapParty],
        seed: int = 0,
        msg_bound: float = 1.0,
        block_interval: float = 1.0,
    ):
        self.spec = spec
        self.order = ring_order(spec)
        by_address = {party.address: party for party in parties}
        if set(by_address) != set(spec.parties):
            raise SwapError("party list does not match the deal")
        self.parties = [by_address[address] for address in self.order]
        self.seed = seed
        self.msg_bound = msg_bound
        self.block_interval = block_interval
        cycle = 2 * msg_bound + block_interval
        self.delta = 2 * cycle
        self.t0 = (len(self.order) + 3) * cycle
        self._env: DealEnvironment | None = None
        self._secret = sha256(b"swap-secret/%d" % seed)
        self._hashlock = sha256(self._secret)
        self._steps_by_giver = {step.giver: step for step in spec.steps}

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build(self) -> DealEnvironment:
        env = build_environment(
            self.spec,
            [party.keypair for party in self.parties],
            self.seed,
            self.msg_bound,
            self.block_interval,
        )
        # One HTLC per chain: the swap's escrows, keyed by chain id.
        for chain_id, chain in env.chains.items():
            env.escrows[chain_id] = chain.publish(HashedTimelockContract(f"htlc/{chain_id}"))
        for party in self.parties:
            party.executor = self
            env.network.register(party.endpoint, party.on_message)
        endpoints = [party.endpoint for party in self.parties]
        for chain in env.chains.values():
            fan_out(env.network, chain, endpoints)
        return env

    # ------------------------------------------------------------------
    # Protocol actions
    # ------------------------------------------------------------------
    def _position(self, party: SwapParty) -> int:
        return self.order.index(party.address)

    def _lock_id_for(self, position: int) -> str:
        return f"swap/{self.spec.deal_id.hex()[:8]}/{position}"

    def _submit_lock(self, party: SwapParty) -> None:
        if party._locked or party.stop_before_lock:
            return
        party._locked = True
        position = self._position(party)
        step = self._steps_by_giver[party.address]
        asset = self.spec.asset(step.asset_id)
        htlc = self._env.escrows[asset.chain_id]
        deadline = self.t0 + (len(self.order) - position) * self.delta
        if asset.fungible:
            self._send_tx(
                party, asset.chain_id, asset.token, "approve", "lock",
                spender=htlc.address, amount=asset.amount,
            )
        else:
            for token_id in asset.token_ids:
                self._send_tx(
                    party, asset.chain_id, asset.token, "approve", "lock",
                    spender=htlc.address, token_id=token_id,
                )
        self._send_tx(
            party, asset.chain_id, htlc.name, "lock", "lock",
            lock_id=self._lock_id_for(position),
            token=asset.token,
            recipient=step.receiver,
            hashlock=self._hashlock,
            deadline=deadline,
            amount=asset.amount,
            token_ids=asset.token_ids,
        )
        self._schedule_refund(party, position, deadline)

    def _schedule_refund(self, party: SwapParty, position: int, deadline: float) -> None:
        lock_id = self._lock_id_for(position)
        step = self._steps_by_giver[party.address]
        asset = self.spec.asset(step.asset_id)

        def attempt() -> None:
            htlc = self._env.escrows[asset.chain_id]
            entry = htlc.peek_lock(lock_id)
            if entry is not None and entry["state"] == "locked":
                self._send_tx(party, asset.chain_id, htlc.name, "refund", "refund", lock_id=lock_id)

        self._env.simulator.schedule_at(deadline + 2 * self.delta, attempt, label="swap/refund")

    def on_lock_visible(self, observer: SwapParty, lock_id: str) -> None:
        """A lock appeared: successors deploy; the leader may claim."""
        position = self._position(observer)
        predecessor = (position - 1) % len(self.order)
        if lock_id == self._lock_id_for(predecessor) and position != 0:
            # My incoming lock exists: deploy my outgoing lock.
            self._submit_lock(observer)
        if position == 0 and lock_id == self._lock_id_for(len(self.order) - 1):
            # The leader's incoming lock (last in deployment order) is
            # up: reveal the secret by claiming it.
            self._claim(observer, predecessor_position=len(self.order) - 1)

    def on_claim_visible(self, observer: SwapParty, lock_id: str, preimage: bytes) -> None:
        """A claim revealed the secret: claim my own incoming lock."""
        position = self._position(observer)
        if position == 0:
            return
        if lock_id == self._lock_id_for(position):
            # My outgoing lock was claimed; the preimage is now known.
            self._claim(observer, predecessor_position=position - 1, preimage=preimage)

    def _claim(self, party: SwapParty, predecessor_position: int, preimage: bytes | None = None) -> None:
        if party._claimed:
            return
        party._claimed = True
        secret = preimage if preimage is not None else self._secret
        giver = self.order[predecessor_position]
        step = self._steps_by_giver[giver]
        asset = self.spec.asset(step.asset_id)
        htlc = self._env.escrows[asset.chain_id]
        self._send_tx(
            party, asset.chain_id, htlc.name, "claim", "claim",
            lock_id=self._lock_id_for(predecessor_position),
            preimage=secret,
        )

    def _send_tx(self, party: SwapParty, chain_id: str, contract: str, method: str, phase: str, **args) -> None:
        tx = Transaction(
            sender=party.address, contract=contract, method=method, args=args, phase=phase
        )
        self._env.network.send(party.endpoint, f"chain:{chain_id}", ("tx", tx))

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> SwapResult:
        """Run the swap to quiescence and report."""
        env = self._env = self._build()
        initial = snapshot_holdings(env, self.spec)
        leader = self.parties[0]
        env.simulator.schedule(0.0, lambda: self._submit_lock(leader), label="swap/start")
        env.simulator.run(max_events=500_000)
        lock_states = {}
        for position in range(len(self.order)):
            giver = self.order[position]
            asset = self.spec.asset(self._steps_by_giver[giver].asset_id)
            entry = env.escrows[asset.chain_id].peek_lock(self._lock_id_for(position))
            lock_states[position] = entry["state"] if entry else "absent"
        completed = all(state == "claimed" for state in lock_states.values())
        return SwapResult(
            spec=self.spec,
            initial_holdings=initial,
            final_holdings=snapshot_holdings(env, self.spec),
            receipts=collect_receipts(env),
            lock_states=lock_states,
            completed=completed,
            duration=env.simulator.now,
        )
