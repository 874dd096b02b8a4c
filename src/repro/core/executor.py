"""End-to-end deal execution on the simulator.

:class:`DealExecutor` assembles a full adversarial-commerce system for
one deal — chains, tokens, escrow contracts, the CBC if required, the
network, and the parties — runs it to quiescence, and returns a
:class:`DealResult` with holdings snapshots, receipts, per-phase gas,
and a timeline.  Everything is deterministic given the seed.  The
substrate helpers (:func:`build_environment`, :func:`submitter`,
:func:`fan_out`, :class:`ReceiptGas` and the result assembly below) also
serve the swap and 2PC baselines and the watchtower.

The division of labour mirrors the paper's phases (§4.1): the executor
performs the *clearing* phase (broadcasting the deal and, for the CBC
protocol, arranging the ``startDeal`` entry); the parties do the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.gas import GasBreakdown
from repro.chain.ledger import Chain
from repro.chain.tokens import FungibleToken, NonFungibleToken
from repro.chain.tx import Receipt, Transaction
from repro.consensus.bft import CertifiedBlockchain, LogEntry
from repro.consensus.pow_log import PowCertifiedLog
from repro.consensus.validators import ValidatorSet
from repro.core.config import ProofKind, ProtocolConfig, ProtocolKind
from repro.core.deal import DealSpec
from repro.core.escrow import EscrowState
from repro.core.cbc import CbcEscrow, PowCbcEscrow
from repro.core.parties import CompliantParty
from repro.core.timelock import TimelockEscrow
from repro.crypto.keys import KeyPair, Wallet
from repro.errors import ConfigurationError
from repro.sim.faults import FaultPlan
from repro.sim.network import EventuallySynchronousNetwork, Network, SynchronousNetwork
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator

Holdings = dict


@dataclass
class DealEnvironment:
    """Everything the parties can see and touch during a run.

    ``escrows`` holds the contracts that lock the deal's assets, whose
    addresses :func:`snapshot_holdings` lists beside the parties': one
    per asset for a deal or 2PC, one HTLC per chain for a swap.
    ``cbc`` is the deal's certified log under either CBC flavour — the
    BFT :class:`CertifiedBlockchain` or the §6.2
    :class:`PowCertifiedLog` — and ``None`` under the timelock
    protocol; parties reach it only through the questions both logs
    answer alike.  ``start_hash`` is the BFT ``startDeal`` entry's hash
    (empty on the PoW log, which has no such entry).
    """

    simulator: Simulator
    network: Network
    wallet: Wallet
    chains: dict
    tokens: dict
    escrows: dict
    cbc: CertifiedBlockchain | PowCertifiedLog | None = None
    start_hash: bytes = b""


def build_environment(
    spec: DealSpec,
    keypairs: list[KeyPair],
    seed: int,
    msg_bound: float,
    block_interval: float,
    gst: float = 0.0,
) -> DealEnvironment:
    """The substrate one deal runs on, for every per-deal executor.

    A simulator and a network seeded with ``seed`` (eventually
    synchronous when ``gst > 0``), a wallet of ``keypairs``, one
    :class:`Chain` per spec chain with its ``chain:<id>`` endpoint, and
    each (chain, token) published once with every asset minted to its
    owner.  Escrows, parties and fan-out are the caller's.
    """
    simulator = Simulator()
    rng = DeterministicRng(seed)
    if gst > 0:
        network: Network = EventuallySynchronousNetwork(
            simulator, delta=msg_bound, gst=gst, rng=rng
        )
    else:
        network = SynchronousNetwork(simulator, delta=msg_bound, rng=rng)
    wallet = Wallet()
    for keypair in keypairs:
        wallet.register(keypair)

    chains: dict[str, Chain] = {}
    for chain_id in spec.chains():
        chains[chain_id] = Chain(chain_id, simulator, wallet, block_interval=block_interval)
        network.register(f"chain:{chain_id}", submitter(chains[chain_id]))

    tokens: dict[tuple[str, str], object] = {}
    for asset in spec.assets:
        key = (asset.chain_id, asset.token)
        if key not in tokens:
            token_class = FungibleToken if asset.fungible else NonFungibleToken
            tokens[key] = chains[asset.chain_id].publish(token_class(asset.token))

    # Mint initial holdings (setup: outside any block).
    metadata = {"deal": spec.deal_id.hex()[:8]}
    for asset in spec.assets:
        if asset.fungible:
            mints = [{"to": asset.owner, "amount": asset.amount}]
        else:
            mints = [
                {"to": asset.owner, "token_id": token_id, "metadata": metadata}
                for token_id in asset.token_ids
            ]
        for args in mints:
            chains[asset.chain_id].execute_now(
                Transaction(
                    sender=spec.parties[0],
                    contract=asset.token,
                    method="mint",
                    args=args,
                    phase="setup",
                )
            )
    return DealEnvironment(
        simulator=simulator,
        network=network,
        wallet=wallet,
        chains=chains,
        tokens=tokens,
        escrows={},
    )


def submitter(target):
    """The handler of a ``chain:<id>`` or ``cbc`` endpoint: submit each
    delivered ``("tx", tx)`` or ``("entry", entry)`` to ``target``."""
    return lambda message: target.submit(message.payload[1])


def fan_out(network: Network, source, endpoints: list[str]) -> None:
    """Send every block ``source`` produces to ``endpoints``, in order.

    A chain's blocks go out from ``chain:<id>`` as ``("block", chain_id,
    block)``; the CBC's or PoW log's from ``cbc`` as ``("cbc_block",
    block)``.
    """
    if isinstance(source, Chain):
        sender, head = f"chain:{source.chain_id}", ("block", source.chain_id)
    else:
        sender, head = "cbc", ("cbc_block",)
    endpoints = list(endpoints)

    def observer(_source, block) -> None:
        for endpoint in endpoints:
            network.send(sender, endpoint, (*head, block))

    source.subscribe(observer)


@dataclass
class Timeline:
    """Milestone times of one run (absolute simulator ticks)."""

    started_at: float = 0.0
    escrow_done: float | None = None
    transfers_done: float | None = None
    all_votes_cast: float | None = None
    settled_at: float | None = None
    ended_at: float = 0.0


class ReceiptGas:
    """Gas aggregation over a result's ``receipts``, shared by the deal,
    swap and 2PC results so their totals compare like for like."""

    def gas_by_phase(self, include_reverted: bool = False) -> dict[str, GasBreakdown]:
        """Aggregate per-phase gas.

        By default only successful transactions count (the protocol's
        intrinsic cost, what Figure 4 tabulates); ``include_reverted``
        adds the waste from benign races such as two parties forwarding
        the same vote.
        """
        by_phase: dict[str, GasBreakdown] = {}
        for receipt in self.receipts:
            if not receipt.ok and not include_reverted:
                continue
            phase = receipt.tx.phase or "other"
            by_phase[phase] = by_phase.get(phase, GasBreakdown.zero()) + receipt.gas
        return by_phase

    def gas_total(self) -> GasBreakdown:
        """Total gas of the successful transactions, over every phase."""
        return sum(self.gas_by_phase().values(), GasBreakdown.zero())


@dataclass
class DealResult(ReceiptGas):
    """The observable outcome of one deal execution."""

    spec: DealSpec
    config: ProtocolConfig
    initial_holdings: Holdings
    final_holdings: Holdings
    receipts: list[Receipt]
    escrow_states: dict
    timeline: Timeline
    party_stats: dict
    env: DealEnvironment
    effective_delta: float

    def all_committed(self) -> bool:
        """Whether every escrow released (the 'all' outcome)."""
        return all(state is EscrowState.RELEASED for state in self.escrow_states.values())

    def all_refunded(self) -> bool:
        """Whether every escrow refunded (the 'nothing' outcome)."""
        return all(state is EscrowState.REFUNDED for state in self.escrow_states.values())


def auto_config(
    spec: DealSpec,
    kind: ProtocolKind,
    msg_bound: float = 1.0,
    block_interval: float = 1.0,
    altruistic_votes: bool = False,
    proof_kind: ProofKind = ProofKind.STATUS_CERTIFICATE,
    pow_confirmations: int = 3,
) -> ProtocolConfig:
    """Derive safe Δ / t0 / patience values from the substrate timing.

    One observable state change costs at most ``2·msg_bound +
    block_interval`` (submit, inclusion, notification); Δ doubles that
    for slack.  ``t0`` leaves room for escrow, (sequential) transfers,
    and validation, as §5 prescribes.
    """
    cycle = 2 * msg_bound + block_interval
    delta = 2 * cycle
    t0 = (spec.t_transfers + 6) * cycle
    patience = t0 + (spec.n_parties + 4) * delta
    return ProtocolConfig(
        kind=kind,
        delta=delta,
        t0=t0,
        patience=patience,
        altruistic_votes=altruistic_votes,
        proof_kind=proof_kind,
        pow_confirmations=pow_confirmations,
    )


class DealExecutor:
    """Build and run one cross-chain deal."""

    def __init__(
        self,
        spec: DealSpec,
        parties: list[CompliantParty],
        config: ProtocolConfig,
        seed: int = 0,
        msg_bound: float = 1.0,
        block_interval: float = 1.0,
        validators_f: int = 1,
        reconfigurations: int = 0,
        gst: float = 0.0,
        fault_plan: FaultPlan | None = None,
    ):
        if {party.address for party in parties} != set(spec.parties):
            raise ConfigurationError("party list does not match the deal's plist")
        self.spec = spec
        self.parties = list(parties)
        self.config = config
        self.seed = seed
        self.msg_bound = msg_bound
        self.block_interval = block_interval
        self.validators_f = validators_f
        self.reconfigurations = reconfigurations
        self.gst = gst
        self.fault_plan = fault_plan

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
            gst=self.gst,
        )
        simulator, network, chains = env.simulator, env.network, env.chains

        # The shared log, if this protocol needs one, and the escrow
        # contracts, one per asset.
        if self.config.kind is ProtocolKind.TIMELOCK:
            make_escrow = self._timelock_escrow
        else:
            make_escrow = self._certified_log(env)
        for asset in self.spec.assets:
            escrow = make_escrow(self.spec.escrow_contract_name(asset.asset_id), asset)
            chains[asset.chain_id].publish(escrow)
            env.escrows[asset.asset_id] = escrow

        # Bind parties and fan out block notifications.
        for party in self.parties:
            party.bind(env, self.spec, self.config)
        endpoints = [party.endpoint for party in self.parties]
        for source in (*chains.values(), env.cbc):
            if source is not None:
                fan_out(network, source, endpoints)

        if self.fault_plan is not None:
            self.fault_plan.install(network)

        # Clearing phase: everyone starts at t = 0.
        for party in self.parties:
            simulator.schedule(0.0, party.begin, label=f"{party.label}/begin")
        return env

    def _timelock_escrow(self, name: str, asset) -> TimelockEscrow:
        config = self.config
        return TimelockEscrow(
            name,
            self.spec.deal_id,
            self.spec.parties,
            asset,
            t0=config.t0,
            delta=config.delta,
            batch_votes=config.batch_vote_verification,
        )

    def _certified_log(self, env: DealEnvironment):
        """Wire the deal's certified log into ``env`` as its ``cbc``
        endpoint; return the factory of the escrows that trust it.

        The BFT log hears the deal's ``startDeal`` from the first party
        at t = 0 (the clearing phase) and reconfigures its validators
        mid-run as planned; the PoW log has the deal registered
        directly.
        """
        spec, config = self.spec, self.config
        if config.kind is ProtocolKind.CBC_POW:
            log = env.cbc = PowCertifiedLog(
                env.simulator,
                env.wallet,
                min_confirmations=config.pow_confirmations,
                block_interval=self.block_interval,
            )
            log.register_deal(spec.deal_id, spec.parties)
            env.network.register("cbc", submitter(log))
            return lambda name, asset: PowCbcEscrow(
                name, spec.deal_id, spec.parties, asset,
                min_confirmations=config.pow_confirmations,
            )
        validators = ValidatorSet.generate(self.validators_f, seed=f"cbc/{self.seed}")
        cbc = env.cbc = CertifiedBlockchain(
            env.simulator, validators, env.wallet, block_interval=self.block_interval
        )
        env.network.register("cbc", submitter(cbc))
        starter = self.parties[0]
        start = LogEntry(
            kind="startDeal", deal_id=spec.deal_id, party=starter.address, plist=spec.parties
        ).signed(starter.keypair)
        env.start_hash = start.message()
        env.simulator.schedule(
            0.0,
            lambda: env.network.send(starter.endpoint, "cbc", ("entry", start)),
            label="clearing/startDeal",
        )
        # Planned reconfigurations (E3 ablation) happen mid-run, after
        # the deal has started but before settlement typically begins.
        for k in range(self.reconfigurations):
            env.simulator.schedule(
                1.0 + k,
                lambda: cbc.reconfigure(seed=f"cbc/{self.seed}"),
                label="cbc/reconfigure",
            )
        return lambda name, asset: CbcEscrow(
            name, spec.deal_id, spec.parties, asset,
            start_hash=env.start_hash, validator_keys=cbc.initial_public_keys,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> DealResult:
        """Assemble, run to quiescence, and report."""
        env = self._build()
        initial = snapshot_holdings(env, self.spec)
        env.simulator.run(max_events=2_000_000)
        final = snapshot_holdings(env, self.spec)
        receipts = collect_receipts(env)
        timeline = build_timeline(receipts, env)
        escrow_states = {
            asset_id: escrow.peek_state() for asset_id, escrow in env.escrows.items()
        }
        return DealResult(
            spec=self.spec,
            config=self.config,
            initial_holdings=initial,
            final_holdings=final,
            receipts=receipts,
            escrow_states=escrow_states,
            timeline=timeline,
            party_stats={party.label: party.stats for party in self.parties},
            env=env,
            effective_delta=self.config.delta,
        )


# ----------------------------------------------------------------------
# Result assembly helpers
# ----------------------------------------------------------------------
def snapshot_holdings(env: DealEnvironment, spec: DealSpec) -> Holdings:
    """Snapshot who owns what, per (chain, token).

    Fungible tokens map party address -> balance; non-fungible tokens
    map party address -> frozenset of token ids.  Escrow contract
    addresses appear alongside parties, so locked-up value is visible.
    """
    holders = list(spec.parties) + [escrow.address for escrow in env.escrows.values()]
    snapshot: Holdings = {}
    for (chain_id, token_name), token in env.tokens.items():
        per_holder: dict = {}
        if isinstance(token, FungibleToken):
            for holder in holders:
                per_holder[holder] = token.peek_balance(holder)
        else:
            all_ids = [
                token_id
                for asset in spec.assets
                if asset.chain_id == chain_id and asset.token == token_name
                for token_id in asset.token_ids
            ]
            for holder in holders:
                per_holder[holder] = frozenset(
                    token_id for token_id in all_ids if token.peek_owner(token_id) == holder
                )
        snapshot[(chain_id, token_name)] = per_holder
    return snapshot


def collect_receipts(env: DealEnvironment) -> list[Receipt]:
    """All block-executed receipts across chains, in execution order."""
    receipts: list[Receipt] = []
    for chain in env.chains.values():
        for block in chain.blocks:
            receipts.extend(block.receipts)
    receipts.sort(key=lambda receipt: (receipt.executed_at, receipt.tx.tx_id))
    return receipts


def build_timeline(receipts: list[Receipt], env: DealEnvironment) -> Timeline:
    """Derive phase milestones from the receipt stream."""
    timeline = Timeline(started_at=0.0, ended_at=env.simulator.now)
    deposits: list[float] = []
    transfers: list[float] = []
    votes: list[float] = []
    settles: list[float] = []
    for receipt in receipts:
        if not receipt.ok:
            continue
        phase = receipt.tx.phase
        if phase == "escrow" and receipt.tx.method == "deposit":
            deposits.append(receipt.executed_at)
        elif phase == "transfer":
            transfers.append(receipt.executed_at)
        elif phase == "commit":
            votes.append(receipt.executed_at)
        for event in receipt.events:
            if event.name in ("Released", "Refunded"):
                settles.append(receipt.executed_at)
    if deposits:
        timeline.escrow_done = max(deposits)
    if transfers:
        timeline.transfers_done = max(transfers)
    elif deposits:
        timeline.transfers_done = timeline.escrow_done
    if votes:
        timeline.all_votes_cast = max(votes)
    if settles:
        timeline.settled_at = max(settles)
    return timeline
