"""A proof-of-work CBC: the §6.2 alternative, runnable end to end.

Where :class:`~repro.consensus.bft.CertifiedBlockchain` certifies each
block with a validator quorum, this log is extended by simulated
honest mining: pending entries are mined into a new block once per
block interval.  There is no finality — a deal's status only becomes
*claimable* once the decisive block has accumulated the confirmation
depth the escrow contracts demand, and (the point of E8) nothing
stops an attacker from privately mining a contradictory suffix.

Deal semantics are the BFT CBC's :class:`~repro.consensus.bft.VoteTally`:
a deal commits when every party's commit vote is mined before any
abort vote; an abort vote mined first aborts it.  Parties ask this log
the same three questions they ask the BFT one; here
:meth:`PowCertifiedLog.presentable_proof` also waits for the
confirmation depth the escrows demand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.consensus.bft import DealStatus, ProofKind, VoteTally
from repro.consensus.pow import PowChain, PowProof, PowVoteProof, encode_pow_vote
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.crypto.schnorr import Signature
from repro.errors import ConsensusError
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class PowLogEntry:
    """A signed vote destined for the PoW log."""

    kind: str  # "commit" | "abort"
    deal_id: bytes
    party: Address
    signature: Signature | None = None

    def payload(self) -> bytes:
        """The canonical on-chain encoding (what contracts replay)."""
        return encode_pow_vote(self.deal_id, self.kind, self.party.value)

    def signed(self, keypair: KeyPair) -> "PowLogEntry":
        """This vote carrying ``keypair``'s signature over :meth:`payload`."""
        return replace(self, signature=keypair.sign(self.payload()))


class PowCertifiedLog:
    """The PoW-flavoured shared log for the CBC protocol."""

    def __init__(
        self,
        simulator: Simulator,
        wallet: Wallet,
        min_confirmations: int,
        block_interval: float = 1.0,
        name: str = "pow-cbc",
    ):
        if block_interval <= 0:
            raise ConsensusError("block interval must be positive")
        self.name = name
        self.simulator = simulator
        self.wallet = wallet
        # The depth the deal's escrows demand before they accept a proof.
        self.min_confirmations = min_confirmations
        self.block_interval = block_interval
        self.chain = PowChain(name)
        self._pending: list[PowLogEntry] = []
        self._observers: list = []
        self._block_scheduled = False
        self._deals: dict[bytes, VoteTally] = {}

    # ------------------------------------------------------------------
    # Deal registration (the clearing phase announces the plist)
    # ------------------------------------------------------------------
    def register_deal(self, deal_id: bytes, plist: tuple[Address, ...]) -> None:
        """Tell the log about a deal so votes can be validated."""
        if deal_id not in self._deals:
            self._deals[deal_id] = VoteTally(plist=tuple(plist))

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def submit(self, entry: PowLogEntry) -> None:
        """Queue a signed vote for the next mined block."""
        if entry.signature is None:
            return
        message = entry.payload()
        if not self.wallet.verify(entry.party, message, entry.signature):
            return
        record = self._deals.get(entry.deal_id)
        if record is None or entry.party not in record.plist:
            return
        self._pending.append(entry)
        self._ensure_block_scheduled()

    def _ensure_block_scheduled(self) -> None:
        if self._block_scheduled:
            return
        self._block_scheduled = True
        now = self.simulator.now
        next_boundary = (int(now / self.block_interval) + 1) * self.block_interval
        self.simulator.schedule_at(next_boundary, self._mine_block, label="pow-cbc/mine")

    def _mine_block(self) -> None:
        self._block_scheduled = False
        pending, self._pending = self._pending, []
        accepted = [entry for entry in pending if self._apply(entry)]
        payloads = tuple(entry.payload() for entry in accepted)
        block = self.chain.mine(payloads, miner="honest")
        for observer in list(self._observers):
            observer(self, block)
        if self._pending:
            self._ensure_block_scheduled()
        elif self._needs_confirmations():
            # Keep mining empty blocks until every decided deal's
            # decisive block is buried deep enough to be claimable.
            self._ensure_block_scheduled()

    def _needs_confirmations(self, depth: int = 8) -> bool:
        for record in self._deals.values():
            if record.decisive_height is None:
                continue
            if self.chain.height - record.decisive_height < depth:
                return True
        return False

    def _apply(self, entry: PowLogEntry) -> bool:
        return self._deals[entry.deal_id].record(
            entry.kind, entry.party, self.chain.height + 1
        )

    # ------------------------------------------------------------------
    # Observation and proofs
    # ------------------------------------------------------------------
    def subscribe(self, observer) -> None:
        """Receive each mined block: ``observer(log, block)``."""
        self._observers.append(observer)

    def deal_status(self, deal_id: bytes, start_hash: bytes | None = None) -> DealStatus:
        """The log's view of the deal (ignoring confirmation depth).

        ``start_hash`` is ignored: the clearing phase registers the
        deal directly, there is no ``startDeal`` entry to bind to.
        """
        record = self._deals.get(deal_id)
        return record.status if record else DealStatus.UNKNOWN

    def confirmations(self, deal_id: bytes) -> int | None:
        """Blocks mined after the deal's decisive block."""
        record = self._deals.get(deal_id)
        if record is None or record.decisive_height is None:
            return None
        return self.chain.height - record.decisive_height

    def proof(self, deal_id: bytes) -> PowVoteProof | None:
        """Build the claimable proof for a decided deal.

        The block span starts at the earliest vote needed (for a
        commit, every party's vote must be inside the span) and the
        decisive index points at the block that decided the deal; the
        suffix provides the confirmations.
        """
        record = self._deals.get(deal_id)
        if record is None or record.decisive_height is None:
            return None
        if record.status is DealStatus.COMMITTED:
            needed = {
                encode_pow_vote(deal_id, "commit", party.value)
                for party in record.plist
            }
        else:
            needed = set()  # the decisive abort block carries the vote
        heights = [self.chain.find_entry(entry) for entry in needed]
        if any(height is None for height in heights):
            return None
        start = min(heights) if heights else record.decisive_height
        blocks = self.chain.blocks[start:]
        return PowVoteProof(
            proof=PowProof(
                blocks=tuple(blocks),
                decisive_index=record.decisive_height - start,
            ),
            claimed_status=record.status,
        )

    def signed_vote(
        self,
        keypair: KeyPair,
        kind: str,
        deal_id: bytes,
        plist: tuple[Address, ...],
        start_hash: bytes,
    ) -> PowLogEntry:
        """``keypair``'s signed ``kind`` vote (a mined vote names no
        plist or start hash: the registered deal supplies both)."""
        return PowLogEntry(kind=kind, deal_id=deal_id, party=keypair.address).signed(keypair)

    def presentable_proof(
        self, deal_id: bytes, status: DealStatus, proof_kind: ProofKind
    ) -> PowVoteProof | None:
        """A proof that the deal reached ``status``, once its decisive
        block is buried ``min_confirmations`` deep; ``None`` before.

        ``proof_kind`` is ignored: a PoW log has one proof form.
        """
        depth = self.confirmations(deal_id)
        if depth is None or depth < self.min_confirmations:
            return None
        proof = self.proof(deal_id)
        if proof is None or proof.claimed_status is not status:
            return None
        return proof
