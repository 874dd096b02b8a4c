"""The BFT certified blockchain (CBC) — the shared log of paper §6.

The CBC records ``startDeal``, ``commit``, and ``abort`` entries in a
total order.  Every block carries a quorum certificate (≥ 2f+1
validator signatures over the block hash), so any party can extract a
**proof** that particular votes were recorded in a particular order
and present it to a passive escrow contract on another chain:

* a *block proof* is the certified block subsequence from the deal's
  ``startDeal`` to its decisive vote (the straightforward approach);
* a *status certificate* is a single quorum-signed statement of the
  deal's outcome (the optimization of §6.2);
* after ``k`` reconfigurations, either proof is prefixed by ``k``
  handover certificates so a contract that knows only the initial
  validators can still verify.

Deal semantics on the log (§6.2): a deal **commits** when every party
in its plist has a commit vote recorded before any abort vote; it
**aborts** when some abort vote is recorded before that point.  A
party may rescind an earlier commit vote by voting abort (only
decisive if the all-commit point has not been reached).  That rule is
:class:`VoteTally`, which the proof-of-work log
(:mod:`repro.consensus.pow_log`) shares.

Parties see either log through the same three questions —
:meth:`~CertifiedBlockchain.signed_vote`,
:meth:`~CertifiedBlockchain.deal_status` and
:meth:`~CertifiedBlockchain.presentable_proof` — so the protocol code
never asks which flavour it is talking to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.chain.ledger import VerifyAggregator
from repro.consensus.validators import (
    HandoverCertificate,
    QuorumSignature,
    ValidatorSet,
    make_handover,
)
from repro.crypto.hashing import hash_concat
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.crypto.schnorr import (
    Signature,
    batch_verify_many as schnorr_batch_verify_many,
)
from repro.errors import ConsensusError
from repro.sim.simulator import Simulator


class DealStatus(Enum):
    """The CBC-side status of a deal."""

    UNKNOWN = "unknown"
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class ProofKind(Enum):
    """Which proof form CBC parties present to escrow contracts (§6.2)."""

    STATUS_CERTIFICATE = "status"
    BLOCK_PROOF = "blocks"


@dataclass
class VoteTally:
    """One deal's commit/abort votes, in log order (§6.2).

    The deal commits on the vote that completes its plist's commit
    votes and aborts on an abort vote recorded before that; votes after
    the decisive one are recorded but change nothing.
    """

    plist: tuple[Address, ...]
    committed: set[Address] = field(default_factory=set)
    status: DealStatus = DealStatus.ACTIVE
    decisive_height: int | None = None

    def record(self, kind: str, party: Address, height: int) -> bool:
        """Count ``party``'s ``kind`` vote at ``height``; return whether
        the log records it (only commit and abort votes are)."""
        if kind not in ("commit", "abort"):
            return False
        if self.status is not DealStatus.ACTIVE:
            return True  # recorded, but after the decisive vote
        if kind == "commit":
            self.committed.add(party)
            if self.committed == set(self.plist):
                self.status = DealStatus.COMMITTED
                self.decisive_height = height
        else:
            self.status = DealStatus.ABORTED
            self.decisive_height = height
        return True


@dataclass(frozen=True)
class LogEntry:
    """One entry on the CBC.

    ``kind`` is one of ``startDeal``, ``commit``, ``abort``.  Votes are
    signed by their voter; the CBC verifies the signature before
    recording (a malformed vote is simply not recorded).
    """

    kind: str
    deal_id: bytes
    party: Address
    plist: tuple[Address, ...] = ()
    start_hash: bytes = b""
    signature: Signature | None = None

    def message(self) -> bytes:
        """Canonical signing bytes (binds kind, deal, party, plist)."""
        return hash_concat(
            b"repro/cbc-entry",
            self.kind.encode("utf-8"),
            self.deal_id,
            self.party.value,
            *[address.value for address in self.plist],
            self.start_hash,
        )

    def encode(self) -> bytes:
        """Full byte encoding (for block hashing)."""
        sig = self.signature.to_bytes() if self.signature else b""
        return hash_concat(self.message(), sig)

    def signed(self, keypair: KeyPair) -> "LogEntry":
        """This entry carrying ``keypair``'s signature over :meth:`message`."""
        return replace(self, signature=keypair.sign(self.message()))


@dataclass(frozen=True)
class CbcBlock:
    """A certified CBC block: entries + quorum certificate."""

    height: int
    parent_hash: bytes
    entries: tuple[LogEntry, ...]
    epoch: int
    timestamp: float
    certificate: tuple[QuorumSignature, ...] = ()

    def body_hash(self) -> bytes:
        """Hash of everything the certificate signs."""
        return hash_concat(
            b"repro/cbc-block",
            self.height.to_bytes(8, "big"),
            self.parent_hash,
            self.epoch.to_bytes(8, "big"),
            *[entry.encode() for entry in self.entries],
        )


@dataclass(frozen=True)
class StatusCertificate:
    """A quorum-signed statement of a deal's status (§6.2 optimization)."""

    deal_id: bytes
    start_hash: bytes
    status: DealStatus
    epoch: int
    signatures: tuple[QuorumSignature, ...]

    @staticmethod
    def message(deal_id: bytes, start_hash: bytes, status: DealStatus, epoch: int) -> bytes:
        """Canonical signing bytes for a status statement."""
        return hash_concat(
            b"repro/cbc-status",
            deal_id,
            start_hash,
            status.value.encode("utf-8"),
            epoch.to_bytes(8, "big"),
        )


@dataclass(frozen=True)
class StatusProof:
    """A status certificate plus the validator handover chain."""

    certificate: StatusCertificate
    handovers: tuple[HandoverCertificate, ...] = ()


@dataclass(frozen=True)
class BlockProof:
    """A certified block subsequence plus the handover chain."""

    blocks: tuple[CbcBlock, ...]
    handovers: tuple[HandoverCertificate, ...] = ()


@dataclass
class _DealRecord(VoteTally):
    start_height: int = 0


class CertifiedBlockchain:
    """The CBC: an actor producing certified blocks of deal entries."""

    def __init__(
        self,
        simulator: Simulator,
        validators: ValidatorSet,
        wallet: Wallet,
        block_interval: float = 1.0,
        name: str = "cbc",
    ):
        if block_interval <= 0:
            raise ConsensusError("block interval must be positive")
        self.name = name
        self.simulator = simulator
        self.wallet = wallet
        self.block_interval = block_interval
        self._validators = validators
        self._initial_public_keys = validators.public_keys()
        self._handovers: list[HandoverCertificate] = []
        # Signatures are checked at block production.
        self._pending: list[LogEntry] = []
        self._blocks: list[CbcBlock] = []
        self._observers: list = []
        self._block_scheduled = False
        self._verify = VerifyAggregator.of(simulator)
        self._deals: dict[tuple[bytes, bytes], _DealRecord] = {}
        self._starts: dict[bytes, bytes] = {}  # deal_id -> definitive start hash
        self._certificates: dict[tuple, StatusCertificate] = {}
        self.censored_deals: set[bytes] = set()
        genesis = CbcBlock(
            height=0,
            parent_hash=b"\x00" * 32,
            entries=(),
            epoch=validators.epoch,
            timestamp=simulator.now,
        )
        certificate = validators.quorum_sign(genesis.body_hash())
        self._blocks.append(
            CbcBlock(
                height=0,
                parent_hash=b"\x00" * 32,
                entries=(),
                epoch=validators.epoch,
                timestamp=simulator.now,
                certificate=certificate,
            )
        )

    # ------------------------------------------------------------------
    # Validator management
    # ------------------------------------------------------------------
    @property
    def validators(self) -> ValidatorSet:
        """The current validator set."""
        return self._validators

    @property
    def initial_public_keys(self):
        """Epoch-0 public keys — what escrow contracts are given."""
        return self._initial_public_keys

    @property
    def handovers(self) -> tuple[HandoverCertificate, ...]:
        """All reconfiguration certificates, oldest first."""
        return tuple(self._handovers)

    def reconfigure(self, seed: str = "validators") -> ValidatorSet:
        """Elect a successor validator set, recording a handover."""
        new_set = self._validators.next_epoch(seed=seed)
        self._handovers.append(make_handover(self._validators, new_set))
        self._validators = new_set
        return new_set

    # ------------------------------------------------------------------
    # Log access
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Current block height (genesis = 0)."""
        return self._blocks[-1].height

    @property
    def blocks(self) -> tuple[CbcBlock, ...]:
        """All certified blocks."""
        return tuple(self._blocks)

    def entries(self) -> list[LogEntry]:
        """The full ordered log (concatenated block entries)."""
        ordered: list[LogEntry] = []
        for block in self._blocks:
            ordered.extend(block.entries)
        return ordered

    def subscribe(self, observer) -> None:
        """Receive each new block: ``observer(cbc, block)``."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Entry submission
    # ------------------------------------------------------------------
    def submit(self, entry: LogEntry) -> None:
        """Queue ``entry`` for the next block.

        Entries with invalid signatures are dropped (validators refuse
        them); entries for censored deals are silently ignored — the
        §9 censorship threat, used by fault-injection experiments.

        Cross-block vote aggregation: the signature check is deferred
        to block production, where every entry that arrived during the
        block interval is verified in **one** batched Schnorr check
        (each entry its own group, so a bad vote drops only itself).
        That check is usually answered by standing verdicts: the log
        files its entries' signatures as claims under the boundary it
        schedules, so they join the one merged check of every chain due
        at the same instant (:class:`repro.chain.ledger.VerifyAggregator`),
        which certifies only signatures that verify.
        A block holds every validly signed entry pending at its
        boundary; a bad-signature entry is never recorded, and an
        interval whose entries all fail mints no block.
        """
        if entry.deal_id in self.censored_deals:
            return
        if entry.signature is None:
            return
        self._pending.append(entry)
        self._ensure_block_scheduled()

    def _verify_pending(self, entries: list[LogEntry]) -> list[LogEntry]:
        """Drop entries whose signatures fail, in one batched check."""
        known = [entry for entry in entries if self.wallet.knows(entry.party)]
        verdicts = schnorr_batch_verify_many(
            [self._claim(entry) for entry in known], self._verify.cache
        )
        return [entry for entry, ok in zip(known, verdicts) if ok]

    def _pending_claims(self) -> list:
        """One singleton claim per pending entry from a known party."""
        return [
            self._claim(entry)
            for entry in self._pending
            if self.wallet.knows(entry.party)
        ]

    def _claim(self, entry: LogEntry) -> list:
        """A known party's entry as a one-signature group."""
        return [(self.wallet.public_key(entry.party), entry.message(), entry.signature)]

    def _ensure_block_scheduled(self) -> None:
        if self._block_scheduled:
            return
        self._block_scheduled = True
        self._verify.schedule_block(
            self.block_interval, self._produce_block, self._pending_claims, "cbc/block"
        )

    def _produce_block(self) -> None:
        self._block_scheduled = False
        self._verify.settle(self._pending_claims)
        pending, self._pending = self._pending, []
        valid = self._verify_pending(pending)
        if not valid:
            return
        accepted = [entry for entry in valid if self._apply(entry)]
        body = CbcBlock(
            height=self.height + 1,
            parent_hash=self._blocks[-1].body_hash(),
            entries=tuple(accepted),
            epoch=self._validators.epoch,
            timestamp=self.simulator.now,
        )
        certificate = self._validators.quorum_sign(body.body_hash())
        block = CbcBlock(
            height=body.height,
            parent_hash=body.parent_hash,
            entries=body.entries,
            epoch=body.epoch,
            timestamp=body.timestamp,
            certificate=certificate,
        )
        self._blocks.append(block)
        for observer in list(self._observers):
            observer(self, block)
        if self._pending:
            self._ensure_block_scheduled()

    def _apply(self, entry: LogEntry) -> bool:
        """Update deal state; return whether the entry is recorded."""
        height = self.height + 1
        if entry.kind == "startDeal":
            if not entry.plist or entry.party not in entry.plist:
                return False
            if entry.deal_id in self._starts:
                # Later startDeals are recorded but not definitive.
                return True
            start_hash = entry.message()
            self._starts[entry.deal_id] = start_hash
            self._deals[(entry.deal_id, start_hash)] = _DealRecord(
                plist=entry.plist, start_height=height
            )
            return True
        record = self._deals.get((entry.deal_id, entry.start_hash))
        if record is None or entry.party not in record.plist:
            return False
        return record.record(entry.kind, entry.party, height)

    # ------------------------------------------------------------------
    # Deal status and proofs
    # ------------------------------------------------------------------
    def definitive_start_hash(self, deal_id: bytes) -> bytes | None:
        """The hash of the earliest recorded startDeal for ``deal_id``."""
        return self._starts.get(deal_id)

    def deal_status(self, deal_id: bytes, start_hash: bytes | None = None) -> DealStatus:
        """The current status of a deal on this log."""
        if start_hash is None:
            start_hash = self._starts.get(deal_id)
        if start_hash is None:
            return DealStatus.UNKNOWN
        record = self._deals.get((deal_id, start_hash))
        return record.status if record is not None else DealStatus.UNKNOWN

    def status_certificate(self, deal_id: bytes) -> StatusCertificate | None:
        """Produce a quorum-signed status statement (§6.2 optimization).

        Returns ``None`` while the deal is still active (there is
        nothing decisive to certify).  Signed once: a decided deal's
        status never changes and a reconfiguration is a new epoch, so
        every later request gets the same certificate object back.
        """
        start_hash = self._starts.get(deal_id)
        if start_hash is None:
            return None
        status = self.deal_status(deal_id, start_hash)
        if status not in (DealStatus.COMMITTED, DealStatus.ABORTED):
            return None
        key = (deal_id, start_hash, status, self._validators.epoch)
        if key not in self._certificates:
            self._certificates[key] = StatusCertificate(
                *key, signatures=self._validators.quorum_sign(StatusCertificate.message(*key))
            )
        return self._certificates[key]

    def block_proof(self, deal_id: bytes) -> tuple[CbcBlock, ...] | None:
        """The certified block subsequence from startDeal to decision.

        The "straightforward approach" of §6.2: the contract replays
        the entries itself.  Returns ``None`` while the deal is active.
        """
        start_hash = self._starts.get(deal_id)
        if start_hash is None:
            return None
        record = self._deals.get((deal_id, start_hash))
        if record is None or record.decisive_height is None:
            return None
        return tuple(
            block
            for block in self._blocks
            if record.start_height <= block.height <= record.decisive_height
        )

    # ------------------------------------------------------------------
    # The party-facing interface (shared with the PoW log)
    # ------------------------------------------------------------------
    def signed_vote(
        self,
        keypair: KeyPair,
        kind: str,
        deal_id: bytes,
        plist: tuple[Address, ...],
        start_hash: bytes,
    ) -> LogEntry:
        """``keypair``'s signed ``kind`` vote on the deal started by ``start_hash``."""
        return LogEntry(
            kind=kind, deal_id=deal_id, party=keypair.address,
            plist=plist, start_hash=start_hash,
        ).signed(keypair)

    def presentable_proof(
        self, deal_id: bytes, status: DealStatus, proof_kind: ProofKind
    ) -> StatusProof | BlockProof | None:
        """A proof that the deal reached ``status``, in ``proof_kind``'s
        form and prefixed by every handover, or ``None`` while it has not."""
        if self.deal_status(deal_id) is not status:
            return None
        if proof_kind is ProofKind.STATUS_CERTIFICATE:
            return StatusProof(
                certificate=self.status_certificate(deal_id), handovers=self.handovers
            )
        return BlockProof(blocks=self.block_proof(deal_id), handovers=self.handovers)
