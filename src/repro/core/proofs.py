"""Cross-chain proofs of commit and abort (paper §6.2).

A party claiming an escrowed asset (or a refund) must convince a
*passive contract* on the asset's chain that the CBC recorded a
decisive commit (or abort).  Three proof flavours:

* :class:`StatusProof` — the optimized form: one quorum-signed status
  certificate, plus the handover chain if validators reconfigured.
  Verification costs ``(k+1)·(2f+1)`` signature checks.
* :class:`BlockProof` — the straightforward form: the certified block
  subsequence from the deal's startDeal to the decisive vote; the
  contract replays the entries itself.  Verification costs one quorum
  check *per block* plus the replay.
* :class:`PowVoteProof` — for a proof-of-work CBC: a linked block
  suffix with confirmation depth.  The contract can check linkage and
  depth but **not** canonicality — which is exactly why the §6.2
  private-mining attack works against it.

All verifier functions charge signature verifications on the calling
context's gas meter, so the Figure 4 cost rows are measured, not
asserted.
"""

from __future__ import annotations

from repro.chain.contracts import CallContext
from repro.consensus.bft import (
    BlockProof,
    CbcBlock,
    DealStatus,
    LogEntry,
    StatusCertificate,
    StatusProof,
)
from repro.consensus.validators import HandoverCertificate, batch_verify_quorum
from repro.consensus.pow import PowProof, PowVoteProof, encode_pow_vote
from repro.crypto.hashing import hash_concat
from repro.crypto.schnorr import PublicKey

# The proof types live beside the logs that build them —
# StatusProof and BlockProof in repro.consensus.bft, PowVoteProof and
# encode_pow_vote in repro.consensus.pow — and are re-exported here for
# the proof-verification API.

# ----------------------------------------------------------------------
# Validator-set resolution (shared by both BFT proof forms)
# ----------------------------------------------------------------------
def _resolve_validators(
    ctx: CallContext,
    initial_keys: tuple[PublicKey, ...],
    handovers: tuple[HandoverCertificate, ...],
    target_epoch: int,
) -> tuple[PublicKey, ...] | None:
    """Walk the handover chain from the initial set to ``target_epoch``.

    Each hop costs ``2f+1`` signature verifications.  Returns the
    public keys in charge at ``target_epoch``, or ``None`` if the
    chain is broken or does not reach the target.
    """
    keys = initial_keys
    epoch = 0
    quorum = _quorum_size(len(keys))
    for handover in handovers:
        if epoch >= target_epoch:
            break
        if handover.from_epoch != epoch or handover.to_epoch != epoch + 1:
            return None
        if not _check_quorum(
            ctx, keys, quorum, _handover_message(handover), handover.signatures
        ):
            return None
        keys = handover.new_public_keys
        quorum = _quorum_size(len(keys))
        epoch += 1
    if epoch != target_epoch:
        return None
    return keys


def _handover_message(handover: HandoverCertificate) -> bytes:
    return HandoverCertificate.message(
        handover.from_epoch, handover.to_epoch, handover.new_public_keys
    )


def _status_message(certificate: StatusCertificate) -> bytes:
    return StatusCertificate.message(
        certificate.deal_id, certificate.start_hash, certificate.status, certificate.epoch
    )


def _quorum_size(set_size: int) -> int:
    f = (set_size - 1) // 3
    return 2 * f + 1


def _check_quorum(
    ctx: CallContext,
    valid_keys: tuple[PublicKey, ...],
    quorum: int,
    message: bytes,
    signatures,
) -> bool:
    """Verify ≥ ``quorum`` distinct valid validator signatures.

    Wall-clock fast path: a clean certificate is checked as one
    batched linear combination (and acceptance certifies each member
    signature, so the same certificate presented to every chain has
    nothing left to combine).  The *gas* charged is unchanged — the
    protocol still pays the full 3000-gas price per signature, exactly
    as the per-signature replay below would charge.
    """
    entries = list(signatures)
    if entries and batch_verify_quorum(valid_keys, quorum, message, entries):
        # Batch acceptance certifies every member signature, so this
        # charges what the sequential replay would have: one
        # verification per signature.
        ctx.meter.charge_sig_verify(len(entries))
        return True
    # Slow path (malformed or sub-quorum certificates): the exact
    # per-signature replay, charging gas signature by signature.
    key_set = set(valid_keys)
    seen: set[int] = set()
    good = 0
    for entry in entries:
        if entry.public_key.point in seen:
            return False  # duplicate signer: malformed certificate
        seen.add(entry.public_key.point)
        if entry.public_key not in key_set:
            return False  # only validators may vote
        if not ctx.verify_raw_signature(entry.public_key, message, entry.signature):
            return False
        good += 1
    return good >= quorum


# ----------------------------------------------------------------------
# Verifiers
# ----------------------------------------------------------------------
def status_proof_claims(proof: StatusProof, deal_id: bytes, start_hash: bytes) -> list:
    """The ``(public_key, message, signature)`` triples
    :func:`verify_status_proof` would check: the handovers up to the
    certificate's epoch, then the certificate — none for another deal's."""
    certificate = proof.certificate
    if certificate.deal_id != deal_id or certificate.start_hash != start_hash:
        return []
    quorums = [
        (_handover_message(handover), handover.signatures)
        for handover in proof.handovers[: certificate.epoch]
    ]
    quorums.append((_status_message(certificate), certificate.signatures))
    return [(e.public_key, message, e.signature) for message, entries in quorums for e in entries]


def verify_status_proof(
    ctx: CallContext,
    proof: StatusProof,
    initial_keys: tuple[PublicKey, ...],
    deal_id: bytes,
    start_hash: bytes,
) -> DealStatus | None:
    """Check a status certificate; return its status or ``None``.

    Cost: ``(k+1)·(2f+1)`` signature verifications for ``k``
    reconfigurations — the CBC row of Figure 4.
    """
    certificate = proof.certificate
    if certificate.deal_id != deal_id or certificate.start_hash != start_hash:
        return None
    keys = _resolve_validators(ctx, initial_keys, proof.handovers, certificate.epoch)
    if keys is None:
        return None
    if not _check_quorum(
        ctx, keys, _quorum_size(len(keys)), _status_message(certificate), certificate.signatures
    ):
        return None
    if certificate.status not in (DealStatus.COMMITTED, DealStatus.ABORTED):
        return None
    return certificate.status


def verify_block_proof(
    ctx: CallContext,
    proof: BlockProof,
    initial_keys: tuple[PublicKey, ...],
    deal_id: bytes,
    start_hash: bytes,
    plist,
) -> DealStatus | None:
    """Check a block-subsequence proof by replaying its entries.

    The straightforward approach of §6.2: verify each block's quorum
    certificate and linkage, find the startDeal whose hash matches the
    escrow's ``start_hash``, then replay commit/abort votes to find
    the decisive one.  Much more expensive than a status certificate —
    the ablation in benchmark E3 quantifies the gap.
    """
    if not proof.blocks:
        return None
    # Authenticate every block.
    previous: CbcBlock | None = None
    for block in proof.blocks:
        keys = _resolve_validators(ctx, initial_keys, proof.handovers, block.epoch)
        if keys is None:
            return None
        if not _check_quorum(
            ctx, keys, _quorum_size(len(keys)), block.body_hash(), block.certificate
        ):
            return None
        if previous is not None:
            if block.height != previous.height + 1:
                return None
            if block.parent_hash != previous.body_hash():
                return None
        previous = block
    # Replay the deal's entries.
    ctx.meter.charge_compute(sum(len(block.entries) for block in proof.blocks))
    started = False
    committed: set = set()
    party_set = set(plist)
    for block in proof.blocks:
        for entry in block.entries:
            if entry.deal_id != deal_id:
                continue
            if entry.kind == "startDeal":
                if entry.message() == start_hash:
                    started = True
                continue
            if not started or entry.start_hash != start_hash:
                continue
            if entry.party not in party_set:
                continue
            if entry.kind == "commit":
                committed.add(entry.party)
                if committed == party_set:
                    return DealStatus.COMMITTED
            elif entry.kind == "abort":
                return DealStatus.ABORTED
    return None


def verify_pow_proof(
    ctx: CallContext,
    proof: PowVoteProof,
    deal_id: bytes,
    plist,
    min_confirmations: int,
) -> DealStatus | None:
    """Check a PoW proof: linkage, confirmation depth, and the vote replay.

    Deliberately *cannot* detect a privately mined fork — the paper's
    point.  Cost model: one compute charge per block (hash re-check).
    """
    ctx.meter.charge_compute(len(proof.proof.blocks))
    if not proof.proof.verify(min_confirmations):
        return None
    decisive = proof.proof.blocks[proof.proof.decisive_index]
    if proof.claimed_status is DealStatus.COMMITTED:
        needed = {
            encode_pow_vote(deal_id, "commit", party.value) for party in plist
        }
        found: set[bytes] = set()
        for block in proof.proof.blocks[: proof.proof.decisive_index + 1]:
            for entry in block.entries:
                if entry in needed:
                    found.add(entry)
        return DealStatus.COMMITTED if found == needed else None
    if proof.claimed_status is DealStatus.ABORTED:
        abort_entries = {
            encode_pow_vote(deal_id, "abort", party.value) for party in plist
        }
        if any(entry in abort_entries for entry in decisive.entries):
            return DealStatus.ABORTED
        return None
    return None
