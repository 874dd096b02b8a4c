"""BFT validator sets.

A validator set of size ``3f + 1`` tolerates ``f`` Byzantine members;
any ``2f + 1`` signatures constitute a quorum certificate (paper
§6.2).  The simulation holds the validators' keypairs so it can
produce certificates; contracts only ever see public keys.

Reconfiguration: a set can *hand over* to a successor set by signing a
handover statement with a quorum — the certificate-chain proofs in
:mod:`repro.consensus.bft` thread these handovers so a contract that
knows only the initial validators can still check recent certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import hash_concat
from repro.crypto.keys import KeyPair
from repro.crypto.schnorr import PublicKey, Signature, batch_verify as schnorr_batch_verify
from repro.errors import ConsensusError


@dataclass(frozen=True)
class QuorumSignature:
    """One validator's contribution to a quorum certificate."""

    public_key: PublicKey
    signature: Signature


class ValidatorSet:
    """``3f + 1`` validators with quorum-signing helpers."""

    def __init__(self, keypairs: list[KeyPair], epoch: int = 0):
        if not keypairs:
            raise ConsensusError("validator set cannot be empty")
        if (len(keypairs) - 1) % 3 != 0:
            raise ConsensusError(
                f"validator set size must be 3f+1, got {len(keypairs)}"
            )
        self._keypairs = list(keypairs)
        self.epoch = epoch

    @classmethod
    def generate(cls, f: int, seed: str = "validators", epoch: int = 0) -> "ValidatorSet":
        """Create a fresh set tolerating ``f`` Byzantine validators."""
        if f < 0:
            raise ConsensusError("f must be non-negative")
        size = 3 * f + 1
        keypairs = [
            KeyPair.from_label(f"{seed}/epoch{epoch}/validator{i}") for i in range(size)
        ]
        return cls(keypairs, epoch=epoch)

    @property
    def size(self) -> int:
        """Total validator count, ``3f + 1``."""
        return len(self._keypairs)

    @property
    def f(self) -> int:
        """The Byzantine tolerance ``f``."""
        return (len(self._keypairs) - 1) // 3

    @property
    def quorum(self) -> int:
        """Quorum size, ``2f + 1``."""
        return 2 * self.f + 1

    def public_keys(self) -> tuple[PublicKey, ...]:
        """The validators' public keys (what contracts are told)."""
        return tuple(kp.public_key for kp in self._keypairs)

    def quorum_sign(self, message: bytes) -> tuple[QuorumSignature, ...]:
        """Produce exactly ``2f + 1`` signatures over ``message``.

        The first ``2f + 1`` validators sign — which members
        participate is irrelevant to verification.
        """
        return tuple(
            QuorumSignature(kp.public_key, kp.sign(message))
            for kp in self._keypairs[: self.quorum]
        )

    def next_epoch(self, seed: str = "validators") -> "ValidatorSet":
        """Generate the successor set for a reconfiguration."""
        return ValidatorSet.generate(self.f, seed=seed, epoch=self.epoch + 1)


def quorum_structure_ok(
    valid_keys: tuple[PublicKey, ...],
    quorum: int,
    signatures,
) -> bool:
    """The structural half of a quorum check, shared by every caller.

    Every signer must be a member of ``valid_keys``, no signer may
    appear twice, and at least ``quorum`` signatures must be present —
    the same rules the per-signature replay in
    :mod:`repro.core.proofs` enforces, and the rules the market
    mempool applies before whole-block signature merging.
    """
    entries = list(signatures)
    if len(entries) < quorum:
        return False
    key_set = set(valid_keys)
    seen: set[int] = set()
    for entry in entries:
        if entry.public_key.point in seen:
            return False  # duplicate signer: malformed certificate
        seen.add(entry.public_key.point)
        if entry.public_key not in key_set:
            return False  # only members may vote
    return True


def batch_verify_quorum(
    valid_keys: tuple[PublicKey, ...],
    quorum: int,
    message: bytes,
    signatures,
) -> bool:
    """Batch-verify a quorum certificate: one combined check for all.

    Structure via :func:`quorum_structure_ok`; the cryptographic check
    itself is a single randomized linear combination
    (:func:`repro.crypto.schnorr.batch_verify`) instead of one
    exponentiation pair per signature.

    This is a wall-clock API — gas accounting stays with the caller,
    which still charges the protocol's full per-verification price.
    """
    entries = list(signatures)
    if not quorum_structure_ok(valid_keys, quorum, entries):
        return False
    return schnorr_batch_verify(
        [(entry.public_key, message, entry.signature) for entry in entries]
    )


@dataclass(frozen=True)
class HandoverCertificate:
    """A quorum of epoch ``k`` vouching for the validators of epoch ``k+1``."""

    from_epoch: int
    to_epoch: int
    new_public_keys: tuple[PublicKey, ...]
    signatures: tuple[QuorumSignature, ...]

    @staticmethod
    def message(from_epoch: int, to_epoch: int, new_keys: tuple[PublicKey, ...]) -> bytes:
        """Canonical byte encoding of the handover statement."""
        return hash_concat(
            b"repro/handover",
            from_epoch.to_bytes(8, "big"),
            to_epoch.to_bytes(8, "big"),
            *[key.to_bytes() for key in new_keys],
        )


def make_handover(old: ValidatorSet, new: ValidatorSet) -> HandoverCertificate:
    """Have ``old``'s quorum certify ``new`` as its successor."""
    if new.epoch != old.epoch + 1:
        raise ConsensusError("handover must advance the epoch by one")
    message = HandoverCertificate.message(old.epoch, new.epoch, new.public_keys())
    return HandoverCertificate(
        from_epoch=old.epoch,
        to_epoch=new.epoch,
        new_public_keys=new.public_keys(),
        signatures=old.quorum_sign(message),
    )
