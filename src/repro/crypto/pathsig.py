"""Path signatures for the timelock commit protocol (paper §5).

A commit vote in the timelock protocol travels from the voter's
incoming-asset contracts to other contracts by being *forwarded* by
motivated parties.  Each forwarder countersigns, producing a chain of
signatures the paper calls the vote's **path signature**.  An escrow
contract accepts a vote from party ``X`` carried by path signature
``p`` only if it arrives before ``t0 + |p| * Δ``, where ``|p|`` is the
number of distinct signers.

Representation: the voter signs the vote message; each forwarder signs
the previous accumulated signature.  Concretely, for path
``[carol, bob, alice]`` (Carol voted, Bob forwarded, Alice forwarded):

* ``sig_0 = Sign(carol, vote_message)``
* ``sig_1 = Sign(bob,   sig_0.to_bytes())``
* ``sig_2 = Sign(alice, sig_1.to_bytes())``

Verification replays the chain with the claimed signers' public keys.
A deviating party cannot extend a path with a forged inner signature,
nor strip honest signers off the front (each layer commits to the one
below it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import hash_concat
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.crypto.schnorr import Signature
from repro.errors import CryptoError


def vote_message(deal_id: bytes, voter: Address, decision: str = "commit") -> bytes:
    """Canonical byte encoding of a vote, bound to the deal identifier.

    The deal id acts as a nonce (paper §5, Commit Phase), so votes
    cannot be replayed across deals.
    """
    return hash_concat(b"repro/vote", deal_id, voter.value, decision.encode("utf-8"))


@dataclass(frozen=True)
class PathSignature:
    """A vote plus the chain of signatures it accumulated while forwarded.

    ``signers[0]`` is the original voter; ``signers[i]`` for ``i > 0``
    forwarded the vote (outermost forwarder last).  ``signatures[i]`` is
    ``signers[i]``'s signature over the layer below.
    """

    voter: Address
    signers: tuple[Address, ...]
    signatures: tuple[Signature, ...]

    def __post_init__(self) -> None:
        if not self.signers:
            raise CryptoError("path signature requires at least one signer")
        if len(self.signers) != len(self.signatures):
            raise CryptoError("signer/signature count mismatch")
        if self.signers[0] != self.voter:
            raise CryptoError("first signer must be the voter")

    @property
    def path_length(self) -> int:
        """``|p|``: the number of signatures on the path."""
        return len(self.signers)

    def has_duplicate_signers(self) -> bool:
        """Return True if any party appears twice on the path."""
        return len(set(self.signers)) != len(self.signers)

    def links(self, deal_id: bytes, decision: str = "commit") -> tuple:
        """``(signer, message, signature)`` per hop, voter first: the voter
        signs the vote message, each forwarder the signature below it."""
        messages = [vote_message(deal_id, self.voter, decision)]
        messages += [signature.to_bytes() for signature in self.signatures[:-1]]
        return tuple(zip(self.signers, messages, self.signatures))

    def verify(self, wallet: Wallet, deal_id: bytes, decision: str = "commit") -> bool:
        """Replay the signature chain against the public directory.

        This performs ``|p|`` signature verifications — the quantity the
        paper's gas analysis (§7.1) counts for the timelock commit phase.
        """
        return all(wallet.verify(*link) for link in self.links(deal_id, decision))


def sign_vote(
    keypair: KeyPair, deal_id: bytes, decision: str = "commit"
) -> PathSignature:
    """Create a direct (path length 1) vote signed by ``keypair``."""
    message = vote_message(deal_id, keypair.address, decision)
    return PathSignature(
        voter=keypair.address,
        signers=(keypair.address,),
        signatures=(keypair.sign(message),),
    )


def extend_path_signature(path: PathSignature, forwarder: KeyPair) -> PathSignature:
    """Countersign ``path`` as ``forwarder``, adding one hop.

    The forwarder signs the outermost signature of the existing path,
    committing to everything beneath it.
    """
    outer = path.signatures[-1]
    return PathSignature(
        voter=path.voter,
        signers=path.signers + (forwarder.address,),
        signatures=path.signatures + (forwarder.sign(outer.to_bytes()),),
    )
