"""The CBC commit protocol's escrow contract (paper §6, Figure 6).

Unlike the timelock contract, this contract records no votes: parties
vote to commit or abort *on the certified blockchain*, and whoever
wants the escrow resolved presents a **proof** extracted from the CBC:

* ``commit(proof)`` — release the escrow if the proof shows every
  party voted commit before any abort (decisive commit);
* ``abort(proof)`` — refund if the proof shows a decisive abort.

The contract is told the CBC's *initial* validator public keys when it
is created (the paper passes them "in place of the ellipses" in the
escrow call); proofs carry handover certificates if the validator set
has since been reconfigured.

A PoW-flavoured sibling accepts confirmation-depth proofs instead —
it exists to reproduce the §6.2 fake-proof attack, not to be safe.
Both share one ``commit``/``abort`` body (:class:`ProofEscrow`) and
differ only in the proof verifier it calls.
"""

from __future__ import annotations

from repro.chain.contracts import CallContext
from repro.consensus.bft import DealStatus
from repro.core.deal import Asset
from repro.core.escrow import EscrowManager, EscrowState
from repro.core.proofs import (
    BlockProof,
    PowVoteProof,
    StatusProof,
    status_proof_claims,
    verify_block_proof,
    verify_pow_proof,
    verify_status_proof,
)
from repro.crypto.keys import Address
from repro.crypto.schnorr import PublicKey


class ProofEscrow(EscrowManager):
    """An escrow that a presented proof of commit or abort resolves.

    Subclasses say which proofs they accept through ``_verify``, which
    returns the deal status a proof shows (or ``None``).
    """

    EXPORTS = EscrowManager.EXPORTS + ("commit", "abort")

    def _verify(self, ctx: CallContext, proof) -> DealStatus | None:
        raise NotImplementedError

    def commit(self, ctx: CallContext, proof) -> bool:
        """Release the escrow on a valid proof of commit."""
        ctx.require(self.meta["state"] is EscrowState.ACTIVE, "already terminated")
        status = self._verify(ctx, proof)
        ctx.require(status is DealStatus.COMMITTED, "invalid proof of commit")
        self._release(ctx)
        return True

    def abort(self, ctx: CallContext, proof) -> bool:
        """Refund the escrow on a valid proof of abort."""
        ctx.require(self.meta["state"] is EscrowState.ACTIVE, "already terminated")
        status = self._verify(ctx, proof)
        ctx.require(status is DealStatus.ABORTED, "invalid proof of abort")
        self._refund(ctx)
        return True


class CbcEscrow(ProofEscrow):
    """Figure 6's ``CBCManager``: escrow resolved by CBC proofs."""

    def __init__(
        self,
        name: str,
        deal_id: bytes,
        plist: tuple[Address, ...],
        asset: Asset,
        start_hash: bytes,
        validator_keys: tuple[PublicKey, ...],
    ):
        super().__init__(name, deal_id, plist, asset)
        self.start_hash = start_hash
        self.validator_keys = tuple(validator_keys)

    def _verify(self, ctx: CallContext, proof) -> DealStatus | None:
        if isinstance(proof, StatusProof):
            return verify_status_proof(
                ctx, proof, self.validator_keys, self.deal_id, self.start_hash
            )
        if isinstance(proof, BlockProof):
            return verify_block_proof(
                ctx, proof, self.validator_keys, self.deal_id, self.start_hash, self.plist
            )
        return None

    def signature_claims(self, method: str, args: dict) -> list:
        """A status proof claims its certificate's and handovers' quorums."""
        proof = args.get("proof")
        if (
            method not in ("commit", "abort")
            or not isinstance(proof, StatusProof)
            or self.peek_state() is not EscrowState.ACTIVE
        ):
            return []
        return status_proof_claims(proof, self.deal_id, self.start_hash)


class PowCbcEscrow(ProofEscrow):
    """A CBC escrow trusting a proof-of-work CBC (deliberately unsafe).

    Accepts any internally consistent block suffix with at least
    ``min_confirmations`` blocks after the decisive vote — a passive
    contract cannot tell a private fork from the canonical chain,
    which is the vulnerability E8 measures.
    """

    def __init__(
        self,
        name: str,
        deal_id: bytes,
        plist: tuple[Address, ...],
        asset: Asset,
        min_confirmations: int,
    ):
        super().__init__(name, deal_id, plist, asset)
        self.min_confirmations = min_confirmations

    def _verify(self, ctx: CallContext, proof: PowVoteProof) -> DealStatus | None:
        return verify_pow_proof(
            ctx, proof, self.deal_id, self.plist, self.min_confirmations
        )
