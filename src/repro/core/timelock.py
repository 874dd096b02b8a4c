"""The timelock commit protocol's escrow contract (paper §5, Figure 5).

Termination rules:

* ``commit(voter, path)`` — accept a commit vote carried by a path
  signature ``p`` iff it arrives before ``t0 + |p|·Δ`` (chain time),
  the voter is a plist member who has not voted here yet, the path has
  no duplicate signers, and every signature on the path verifies
  (``|p|`` signature verifications — the O(n²) per-contract worst case
  of §7.1).  When the contract has accepted a vote from *every* party,
  it releases the escrow in the same transaction.
* ``refund()`` — anyone may trigger the refund after the terminal
  timeout ``t0 + N·Δ`` if some vote is still missing; by then no
  missing vote can ever be accepted (a path signature has at most N
  distinct signers).

There is no abort vote: timeouts play that role (§5).
"""

from __future__ import annotations

from repro.chain.contracts import CallContext
from repro.core.deal import Asset
from repro.core.escrow import EscrowManager, EscrowState
from repro.crypto.keys import Address
from repro.crypto.pathsig import PathSignature


class TimelockEscrow(EscrowManager):
    """Figure 5's ``TimelockManager``: escrow + path-signature voting."""

    EXPORTS = EscrowManager.EXPORTS + ("commit", "refund")

    def __init__(
        self,
        name: str,
        deal_id: bytes,
        plist: tuple[Address, ...],
        asset: Asset,
        t0: float,
        delta: float,
        batch_votes: bool = False,
    ):
        super().__init__(name, deal_id, plist, asset)
        self.t0 = t0
        self.delta = delta
        # §9 ablation: verify a vote's whole signature path in one
        # batched check instead of per-signature.
        self.batch_votes = batch_votes
        self.voted = self.storage("voted")

    # ------------------------------------------------------------------
    # Figure 5: commit
    # ------------------------------------------------------------------
    def commit(self, ctx: CallContext, path: PathSignature) -> bool:
        """Register a (possibly forwarded) commit vote."""
        voter = path.voter
        # Deadline depends on the forwarding path length (§5).
        ctx.require(
            ctx.now < self.t0 + path.path_length * self.delta,
            "vote arrived after its path deadline",
        )
        ctx.require(voter in self.plist, "voter not in plist")
        ctx.require(not self.voted.get(voter, False), "duplicate vote")
        ctx.require(not path.has_duplicate_signers(), "duplicate signers on path")
        for signer in path.signers:
            ctx.require(signer in self.plist, "path signer not in plist")
        # Replay the signature chain: |p| verifications at 3000 gas
        # each, or one batched check (§9 ablation) when enabled — a *gas*
        # ablation, unrelated to the block's wall-clock prefetch.
        links = path.links(self.deal_id)
        if self.batch_votes:
            ctx.require(ctx.verify_signature_batch(links), "invalid signature on path")
        else:
            for signer, message, signature in links:
                ctx.require(
                    ctx.verify_signature(signer, message, signature),
                    "invalid signature on path",
                )
        self.voted[voter] = True
        ctx.emit(self, "VoteAccepted", deal_id=self.deal_id, voter=voter, path=path)
        if all(self.voted.get(party, False) for party in self.plist):
            self._release(ctx)
        return True

    def signature_claims(self, method: str, args: dict) -> list:
        """A commit vote claims its path's links (unknown signers skipped),
        unless ``commit`` would refuse it before the first verification."""
        path = args.get("path")
        if (
            method != "commit"
            or not isinstance(path, PathSignature)
            or self.voted.get(path.voter, False)
            or not set(path.signers) <= set(self.plist)
        ):
            return []
        wallet = self.chain.wallet
        return [
            (wallet.public_key(signer), message, signature)
            for signer, message, signature in path.links(self.deal_id)
            if wallet.knows(signer)
        ]

    # ------------------------------------------------------------------
    # Timeout refund
    # ------------------------------------------------------------------
    def refund(self, ctx: CallContext) -> bool:
        """Refund escrowed assets after the terminal timeout."""
        ctx.require(
            ctx.now >= self.t0 + len(self.plist) * self.delta,
            "terminal timeout not reached",
        )
        ctx.require(self.meta["state"] is EscrowState.ACTIVE, "already terminated")
        self._refund(ctx)
        return True

    # ------------------------------------------------------------------
    # Off-chain inspection
    # ------------------------------------------------------------------
    def peek_voted(self) -> set[Address]:
        """Which parties' votes this contract has accepted (unmetered)."""
        return {party for party in self.plist if self.voted.peek(party, False)}

    def terminal_deadline(self) -> float:
        """``t0 + N·Δ``: when refunds become possible."""
        return self.t0 + len(self.plist) * self.delta
