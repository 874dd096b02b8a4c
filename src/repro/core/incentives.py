"""Incentive deposits (paper §9, "Discussion").

"Deals can also be structured to provide incentives for good
behavior.  For example, to discourage maliciously joining then
aborting deals, a party might escrow a small deposit that is lost if
that party is the first to cause the deal to fail."

:class:`DepositManager` realizes that sketch for the timelock
protocol, where the contract itself can identify the culprits: a
party "causes the deal to fail" exactly when its commit vote is
missing at the terminal timeout.  Every party escrows the same
deposit; votes are registered with the usual path-signature rules;

* if all votes arrive, every deposit is returned in full;
* at timeout, voters recover their deposits **plus** an equal share
  of the non-voters' slashed deposits; non-voters lose theirs;
* if nobody voted (the deal never got off the ground), everyone is
  refunded — there is no wronged party to compensate.

The paper notes that "designing and implementing such incentives is
an area of ongoing research"; this module reproduces the mechanism
the paper proposes and the E13 benchmark measures the payoff shift it
induces.

:func:`deal_fee_budget` extends the same cost model into block-space
*fee bidding* (the market's congestion axis): just as a rational party
sizes its good-behaviour deposit against the value the deal puts at
risk, it sizes its willingness to pay for timely sealing against that
value spread over the block slots the deal consumes.  The market
workloads derive every honest fee bid from it, so the E19 fee sweeps
price deals the way §9 says parties reason.
"""

from __future__ import annotations

from repro.chain.contracts import CallContext, Contract
from repro.crypto.keys import Address
from repro.crypto.pathsig import PathSignature


def deal_fee_budget(steps: int, value_at_risk: int, urgency: float = 1.0) -> int:
    """A rational party's fee bid for one deal's block space (§9 model).

    ``value_at_risk`` is the total escrowed value the deal ties up
    (the quantity §9's deposit sketch protects); ``steps`` is how many
    block slots the deal's transfer plan consumes; ``urgency`` scales
    the bid the way a deadline would (an impatient party bids a larger
    slice of the value at risk).  The bid is per sealed step, at least
    1 fee unit — a funded deal never bids itself below the base-fee
    floor — and purely deterministic: integer arithmetic on the spec
    plus one float scale, no randomness.
    """
    if steps < 1 or value_at_risk < 0:
        raise ValueError("fee budget needs steps >= 1, value_at_risk >= 0")
    if urgency < 0:
        raise ValueError("urgency must be non-negative")
    return max(1, int(urgency * value_at_risk / (20 * steps)))


class DepositManager(Contract):
    """Per-deal good-behaviour deposits with slashing."""

    EXPORTS = ("deposit", "commit", "settle")

    def __init__(
        self,
        name: str,
        deal_id: bytes,
        plist: tuple[Address, ...],
        token: str,
        amount: int,
        t0: float,
        delta: float,
    ):
        super().__init__(name)
        self.deal_id = deal_id
        self.plist = tuple(plist)
        self.token = token
        self.amount = amount
        self.t0 = t0
        self.delta = delta
        self.deposits = self.storage("deposits")
        self.voted = self.storage("voted")
        self.meta = self.storage("meta")
        self.meta["settled"] = False

    # ------------------------------------------------------------------
    # Escrow phase: every party posts the same deposit
    # ------------------------------------------------------------------
    def deposit(self, ctx: CallContext) -> bool:
        """Escrow the caller's good-behaviour deposit."""
        ctx.require(ctx.sender in self.plist, "sender not in plist")
        ctx.require(not self.deposits.get(ctx.sender, False), "already deposited")
        ctx.call(
            self,
            self.token,
            "transfer_from",
            owner=ctx.sender,
            to=self.address,
            amount=self.amount,
        )
        self.deposits[ctx.sender] = True
        ctx.emit(self, "DepositPosted", deal_id=self.deal_id, party=ctx.sender)
        return True

    # ------------------------------------------------------------------
    # Commit phase: same path-signature voting as the escrow contracts
    # ------------------------------------------------------------------
    def commit(self, ctx: CallContext, path: PathSignature) -> bool:
        """Register a (possibly forwarded) commit vote."""
        voter = path.voter
        ctx.require(
            ctx.now < self.t0 + path.path_length * self.delta,
            "vote arrived after its path deadline",
        )
        ctx.require(voter in self.plist, "voter not in plist")
        ctx.require(not self.voted.get(voter, False), "duplicate vote")
        ctx.require(not path.has_duplicate_signers(), "duplicate signers on path")
        for signer in path.signers:
            ctx.require(signer in self.plist, "path signer not in plist")
        for signer, message, signature in path.links(self.deal_id):
            ctx.require(
                ctx.verify_signature(signer, message, signature),
                "invalid signature on path",
            )
        self.voted[voter] = True
        ctx.emit(self, "VoteAccepted", deal_id=self.deal_id, voter=voter, path=path)
        if all(self.voted.get(party, False) for party in self.plist):
            self._settle(ctx)
        return True

    # ------------------------------------------------------------------
    # Settlement: full refunds on success, slashing at timeout
    # ------------------------------------------------------------------
    def settle(self, ctx: CallContext) -> bool:
        """Distribute deposits after the terminal timeout."""
        ctx.require(
            ctx.now >= self.t0 + len(self.plist) * self.delta,
            "terminal timeout not reached",
        )
        ctx.require(not self.meta["settled"], "already settled")
        self._settle(ctx)
        return True

    def _settle(self, ctx: CallContext) -> None:
        ctx.require(not self.meta["settled"], "already settled")
        depositors = [p for p in self.plist if self.deposits.get(p, False)]
        voters = [p for p in depositors if self.voted.get(p, False)]
        slashed = [p for p in depositors if not self.voted.get(p, False)]
        if not voters or not slashed:
            # Unanimous success, or unanimous failure: full refunds.
            for party in depositors:
                ctx.call(self, self.token, "transfer", to=party, amount=self.amount)
        else:
            pot = self.amount * len(slashed)
            share, remainder = divmod(pot, len(voters))
            for index, party in enumerate(voters):
                bonus = share + (1 if index < remainder else 0)
                ctx.call(
                    self, self.token, "transfer", to=party, amount=self.amount + bonus
                )
        self.meta["settled"] = True
        ctx.emit(
            self,
            "DepositsSettled",
            deal_id=self.deal_id,
            slashed=tuple(slashed),
            rewarded=tuple(voters),
        )

    # ------------------------------------------------------------------
    # Off-chain inspection
    # ------------------------------------------------------------------
    def peek_settled(self) -> bool:
        """Whether deposits have been distributed (unmetered)."""
        return bool(self.meta.peek("settled"))

    def peek_voted(self) -> set[Address]:
        """Which parties' votes were accepted (unmetered)."""
        return {party for party in self.plist if self.voted.peek(party, False)}
