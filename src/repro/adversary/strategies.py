"""Party-level deviation strategies.

Each strategy subclasses :class:`~repro.core.parties.CompliantParty`
and overrides the smallest possible hook, so the deviation is precise
and the rest of the behaviour stays protocol-conformant.  The safety
gauntlet (experiment E7 and ``repro gauntlet``) crosses these with
random deals and both protocols over :func:`gauntlet_cases`, and
asserts Property 1 for the remaining compliant parties.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.sweep import run_case
from repro.core.config import ProtocolKind
from repro.core.deal import Asset, TransferStep
from repro.core.executor import DealResult
from repro.core.outcomes import OutcomeReport
from repro.core.parties import CompliantParty
from repro.crypto.keys import Address
from repro.workloads.generators import random_well_formed_deal


class WalkAwayParty(CompliantParty):
    """Never escrows anything: joins the deal, then disappears.

    The deal cannot complete; compliant parties must get refunds.
    """

    def decide_deposit(self, asset: Asset) -> bool:
        return False


class NoTransferParty(CompliantParty):
    """Escrows, but never performs its tentative transfers.

    Validation can never succeed for anyone, so the deal must abort
    (timeout / abort vote) and every escrow must refund.
    """

    def decide_transfer(self, step: TransferStep) -> bool:
        return False


class NoVoteParty(CompliantParty):
    """Escrows and transfers, but never votes to commit.

    The classic 'griefing' deviation: the deal is fully set up and
    then starved of one vote.  Timelock contracts must time out; CBC
    parties must eventually vote abort.
    """

    def decide_vote(self) -> bool:
        return False


class NoForwardParty(CompliantParty):
    """Votes, but never forwards other parties' votes (timelock).

    Tests that forwarding by *other* motivated parties (or direct
    voting) still completes deals, and that safety holds when it
    cannot.
    """

    def decide_forward(self, voter: Address, to_asset_id: str) -> bool:
        return False


class UnsatisfiedParty(CompliantParty):
    """Always fails validation (claims its incoming assets are wrong).

    A CBC party votes abort; a timelock party simply never votes.
    Either way the deal must abort with refunds.
    """

    def decide_validate(self) -> bool:
        return False


class CrashAfterEscrowParty(CompliantParty):
    """Goes silent a fixed delay after the run starts.

    ``crash_delay`` defaults to just after the escrow phase, the most
    damaging moment: its assets are locked but it will neither
    transfer nor vote.
    """

    def __init__(self, keypair, label, crash_delay: float = 5.0):
        super().__init__(keypair, label)
        self.crash_delay = crash_delay
        self._crashed = False

    def begin(self) -> None:
        super().begin()
        self.schedule(self.crash_delay, self._crash, "crash")

    def _crash(self) -> None:
        self._crashed = True

    def is_active(self) -> bool:
        return not self._crashed


class LateVoterParty(CompliantParty):
    """Delays its commit vote beyond every path deadline (timelock).

    The vote arrives after ``t0 + N·Δ`` so contracts must reject it
    and refund; nobody may lose assets to a late vote.
    """

    def _cast_votes(self) -> None:
        deadline = self.config.t0 + (len(self.spec.parties) + 1) * self.config.delta
        delay = max(0.0, deadline - self.env.simulator.now)
        self.schedule(delay, super()._cast_votes, "late-vote")


class ImmediateRescinderParty(CompliantParty):
    """CBC deviation: votes commit and then abort immediately.

    A compliant party must wait at least Δ before rescinding (§6);
    this one does not.  The deal may commit or abort depending on CBC
    ordering, but it must do so *uniformly* and safely.
    """

    def _vote_commit_cbc(self) -> None:
        super()._vote_commit_cbc()
        self._vote_abort_cbc()


class ShortChangeParty(CompliantParty):
    """Performs its transfers, but pays less than the deal specifies.

    Every fungible step it gives is cut in half (rounded down, at
    least 1 short).  Counterparties' validation must fail, so the deal
    aborts and refunds.
    """

    def _submit_enabled_steps(self) -> None:
        # Re-implement the loop with doctored amounts.
        for index, step in self.my_steps():
            if index in self._submitted_steps or not self._step_enabled(step):
                continue
            self._submitted_steps.add(index)
            if self.spec.asset(step.asset_id).fungible:
                doctored = max(0, min(step.amount - 1, step.amount // 2))
                if doctored:
                    self._send_transfer(step, doctored, ())
            else:
                # Ship only the first token of a multi-token step.
                self._send_transfer(step, 0, step.token_ids[:1])


class DoubleSpendAttemptParty(CompliantParty):
    """Tries to spend the same tentative balance twice.

    After each legitimate transfer it submits a duplicate; the escrow
    contract must reject the second (its C-map balance is spent).
    Escrow is the concurrency control of adversarial commerce (§10).
    """

    def _submit_enabled_steps(self) -> None:
        before = set(self._submitted_steps)
        super()._submit_enabled_steps()
        for index in self._submitted_steps - before:
            step = self.spec.steps[index]
            self._send_transfer(step, step.amount, step.token_ids)


#: The strategy grid used by the E7 safety gauntlet.  Each entry is a
#: (name, factory) pair; factories take (keypair, label).
ALL_STRATEGIES: list[tuple[str, type[CompliantParty]]] = [
    ("compliant", CompliantParty),
    ("walk-away", WalkAwayParty),
    ("no-transfer", NoTransferParty),
    ("no-vote", NoVoteParty),
    ("no-forward", NoForwardParty),
    ("unsatisfied", UnsatisfiedParty),
    ("crash-after-escrow", CrashAfterEscrowParty),
    ("late-voter", LateVoterParty),
    ("immediate-rescinder", ImmediateRescinderParty),
    ("short-change", ShortChangeParty),
    ("double-spend", DoubleSpendAttemptParty),
]


class GauntletCase(NamedTuple):
    """One deviator playing one strategy in one random 3-party deal."""

    kind: ProtocolKind
    deal_seed: int
    deviator_index: int
    strategy: str

    def run(self) -> tuple[OutcomeReport, DealResult]:
        """:func:`run_case` on this case's deal, seeded by its deal seed."""
        spec, keys = random_well_formed_deal(seed=self.deal_seed, n=3, extra_assets=1)
        deviator = sorted(keys)[self.deviator_index]
        strategies = {deviator: dict(ALL_STRATEGIES)[self.strategy]}
        return run_case(spec, keys, self.kind, strategies, seed=self.deal_seed)


def gauntlet_cases(deal_seeds) -> list[GauntletCase]:
    """The gauntlet grid: protocol × deal seed × deviator × strategy.

    The deviator is an index over the deal's sorted labels; every
    strategy but ``compliant`` is tried, in :data:`ALL_STRATEGIES`
    order, under the timelock and the BFT CBC protocols.
    """
    return [
        GauntletCase(kind, deal_seed, deviator_index, name)
        for kind in (ProtocolKind.TIMELOCK, ProtocolKind.CBC)
        for deal_seed in deal_seeds
        for deviator_index in range(3)
        for name, strategy in ALL_STRATEGIES
        if strategy is not CompliantParty
    ]
