"""The §6.2 private-mining attack on a proof-of-work CBC.

Scenario (paper, verbatim in spirit): as soon as the deal starts,
Alice privately mines a block containing her *abort* vote while
publicly voting *commit*.  If she can extend her private fork to the
required confirmation depth before the deal's window closes, she
presents:

* the legitimate public proof of commit to the contracts holding her
  *incoming* assets (she gets paid), and
* the fake private proof of abort to the contracts holding her
  *outgoing* assets (she gets refunded too).

The attack succeeds exactly when the private fork reaches
``confirmations + 1`` blocks before the honest chain finishes the
deal's window; both "proofs" verify, because a passive contract
cannot judge canonicality.  A BFT CBC is immune: certificates are
final and an attacker without a validator quorum cannot forge one.

:func:`attack_success_rate` estimates the success probability for a
grid of attacker hash powers and confirmation depths — benchmark E8's
series.  The analytic comparison curve is the classic race bound
``(alpha / (1 - alpha)) ** (c + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.bft import DealStatus
from repro.consensus.pow import MiningRace, PowChain
from repro.consensus.pow_log import PowCertifiedLog
from repro.core.escrow import EscrowState
from repro.core.proofs import PowVoteProof, encode_pow_vote
from repro.crypto.keys import Address
from repro.sim.rng import DeterministicRng


@dataclass
class AttackOutcome:
    """The result of one attack attempt."""

    succeeded: bool
    fake_proof: PowVoteProof | None
    honest_proof: PowVoteProof | None
    attacker_blocks: int
    honest_blocks: int


@dataclass
class PrivateMiningAttack:
    """One concrete attack run against a PoW CBC.

    ``confirmations`` is the proof depth the escrow contracts demand.
    The race is symmetric in that depth: the attacker needs her abort
    block plus ``confirmations`` more on the private fork, while the
    victims need ``confirmations`` blocks past the all-commit block —
    at which point they present the honest commit proof and settle the
    contested escrows, closing the attack window.  ``grace_blocks``
    models the victims' reaction delay in blocks (they do not claim in
    zero time).
    """

    deal_id: bytes
    plist: tuple[Address, ...]
    attacker: Address
    alpha: float
    confirmations: int
    grace_blocks: int = 1
    seed: int = 0

    def run(self) -> AttackOutcome:
        """Mine out the race and build both proofs if the attack wins."""
        rng = DeterministicRng(f"mining/{self.seed}")
        race = MiningRace(alpha=self.alpha, rng=rng)
        public = PowChain("public")
        # The public chain records everyone's commit votes.
        commit_entries = tuple(
            encode_pow_vote(self.deal_id, "commit", party.value) for party in self.plist
        )
        public.mine(commit_entries, miner="honest")
        # The attacker forks *before* the commit block and buries an
        # abort vote there.
        private = PowChain.forked_from(public, height=0)
        abort_entry = encode_pow_vote(self.deal_id, "abort", self.attacker.value)
        private.mine((abort_entry,), miner="attacker")

        honest_blocks = 0
        attacker_blocks = 1  # the abort block itself was attacker work
        attacker_target = self.confirmations + 1
        honest_target = self.confirmations + self.grace_blocks
        # Race: the attacker needs her abort block + c confirmations
        # before the honest chain finishes c confirmations (plus the
        # victims' reaction grace) and the contested escrows settle.
        while honest_blocks < honest_target and attacker_blocks < attacker_target:
            if race.next_winner() == "attacker":
                private.mine((), miner="attacker")
                attacker_blocks += 1
            else:
                public.mine((), miner="honest")
                honest_blocks += 1

        commit_entry = commit_entries[0]
        honest_proof = None
        raw_honest = public.proof_for(commit_entry)
        if raw_honest is not None:
            honest_proof = PowVoteProof(proof=raw_honest, claimed_status=DealStatus.COMMITTED)
        succeeded = attacker_blocks >= attacker_target
        fake_proof = None
        if succeeded:
            raw_fake = private.proof_for(abort_entry)
            fake_proof = PowVoteProof(proof=raw_fake, claimed_status=DealStatus.ABORTED)
        return AttackOutcome(
            succeeded=succeeded,
            fake_proof=fake_proof,
            honest_proof=honest_proof,
            attacker_blocks=attacker_blocks,
            honest_blocks=honest_blocks,
        )


def attack_success_rate(
    deal_id: bytes,
    plist: tuple[Address, ...],
    attacker: Address,
    alpha: float,
    confirmations: int,
    grace_blocks: int = 1,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Empirical success probability over ``trials`` seeded attempts."""
    wins = 0
    for trial in range(trials):
        attack = PrivateMiningAttack(
            deal_id=deal_id,
            plist=plist,
            attacker=attacker,
            alpha=alpha,
            confirmations=confirmations,
            grace_blocks=grace_blocks,
            seed=seed * 100_003 + trial,
        )
        if attack.run().succeeded:
            wins += 1
    return wins / trials


class PowFakeProofParty:
    """A deviating party for end-to-end CBC_POW runs (§6.2).

    Behaves compliantly until the deal commits on the PoW log, then
    plays Alice's double-game: claims its *incoming* assets with the
    honest commit proof while presenting a privately mined fake abort
    proof to the escrows holding its *outgoing* assets.  The private
    fork is assumed won (the race odds are what
    :func:`attack_success_rate` measures); this class shows the
    on-chain consequences when it is.

    Implemented as a mixin-style factory:
    ``PowFakeProofParty.wrap(CompliantParty)`` returns the subclass.
    Against a BFT log it has no fork to mine and behaves compliantly.
    """

    @staticmethod
    def wrap(base):
        class _FakeProofParty(base):
            def _try_settle_cbc(self):
                log = self.env.cbc
                if (
                    not isinstance(log, PowCertifiedLog)
                    or log.deal_status(self.spec.deal_id) is not DealStatus.COMMITTED
                ):
                    return super()._try_settle_cbc()
                if log.confirmations(self.spec.deal_id) < log.min_confirmations:
                    return
                # Claim incoming honestly.
                for asset_id in self.incoming_asset_ids():
                    self._settle_asset(asset_id, "commit")
                # Refund outgoing with a fake proof from a private fork.
                fake = self._fake_abort_proof()
                for asset in self.my_assets():
                    if asset.asset_id in self._settle_submitted:
                        continue
                    escrow = self.env.escrows[asset.asset_id]
                    if escrow.peek_state() is not EscrowState.ACTIVE:
                        continue
                    self._settle_submitted.add(asset.asset_id)
                    self.send_tx(
                        asset.chain_id,
                        self.spec.escrow_contract_name(asset.asset_id),
                        "abort",
                        phase="abort",
                        proof=fake,
                    )

            def _fake_abort_proof(self):
                log = self.env.cbc
                private = PowChain.forked_from(log.chain, height=0)
                abort_entry = encode_pow_vote(
                    self.spec.deal_id, "abort", self.address.value
                )
                private.mine((abort_entry,), miner="attacker")
                for _ in range(log.min_confirmations):
                    private.mine((), miner="attacker")
                raw = private.proof_for(abort_entry)
                return PowVoteProof(proof=raw, claimed_status=DealStatus.ABORTED)

        _FakeProofParty.__name__ = f"PowFakeProof{base.__name__}"
        return _FakeProofParty


def analytic_race_bound(alpha: float, confirmations: int) -> float:
    """The classic catch-up curve ``(alpha/(1-alpha))^(c+1)``.

    A qualitative reference (Nakamoto's double-spend analysis): the
    probability an ``alpha``-share attacker ever gets ``c+1`` blocks
    ahead of the honest chain.  Our finite-window race is not the same
    random variable, but both decay geometrically in ``c`` with a
    ratio that worsens as ``alpha`` grows — the shape E8 checks.
    """
    if alpha <= 0:
        return 0.0
    ratio = alpha / (1 - alpha)
    return min(1.0, ratio ** (confirmations + 1))
