"""Deviating parties and environment-level attacks.

The paper's model places **no bound** on how many parties deviate:
safety (Property 1) must hold for every compliant party regardless.
This package provides the deviations the paper names, plus a few the
protocols must obviously survive:

* :mod:`repro.adversary.strategies` — party-level deviations (refuse
  to escrow / transfer / vote / forward, crash, vote late, rescind
  immediately, attempt double-spends), and the gauntlet's one case
  grid (:func:`~repro.adversary.strategies.gauntlet_cases`) that E7
  and ``repro gauntlet`` both run;
* :mod:`repro.adversary.mining` — the §6.2 private-mining fake
  proof-of-abort attack against a proof-of-work CBC;
* :mod:`repro.adversary.dos` — the §5.3 offline-window scenario where
  a timelock participant loses assets by being driven offline;
* :mod:`repro.adversary.watchtower` — the Lightning-style mitigation
  the paper points to.

A strategy is cast by label: ``run_deal(..., strategies={label: cls})``
(:mod:`repro.analysis.sweep`) builds the parties, every unlisted label
playing :class:`~repro.core.parties.CompliantParty`, and ``run_case``
judges exactly the parties whose class is ``CompliantParty``.
"""

from repro.adversary.strategies import (
    ALL_STRATEGIES,
    CrashAfterEscrowParty,
    DoubleSpendAttemptParty,
    ImmediateRescinderParty,
    LateVoterParty,
    NoForwardParty,
    NoTransferParty,
    NoVoteParty,
    ShortChangeParty,
    UnsatisfiedParty,
    WalkAwayParty,
)
from repro.adversary.mining import PrivateMiningAttack, attack_success_rate
from repro.adversary.dos import offline_window_scenario
from repro.adversary.watchtower import Watchtower

__all__ = [
    "ALL_STRATEGIES",
    "CrashAfterEscrowParty",
    "DoubleSpendAttemptParty",
    "ImmediateRescinderParty",
    "LateVoterParty",
    "NoForwardParty",
    "NoTransferParty",
    "NoVoteParty",
    "PrivateMiningAttack",
    "ShortChangeParty",
    "UnsatisfiedParty",
    "WalkAwayParty",
    "Watchtower",
    "attack_success_rate",
    "offline_window_scenario",
]
