"""Protocol configuration shared by parties and the executor."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.consensus.bft import ProofKind
from repro.errors import ConfigurationError


class ProtocolKind(Enum):
    """Which commit protocol a deal execution uses."""

    TIMELOCK = "timelock"
    CBC = "cbc"
    CBC_POW = "cbc-pow"


@dataclass(frozen=True)
class ProtocolConfig:
    """Timing and behaviour knobs for one deal execution.

    ``delta`` is the protocol's Δ: the assumed bound on making a chain
    state change observable.  ``t0`` is the commit-phase start used by
    timelock deadline arithmetic.  ``patience`` is how long a CBC party
    waits before voting abort (weak liveness).  ``altruistic_votes``
    switches the Figure 7 ablation: parties send commit votes to every
    escrow contract directly (commit latency Δ) instead of only their
    incoming contracts (latency O(n)Δ).
    """

    kind: ProtocolKind = ProtocolKind.TIMELOCK
    delta: float = 10.0
    t0: float = 100.0
    patience: float = 500.0
    altruistic_votes: bool = False
    proof_kind: ProofKind = ProofKind.STATUS_CERTIFICATE
    pow_confirmations: int = 3
    # §9 ablation: timelock contracts batch-verify vote paths.
    batch_vote_verification: bool = False

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if self.t0 < 0:
            raise ConfigurationError("t0 must be non-negative")
        if self.patience <= 0:
            raise ConfigurationError("patience must be positive")

    @property
    def effective_rescind_wait(self) -> float:
        """How long a commit vote must stand before an abort rescind: Δ (§6)."""
        return self.delta
