"""Gas-cost accounting (paper §7.1, Figure 4).

The paper's Figure 4 states per-phase costs as operation counts:

=========  ==========  ==========  ==========  ===========================
Protocol   Escrow      Transfer    Validation  Commit or Abort
=========  ==========  ==========  ==========  ===========================
Timelock   O(m) writes O(t) writes none        O(m·n²) sig.ver + O(m) wr.
CBC        O(m) writes O(t) writes none        O(m·(2f+1)) sig.ver + O(m)
=========  ==========  ==========  ==========  ===========================

:func:`phase_operation_counts` extracts the measured counts from a
run; :class:`CostModel` computes the closed-form predictions so the
benchmarks can print measured-vs-model side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.gas import GasBreakdown
from repro.core.executor import DealResult


def phase_operation_counts(result: DealResult) -> dict[str, dict[str, int]]:
    """Measured per-phase operation counts of one run.

    Returns ``{phase: {"sstore": ..., "sig_verify": ..., "gas": ...}}``
    for successful transactions (the protocol's intrinsic cost).
    """
    counts: dict[str, dict[str, int]] = {}
    for phase, breakdown in result.gas_by_phase().items():
        counts[phase] = {
            "sstore": breakdown.sstore,
            "sig_verify": breakdown.sig_verify,
            "gas": breakdown.total,
        }
    return counts


def gas_by_contract(result: DealResult) -> dict[str, GasBreakdown]:
    """Aggregate successful gas per target contract."""
    per_contract: dict[str, GasBreakdown] = {}
    for receipt in result.receipts:
        if not receipt.ok:
            continue
        name = receipt.tx.contract
        per_contract[name] = per_contract.get(name, GasBreakdown.zero()) + receipt.gas
    return per_contract


def commit_signature_verifications(result: DealResult) -> int:
    """Signature verifications attributable to the commit phase.

    For the timelock protocol this includes votes and forwarded votes
    at escrow contracts; for the CBC protocol, proof checks.
    """
    total = 0
    for receipt in result.receipts:
        if receipt.ok and receipt.tx.phase in ("commit", "abort"):
            total += receipt.gas.sig_verify
    return total


@dataclass(frozen=True)
class CostModel:
    """Closed-form §7.1 predictions for a deal with n, m, t, f, k.

    The signature-verification counts are upper bounds (the worst
    case); the benchmarks check measured ≤ model and that the growth
    exponents match.
    """

    n: int
    m: int
    t: int
    f: int = 1
    reconfigurations: int = 0

    # -- writes ----------------------------------------------------------
    def escrow_writes(self) -> int:
        """Four writes per escrowed asset (§7.1's Figure 3 count)."""
        return 4 * self.m

    def transfer_writes(self) -> int:
        """Two writes per tentative transfer (debit + credit)."""
        return 2 * self.t

    # -- signature verifications ----------------------------------------
    def timelock_commit_sig_upper(self) -> int:
        """Worst case: each of m contracts verifies n votes with paths
        up to n signatures long — O(m·n²)."""
        return self.m * self.n * self.n

    def cbc_commit_sig(self) -> int:
        """CBC with status certificates: one quorum check per
        contract, times (k+1) after k reconfigurations."""
        return self.m * (self.reconfigurations + 1) * (2 * self.f + 1)

    def crossover_holds(self) -> bool:
        """§9: CBC costs more than timelock iff 2f+1 > n² (per asset,
        worst-case timelock)."""
        return (2 * self.f + 1) > self.n * self.n
