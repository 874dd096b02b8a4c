"""Gas metering with the paper's §7.1 cost constants.

The paper's cost analysis reduces every contract to two dominant
operations: *writes to long-lived storage* (5000 gas) and *signature
verifications* (3000 gas), with everything else in the noise.  The
meter charges those, plus small charges for reads and compute so that
totals are plausible, and keeps **per-category counters** so that the
Figure 4 benchmarks can report exact write and verification counts —
the quantities whose asymptotics the paper states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OutOfGasError


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas prices (defaults follow the paper's §7.1)."""

    sstore: int = 5000
    sload: int = 200
    sig_verify: int = 3000
    # Marginal cost of each extra signature in a *batched* check (the
    # §9 "signature combining" ablation).  Batch verification needs
    # only one fixed-base exponentiation plus a multi-exponentiation
    # term per signature, so the marginal cost is a fraction of a
    # standalone verification.
    sig_verify_batch_extra: int = 800
    base_call: int = 700
    compute: int = 5
    log_event: int = 375

    @classmethod
    def paper(cls) -> "GasSchedule":
        """The schedule used throughout the reproduction."""
        return cls()


@dataclass
class GasMeter:
    """Accumulates gas during one transaction execution.

    Counters are categorical (writes, reads, verifications, ...) so
    that analyses can recover operation counts, not just totals.
    """

    schedule: GasSchedule = field(default_factory=GasSchedule.paper)
    limit: int | None = None
    consumed: int = 0
    sstore_count: int = 0
    sload_count: int = 0
    sig_verify_count: int = 0
    call_count: int = 0
    compute_count: int = 0
    event_count: int = 0

    def _charge(self, amount: int) -> None:
        self.consumed += amount
        if self.limit is not None and self.consumed > self.limit:
            raise OutOfGasError(
                f"gas limit {self.limit} exceeded (consumed {self.consumed})"
            )

    def charge_sstore(self, slots: int = 1) -> None:
        """Charge for ``slots`` writes to long-lived storage."""
        self.sstore_count += slots
        self._charge(self.schedule.sstore * slots)

    def charge_sload(self, slots: int = 1) -> None:
        """Charge for ``slots`` reads from long-lived storage."""
        self.sload_count += slots
        self._charge(self.schedule.sload * slots)

    def charge_sig_verify(self, count: int = 1) -> None:
        """Charge for ``count`` signature verifications."""
        self.sig_verify_count += count
        self._charge(self.schedule.sig_verify * count)

    def charge_sig_verify_batch(self, count: int) -> None:
        """Charge for a batched check of ``count`` signatures.

        The first signature pays the full price; each additional one
        pays only the batch marginal cost.
        """
        if count <= 0:
            return
        self.sig_verify_count += count
        self._charge(
            self.schedule.sig_verify
            + self.schedule.sig_verify_batch_extra * (count - 1)
        )

    def charge_call(self) -> None:
        """Charge the base cost of entering a contract call."""
        self.call_count += 1
        self._charge(self.schedule.base_call)

    def charge_compute(self, units: int = 1) -> None:
        """Charge for ``units`` of arithmetic/control-flow work."""
        self.compute_count += units
        self._charge(self.schedule.compute * units)

    def charge_event(self, count: int = 1) -> None:
        """Charge for emitting ``count`` log events."""
        self.event_count += count
        self._charge(self.schedule.log_event * count)

    def snapshot(self) -> "GasBreakdown":
        """Freeze the current counters into an immutable breakdown."""
        return GasBreakdown(
            total=self.consumed,
            sstore=self.sstore_count,
            sload=self.sload_count,
            sig_verify=self.sig_verify_count,
            calls=self.call_count,
            compute=self.compute_count,
            events=self.event_count,
        )


@dataclass(frozen=True, slots=True)
class GasBreakdown:
    """Immutable gas counters attached to a receipt."""

    total: int = 0
    sstore: int = 0
    sload: int = 0
    sig_verify: int = 0
    calls: int = 0
    compute: int = 0
    events: int = 0

    def __add__(self, other: "GasBreakdown") -> "GasBreakdown":
        return GasBreakdown(
            total=self.total + other.total,
            sstore=self.sstore + other.sstore,
            sload=self.sload + other.sload,
            sig_verify=self.sig_verify + other.sig_verify,
            calls=self.calls + other.calls,
            compute=self.compute + other.compute,
            events=self.events + other.events,
        )

    @classmethod
    def zero(cls) -> "GasBreakdown":
        """The additive identity."""
        return cls()
