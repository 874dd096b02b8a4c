"""The hazard vocabulary of the message planes, and its one seeded roll.

A :class:`ChaosPolicy` is a bag of per-hazard rates (drop, duplicate,
delay, reorder), and :meth:`ChaosPolicy.roll` is the only place a
transmission's fate is drawn — whatever the payload: :class:`repro.sim.network.ChaosBus` calls it per transmission
on the ops bus, :class:`repro.sim.faults.MessageStorm` per message on
the replication delta network.  A :class:`ChaosPlan` groups one policy
per plane plus the seed and the two retransmission knobs.

Everything here is frozen data.  A plan with no active policy is
treated exactly like no plan at all — the market constructs its plain
:class:`~repro.sim.network.LocalBus` and stays byte-identical to a
chaos-free build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

__all__ = ["ChaosPolicy", "ChaosPlan", "Hazards"]


class Hazards(NamedTuple):
    """One transmission's fate, as drawn by :meth:`ChaosPolicy.roll`.

    ``delay``/``reorder`` are holds in ticks (``None``: did not fire);
    ``twin_gap`` is how far a duplicate's second copy trails the
    original.  ``drop`` wins over everything else.
    """

    drop: bool
    duplicate: bool
    delay: float | None
    reorder: float | None
    twin_gap: float


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-hazard rates for one message plane.

    Rates are probabilities per physical transmission.  ``delay_min``/
    ``delay_max`` bound the delay hazard's hold; ``reorder_max`` bounds
    the reordering hold (short, so reordered envelopes land behind
    nearby traffic rather than far in the future).
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_min: float = 0.1
    delay_max: float = 0.8
    reorder_rate: float = 0.0
    reorder_max: float = 0.3

    def roll(self, stream) -> Hazards:
        """Draw one transmission's hazards from a seeded ``stream``.

        Always seven draws in a fixed order, whichever hazards fire —
        so a plane's chaos schedule is a pure function of (seed,
        transmission index).
        """
        r_drop = stream.random()
        r_dup = stream.random()
        r_delay = stream.random()
        u_delay = stream.random()
        r_reorder = stream.random()
        u_reorder = stream.random()
        u_dup = stream.random()
        return Hazards(
            drop=r_drop < self.drop_rate,
            duplicate=r_dup < self.dup_rate,
            delay=(
                self.delay_min + u_delay * (self.delay_max - self.delay_min)
                if r_delay < self.delay_rate
                else None
            ),
            # A short hold re-enters the simulator behind other traffic
            # at nearby instants — the reordering hazard.
            reorder=(
                u_reorder * self.reorder_max
                if r_reorder < self.reorder_rate
                else None
            ),
            twin_gap=u_dup * self.reorder_max,
        )

    @property
    def active(self) -> bool:
        """Whether any hazard can ever fire under this policy."""
        return bool(
            self.drop_rate or self.dup_rate or self.delay_rate or self.reorder_rate
        )

    @classmethod
    def at(cls, intensity: float, **overrides) -> "ChaosPolicy":
        """All four hazards at probability ``intensity``."""
        policy = cls(
            drop_rate=intensity,
            dup_rate=intensity,
            delay_rate=intensity,
            reorder_rate=intensity,
        )
        return replace(policy, **overrides) if overrides else policy


@dataclass(frozen=True)
class ChaosPlan:
    """One chaos policy per message plane, plus delivery knobs.

    ``market`` drives the :class:`~repro.sim.network.ChaosBus` under
    the shard-runtime ops plane; ``replication`` is the policy of the
    :class:`~repro.sim.faults.MessageStorm` on the delta network and
    switches the replication layer to acknowledged (resent) shipping.
    ``ack_timeout``/``backoff_cap`` parameterize each plane's
    :class:`~repro.sim.network.Retransmitter`; the delta plane never
    times out faster than its network's round trip.
    """

    market: ChaosPolicy | None = None
    replication: ChaosPolicy | None = None
    seed: int = 0
    ack_timeout: float = 2.0
    backoff_cap: float = 16.0

    @property
    def market_active(self) -> bool:
        return self.market is not None and self.market.active

    @property
    def replication_active(self) -> bool:
        return self.replication is not None and self.replication.active

    @property
    def active(self) -> bool:
        return self.market_active or self.replication_active

    @classmethod
    def at(cls, intensity: float, seed: int = 0) -> "ChaosPlan":
        """Both planes at ``intensity`` — the benchmark sweep's axis."""
        return cls(
            market=ChaosPolicy.at(intensity),
            replication=ChaosPolicy.at(intensity),
            seed=seed,
        )
