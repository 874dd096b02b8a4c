"""Counter/gauge/histogram registry for the market's telemetry plane.

All instruments are plain deterministic accumulators over simulation
quantities — there is no sampling, no wall clock, and no randomness —
so a seeded run produces a byte-identical metrics snapshot every time.

Histograms keep their raw observations (market runs observe a few
thousand values at most) so the exported summary can report exact
nearest-rank percentiles instead of bucket approximations.

:func:`tally` is the one roll-up of deal outcomes: the market report,
the trace replay and E19's honest slice all count through it.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _percentiles(values: list[float]) -> tuple[float, float, float]:
    """Nearest-rank p50, p90 and p99 of ``values`` (any order)."""
    values = sorted(values)
    return tuple(_percentile(values, q) for q in (0.50, 0.90, 0.99))


class DealOutcome(NamedTuple):
    """One deal as :func:`tally` counts it.

    ``outcome`` is ``"committed"``, ``"aborted"`` or ``"rejected"``;
    anything else (a lifecycle phase, or ``None`` on an unclosed trace
    root) is a stuck deal.  ``latency`` is arrival to finish and only
    read for committed deals.
    """

    protocol: str
    outcome: str | None
    reason: str | None
    latency: float
    conflict: bool = False
    cross_shard: bool = False
    sore_loser: bool = False


_TERMINAL = ("committed", "aborted", "rejected")


def tally(deals: Iterable[DealOutcome]) -> dict:
    """Roll deals up under the :class:`~repro.market.report.MarketReport`'s
    field names.

    ``deals``, ``committed``, ``aborted``, ``rejected``, ``stuck``,
    ``conflicts`` (deals that hit an escrow conflict, whatever their
    outcome), ``timeouts`` (aborts for patience), commit-latency
    ``latency_p50/p90/p99``, ``per_protocol`` rows ``(protocol,
    committed, aborted, rejected, p50, p90, p99)`` sorted by protocol
    (one per protocol present, stuck-only ones included),
    ``cross_shard_deals``, ``cross_shard_committed`` and
    ``sore_losers``.
    """
    counts = dict.fromkeys(
        ("deals", *_TERMINAL, "stuck", "conflicts", "timeouts",
         "cross_shard_deals", "cross_shard_committed", "sore_losers"),
        0,
    )
    latencies: list[float] = []
    buckets: dict[str, dict] = {}
    for deal in deals:
        outcome = deal.outcome if deal.outcome in _TERMINAL else "stuck"
        committed = outcome == "committed"
        bucket = buckets.setdefault(
            deal.protocol, {**dict.fromkeys(_TERMINAL, 0), "stuck": 0, "latencies": []}
        )
        bucket[outcome] += 1
        counts[outcome] += 1
        counts["deals"] += 1
        if committed:
            latencies.append(deal.latency)
            bucket["latencies"].append(deal.latency)
        counts["conflicts"] += deal.conflict
        counts["timeouts"] += outcome == "aborted" and deal.reason == "timeout"
        counts["cross_shard_deals"] += deal.cross_shard
        counts["cross_shard_committed"] += deal.cross_shard and committed
        counts["sore_losers"] += deal.sore_loser
    return {
        **counts,
        **dict(zip(("latency_p50", "latency_p90", "latency_p99"),
                   _percentiles(latencies))),
        "per_protocol": tuple(
            (protocol, *(bucket[outcome] for outcome in _TERMINAL),
             *_percentiles(bucket["latencies"]))
            for protocol, bucket in sorted(buckets.items())
        ),
    }


class MetricsRegistry:
    """Named counters, gauges, and histograms."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        """Increment a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram."""
        self.histograms.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def histogram_summary(self, name: str) -> dict:
        """count/sum/min/max plus exact p50/p90/p99 for one histogram."""
        values = sorted(self.histograms.get(name, ()))
        if not values:
            return {"count": 0, "sum": 0, "min": 0, "max": 0,
                    "p50": 0, "p90": 0, "p99": 0}
        return {
            "count": len(values),
            "sum": sum(values),
            "min": values[0],
            "max": values[-1],
            "p50": _percentile(values, 0.50),
            "p90": _percentile(values, 0.90),
            "p99": _percentile(values, 0.99),
        }

    def snapshot(self) -> dict:
        """Every instrument's state, sorted by name (deterministic)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histogram_summary(name)
                for name in sorted(self.histograms)
            },
        }
