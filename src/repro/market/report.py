"""The observable outcome of one market run.

:class:`MarketReport` is what :meth:`MarketCoordinator.run
<repro.market.runtime.MarketCoordinator.run>` returns: simulation-unit
counters, the per-deal outcome log behind :meth:`MarketReport.fingerprint`
(the determinism witness), and :meth:`MarketReport.render`, whose bytes
the CI ``cmp`` gates compare.  An optional plane that did not run
(sharding, replication, chaos, fees) contributes no row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.crypto.hashing import tagged_hash


@dataclass
class MarketReport:
    """The observable outcome of one market run (simulation units only)."""

    deals: int
    committed: int
    aborted: int
    rejected: int
    stuck: int
    conflicts: int
    timeouts: int
    latency_p50: float
    latency_p90: float
    latency_p99: float
    end_time: float
    deals_per_kilotick: float
    chains: int
    blocks: int
    txs_executed: int
    txs_reverted: int
    max_mempool_depth: int
    events_processed: int
    invariant_violations: tuple[str, ...] = ()
    outcome_log: tuple = ()
    # (protocol, committed, aborted, rejected, p50, p90, p99) rows,
    # one per protocol present in the workload, sorted by protocol
    # (telemetry.metrics.tally builds them, and every outcome count).
    per_protocol: tuple = ()
    stale_proofs_rejected: int = 0
    timelock_refund_sweeps: int = 0
    # Sorted (name, count) rows from the market's VerifyAggregator —
    # deterministic simulation counters, but outside render() and
    # fingerprint(): they say how signature checks were batched, not
    # what happened to any deal.  The E16 benchmark surfaces them in
    # its shard table and gates on the merge rate.
    verify_stats: tuple = ()
    # Sharding: how many coordinator shards the market ran with, and
    # how many deals straddled books owned by more than one shard.
    # Rendered only when shards > 1.
    shards: int = 1
    cross_shard_deals: int = 0
    cross_shard_committed: int = 0
    # Replication/fault axis (PR 6): rendered only when the layer ran
    # and did something, so fault-free unreplicated reports keep their
    # exact bytes.  replication_stats mirrors verify_stats: sorted
    # counter rows, deliberately outside render() and fingerprint().
    replication_factor: int = 1
    faults_injected: int = 0
    recoveries: int = 0
    failovers: int = 0
    availability: float = 1.0
    replication_stats: tuple = ()
    # Fault/network observability (rendered inside the same gated
    # block): per-fault rows from FaultPlan.stats() — each a tuple of
    # sorted (name, value) items — and the replication network's
    # delivery counters.  Empty on fault-free unreplicated runs, so
    # those reports keep their exact bytes.
    fault_stats: tuple = ()
    network_stats: tuple = ()
    # §5 sore losers: timelock deals whose escrows settled mixed
    # (released here, deadline-refunded there) because crash faults
    # gated sealing mid-deal.  Always 0 in fault-free runs, where a
    # mixed settlement is an invariant violation instead.
    sore_losers: int = 0
    # Shard-bus delivery counters (sorted rows, outside render() and
    # fingerprint() like verify_stats): how many typed envelopes the
    # coordinator and runtimes exchanged.  Observability only.
    bus_stats: tuple = ()
    # Fee market (PR 10): the sealing policy the run priced block
    # space with, how many deals it priced out of the market entirely
    # (a measured outcome, like sore losers), and the fee units the
    # sealed traffic paid.  Rendered only under a non-FIFO policy, so
    # default reports keep their exact bytes; fee_stats mirrors
    # verify_stats (sorted counter rows outside render/fingerprint).
    seal_policy: str = "fifo"
    fee_priced_out: int = 0
    fees_accrued: int = 0
    fee_stats: tuple = ()

    @property
    def abort_rate(self) -> float:
        """Aborted fraction of all terminally settled deals."""
        settled = self.committed + self.aborted
        return self.aborted / settled if settled else 0.0

    @property
    def cross_shard_fraction(self) -> float:
        """Cross-shard slice of all spawned deals."""
        return self.cross_shard_deals / self.deals if self.deals else 0.0

    def aggregator_merge_rate(self) -> float:
        """Fraction of enqueued block batches that merged with others.

        The measurable sharding win at the verify layer: with one
        order-carrying shard this is exactly 0.0; with M shards
        sealing on the same boundary it approaches (M-1)/M.
        """
        stats = dict(self.verify_stats)
        batches = stats.get("batches", 0)
        return stats.get("merged_batches", 0) / batches if batches else 0.0

    def committed_by_protocol(self) -> dict[str, int]:
        """Committed deal count per protocol (empty rows omitted)."""
        return {row[0]: row[1] for row in self.per_protocol}

    def protocol_outcome_rows(self, include_p90: bool = True) -> list[list]:
        """The per-protocol rows, formatted for a render_table call.

        The report's one reader of the ``per_protocol`` tuple layout
        (:func:`~repro.telemetry.metrics.tally` produces it) — both the
        report's own table and the E16 benchmark table build on it.
        """
        rows = []
        for protocol, committed, aborted, rejected, p50, p90, p99 in self.per_protocol:
            row = [protocol, committed, aborted, rejected, f"{p50:.2f}"]
            if include_p90:
                row.append(f"{p90:.2f}")
            row.append(f"{p99:.2f}")
            rows.append(row)
        return rows

    def fingerprint(self) -> str:
        """A digest of every deal's outcome — the determinism witness."""
        parts = [b"repro/market/report"]
        for index, protocol, outcome, reason, latency in self.outcome_log:
            parts.append(
                f"{index}:{protocol}:{outcome}:{reason}:{latency:.9f}".encode("utf-8")
            )
        return tagged_hash("repro/market/fingerprint", b"|".join(parts)).hex()[:32]

    def render(self) -> str:
        """Paper-style summary table (deterministic bytes)."""
        rows = [
            ["deals spawned", self.deals],
            ["committed", self.committed],
            ["aborted", self.aborted],
            ["rejected (forged orders)", self.rejected],
            ["stuck (non-terminal)", self.stuck],
            ["escrow conflicts", self.conflicts],
            ["patience timeouts", self.timeouts],
            ["stale proofs rejected", self.stale_proofs_rejected],
            ["abort rate", f"{self.abort_rate:.1%}"],
            ["commit latency p50 (ticks)", f"{self.latency_p50:.2f}"],
            ["commit latency p90 (ticks)", f"{self.latency_p90:.2f}"],
            ["commit latency p99 (ticks)", f"{self.latency_p99:.2f}"],
            ["horizon (chain ticks)", f"{self.end_time:.1f}"],
            ["throughput (deals / 1000 ticks)", f"{self.deals_per_kilotick:.1f}"],
            ["chains", self.chains],
        ]
        if self.shards > 1:
            rows += [
                ["coordinator shards", self.shards],
                ["cross-shard deals", self.cross_shard_deals],
                ["cross-shard committed", self.cross_shard_committed],
                ["cross-shard fraction", f"{self.cross_shard_fraction:.1%}"],
            ]
        if (
            self.replication_factor > 1
            or self.faults_injected
            or self.failovers
            or self.recoveries
        ):
            rows += [
                ["replication factor", self.replication_factor],
                ["replica crashes injected", self.faults_injected],
                ["failovers", self.failovers],
                ["recoveries", self.recoveries],
                ["availability", f"{self.availability:.3%}"],
                ["sore losers (mixed timelock)", self.sore_losers],
            ]
            if self.network_stats:
                net = dict(self.network_stats)
                rows += [
                    ["replication msgs delivered", net.get("delivered", 0)],
                    ["replication msgs dropped", net.get("dropped", 0)],
                    ["replication msgs delayed (faults)",
                     net.get("filter_delayed", 0)],
                ]
            if self.fault_stats:
                fired = dropped = duplicated = 0
                kinds: dict[str, int] = {}
                for row in self.fault_stats:
                    record = dict(row)
                    kind = record.get("kind", "?")
                    kinds[kind] = kinds.get(kind, 0) + 1
                    fired += record.get("crashes", 0)
                    fired += record.get("recoveries", 0)
                    fired += record.get("kills", 0)
                    dropped += record.get("dropped", 0)
                    duplicated += record.get("duplicated", 0)
                plan = ", ".join(
                    f"{kind} x{count}" for kind, count in sorted(kinds.items())
                )
                rows += [
                    ["fault plan", plan],
                    ["fault firings (crash+recover+kill)", fired],
                    ["fault msg drops", dropped],
                    ["fault msg dups", duplicated],
                ]
        bus = dict(self.bus_stats)
        if "chaos_dropped" in bus:
            # Only the ChaosBus carries these keys, so chaos-off
            # reports render byte-identically to a chaos-free build.
            rows += [
                ["chaos msgs dropped", bus["chaos_dropped"]],
                ["chaos msgs duplicated", bus["chaos_duplicated"]],
                ["chaos msgs delayed", bus["chaos_delayed"]],
                ["chaos msgs reordered", bus["chaos_reordered"]],
                ["at-least-once resends", bus["resends"]],
                ["duplicates suppressed", bus["dup_suppressed"]],
            ]
        if self.seal_policy != "fifo":
            fees = dict(self.fee_stats)
            rows += [
                ["sealing policy", self.seal_policy],
                ["deals fee-priced-out", self.fee_priced_out],
                ["fee units accrued", self.fees_accrued],
                ["steps fee-evicted", fees.get("fee_evicted", 0)],
            ]
        rows += [
            ["blocks produced", self.blocks],
            ["transactions executed", self.txs_executed],
            ["transactions reverted", self.txs_reverted],
            ["max mempool depth", self.max_mempool_depth],
            ["conservation violations", len(self.invariant_violations)],
            ["fingerprint", self.fingerprint()],
        ]
        table = render_table(["measure", "value"], rows, title="Market run")
        if len(self.per_protocol) <= 1:
            return table
        return table + "\n" + render_table(
            ["protocol", "committed", "aborted", "rejected",
             "p50 (ticks)", "p90 (ticks)", "p99 (ticks)"],
            self.protocol_outcome_rows(),
            title="Per-protocol outcomes",
        )

