"""Deal-lifecycle tracing + metrics plane for the market runtime.

One :class:`Telemetry` object per run is the whole wiring: pass it as
``MarketConfig.telemetry`` and the scheduler attaches it at
construction time.  It bundles

* a :class:`~repro.telemetry.tracer.Tracer` of per-deal lifecycle
  spans (register → escrow → transfer → voting → settling, under one
  root span per deal) plus replication spans (replica-down windows,
  leaderless windows, failovers);
* a :class:`~repro.telemetry.metrics.MetricsRegistry` fed by the
  mempools (seal occupancy, post-seal depth), the simulator's
  :class:`~repro.chain.ledger.VerifyAggregator` (merge sizes,
  batch-verify pair counts) and the
  replication network (drops/delays);
* a read-only :class:`~repro.telemetry.blocktap.BlockTap` that ingests
  sealed blocks into columnar arrays and answers windowed queries
  mid-run.

Byte-neutrality contract: telemetry only observes.  It draws no
randomness, schedules no simulator events, and mutates no market
state, so a telemetry-on run's report — every byte of it, fingerprint
included — is identical to telemetry-off.  The off path costs one
attribute check per instrumentation site (``telemetry`` is ``None``
by default everywhere).  ``tests/telemetry`` holds the scheduler to
both properties.
"""

from __future__ import annotations

from repro.telemetry.blocktap import BlockTap
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "BlockTap",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
]


class Telemetry:
    """Per-run tracing/metrics facade (one instance per market run)."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.tap: BlockTap | None = None
        self.meta: dict = {}
        self._now = lambda: 0.0
        self._attached = False
        # Per-deal span bookkeeping, keyed by deal id bytes.
        self._root: dict[bytes, Span] = {}
        self._phase: dict[bytes, Span] = {}
        self._phases_seen: dict[bytes, set] = {}
        self._trace_key: dict[bytes, str] = {}

    # ------------------------------------------------------------------
    # Wiring (called by MarketCoordinator)
    # ------------------------------------------------------------------
    def attach(self, scheduler) -> None:
        """Bind to one scheduler and subscribe the block tap."""
        if self._attached:
            raise RuntimeError(
                "a Telemetry instance records exactly one run; "
                "construct a fresh one per market"
            )
        self._attached = True
        self._now = lambda: scheduler.simulator.now
        self.tap = BlockTap(scheduler)
        self.meta = {
            "seed": str(scheduler.workload.seed),
            "chains": len(scheduler.chains),
            "shards": scheduler.shards,
            "replication_factor": scheduler.config.replication_factor,
        }

    def finalize(self, scheduler) -> None:
        """End-of-run roll-up (runs after quiescence, before report)."""
        now = self._now()
        truncated = self.tracer.close_open_spans(now)
        if truncated:
            self.metrics.gauge("trace.spans_truncated", truncated)
        for chain_id in sorted(scheduler.mempools):
            pool = scheduler.mempools[chain_id]
            self.metrics.gauge(
                f"mempool.max_depth.{chain_id}", pool.stats["max_depth"]
            )
        if scheduler.replication is not None:
            for name, value in sorted(scheduler.replication.network.stats.items()):
                self.metrics.gauge(f"replication.net.{name}", value)
            for name, value in sorted(scheduler.replication.counters.items()):
                self.metrics.gauge(f"replication.{name}", value)
        self.meta["end_time"] = now

    # ------------------------------------------------------------------
    # Deal lifecycle (scheduler + protocol drivers)
    # ------------------------------------------------------------------
    def deal_admitted(self, run, at: float) -> None:
        """Open the deal's root span and its first phase span."""
        deal_id = run.order.deal_id
        key = f"deal-{run.order.index}"
        self._trace_key[deal_id] = key
        root = self.tracer.start_span(
            key, "deal", at,
            protocol=run.protocol,
            shard=run.home_shard,
            cross_shard=run.cross_shard,
            deal_id=deal_id.hex()[:16],
        )
        self._root[deal_id] = root
        self._phase[deal_id] = self.tracer.start_span(
            key, "register", at, parent=root
        )
        self._phases_seen[deal_id] = {"register"}
        if self.tap is not None:
            self.tap.note_deal(deal_id, run.protocol)

    def deal_phase(self, run, phase: str, at: float) -> None:
        """Close the current phase span and open the next."""
        deal_id = run.order.deal_id
        root = self._root.get(deal_id)
        if root is None:
            return
        open_phase = self._phase.get(deal_id)
        if open_phase is not None:
            open_phase.close(at)
        self._phase[deal_id] = self.tracer.start_span(
            root.trace_id, phase, at, parent=root
        )
        self._phases_seen[deal_id].add(phase)

    def deal_event(self, deal_id: bytes, name: str, **attrs: object) -> None:
        """A point event on a deal's trace (e.g. its registration seal)."""
        root = self._root.get(deal_id)
        if root is None:
            return
        self.tracer.event(root.trace_id, name, self._now(), parent=root, **attrs)

    def deal_finished(self, run, at: float) -> None:
        """Close the deal's phase + root spans with its outcome."""
        deal_id = run.order.deal_id
        root = self._root.get(deal_id)
        if root is None:
            return
        open_phase = self._phase.pop(deal_id, None)
        if open_phase is not None:
            open_phase.close(at)
        root.close(at, outcome=run.phase.value, reason=run.reason)
        self.metrics.count(f"deals.{run.phase.value}")

    def deal_coverage(self) -> tuple[int, int]:
        """(committed deals traced, of those with full span chains)."""
        committed = full = 0
        for deal_id, root in self._root.items():
            if root.attrs.get("outcome") != "committed":
                continue
            committed += 1
            if root.end is not None and not root.attrs.get("truncated") and (
                "register" in self._phases_seen.get(deal_id, ())
            ):
                full += 1
        return committed, full

    # ------------------------------------------------------------------
    # Mempools
    # ------------------------------------------------------------------
    def mempool_seal(self, chain_id: str, sealed: int, depth_after: int) -> None:
        """One seal: batch occupancy and the backlog it left behind."""
        self.metrics.observe("mempool.seal_occupancy", sealed)
        self.metrics.observe("mempool.depth_after_seal", depth_after)
        self.metrics.count(f"mempool.seals.{chain_id}")

    def mempool_gated(self, chain_id: str) -> None:
        """A seal deferred because the shard has no live leader."""
        self.metrics.count(f"mempool.seals_deferred.{chain_id}")

    # ------------------------------------------------------------------
    # Verify aggregation
    # ------------------------------------------------------------------
    def verify_flush(self, batches: int, pairs: int) -> None:
        """One aggregator flush chunk: blocks merged and pairs checked."""
        self.metrics.observe("verify.merge_size", batches)
        self.metrics.observe("verify.pairs_per_flush", pairs)
        self.metrics.count("verify.pairs_total", pairs)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def _replication_trace(self, shard: int) -> str:
        return f"replication/s{shard}"

    def replica_crashed(self, name: str, shard: int) -> None:
        self.tracer.start_span(
            self._replication_trace(shard), f"down:{name}", self._now()
        )
        self.metrics.count("replication.crashes")

    def replica_recovered(self, name: str, shard: int, replayed: int) -> None:
        trace = self._replication_trace(shard)
        target = f"down:{name}"
        for span in reversed(self.tracer.spans):
            if span.trace_id == trace and span.name == target and span.end is None:
                span.close(self._now(), replayed=replayed)
                break
        self.metrics.count("replication.recoveries")
        self.metrics.observe("replication.replay_size", replayed)

    def leader_lost(self, shard: int) -> None:
        self.tracer.start_span(
            self._replication_trace(shard), "leaderless", self._now()
        )

    def leader_elected(self, shard: int, leader: str) -> None:
        trace = self._replication_trace(shard)
        for span in reversed(self.tracer.spans):
            if span.trace_id == trace and span.name == "leaderless" and span.end is None:
                span.close(self._now(), leader=leader)
                break
        self.tracer.event(trace, "failover", self._now(), leader=leader)
        self.metrics.count("replication.failovers")

    def delta_shipped(self, shard: int, chain_id: str, seq: int) -> None:
        self.metrics.count("replication.deltas_shipped")
        self.tracer.event(
            self._replication_trace(shard), "delta-ship", self._now(),
            chain=chain_id, seq=seq,
        )
