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
  replication network (drops/delays).

Every roll-up is read back off the exported records by one function,
:func:`repro.telemetry.export.replay_counts`; nothing here keeps a
second copy of market state.

Byte-neutrality contract: telemetry only observes.  It draws no
randomness, schedules no simulator events, and mutates no market
state, so a telemetry-on run's report — every byte of it, fingerprint
included — is identical to telemetry-off.  The off path costs one
attribute check per instrumentation site (``telemetry`` is ``None``
by default everywhere).  ``tests/telemetry`` holds the scheduler to
both properties.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
]


def _outcome_flags(run) -> dict:
    """The deal's ``conflict`` / ``sore_loser`` root attributes, each
    written only when true (so untouched roots keep their bytes)."""
    return {name: True for name in ("conflict", "sore_loser") if getattr(run, name)}


class Telemetry:
    """Per-run tracing/metrics facade (one instance per market run)."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.meta: dict = {}
        self._now = lambda: 0.0
        self._attached = False
        # Per-deal span bookkeeping, keyed by deal id bytes.
        self._root: dict[bytes, Span] = {}
        self._phase: dict[bytes, Span] = {}

    # ------------------------------------------------------------------
    # Wiring (called by MarketCoordinator)
    # ------------------------------------------------------------------
    def attach(self, scheduler) -> None:
        """Bind to one scheduler (one run per instance)."""
        if self._attached:
            raise RuntimeError(
                "a Telemetry instance records exactly one run; "
                "construct a fresh one per market"
            )
        self._attached = True
        self._now = lambda: scheduler.simulator.now
        self.meta = {
            "seed": str(scheduler.workload.seed),
            "chains": len(scheduler.chains),
            "shards": scheduler.shards,
            "replication_factor": scheduler.config.replication_factor,
        }

    def finalize(self, scheduler) -> None:
        """End-of-run roll-up (runs after quiescence, before report)."""
        now = self._now()
        # Stuck deals never reached deal_finished: their roots get the
        # flags here, before the truncating close.
        for run in scheduler.runs.values():
            root = self._root.get(run.order.deal_id)
            if root is not None and root.end is None:
                root.attrs.update(_outcome_flags(run))
        truncated = self.tracer.close_open_spans(now)
        if truncated:
            self.metrics.gauge("trace.spans_truncated", truncated)
        for chain_id in sorted(scheduler.mempools):
            pool = scheduler.mempools[chain_id]
            self.metrics.gauge(
                f"mempool.max_depth.{chain_id}", pool.stats["max_depth"]
            )
        blocks = [
            block for chain in scheduler.chains.values() for block in chain.blocks[1:]
        ]
        receipts = [receipt for block in blocks for receipt in block.receipts]
        self.metrics.gauge("chain.blocks", len(blocks))
        self.metrics.gauge("chain.txs_executed", len(receipts))
        self.metrics.gauge(
            "chain.txs_reverted", sum(1 for receipt in receipts if not receipt.ok)
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

    def deal_event(self, deal_id: bytes, name: str, **attrs: object) -> None:
        """A point event on a deal's trace (e.g. its registration seal)."""
        root = self._root.get(deal_id)
        if root is None:
            return
        self.tracer.event(root.trace_id, name, self._now(), parent=root, **attrs)

    def deal_finished(self, run, at: float) -> None:
        """Close the deal's phase + root spans with its outcome and flags."""
        deal_id = run.order.deal_id
        root = self._root.get(deal_id)
        if root is None:
            return
        open_phase = self._phase.pop(deal_id, None)
        if open_phase is not None:
            open_phase.close(at)
        root.close(
            at, outcome=run.phase.value, reason=run.reason, **_outcome_flags(run)
        )
        self.metrics.count(f"deals.{run.phase.value}")

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
    def _close_latest(self, shard: int, name: str, **attrs: object) -> None:
        """Close the shard's newest open ``name`` span (if any)."""
        trace = f"replication/s{shard}"
        for span in reversed(self.tracer.spans):
            if span.trace_id == trace and span.name == name and span.end is None:
                span.close(self._now(), **attrs)
                return

    def replica_crashed(self, name: str, shard: int) -> None:
        self.tracer.start_span(f"replication/s{shard}", f"down:{name}", self._now())
        self.metrics.count("replication.crashes")

    def replica_recovered(self, name: str, shard: int, replayed: int) -> None:
        self._close_latest(shard, f"down:{name}", replayed=replayed)
        self.metrics.count("replication.recoveries")
        self.metrics.observe("replication.replay_size", replayed)

    def leader_lost(self, shard: int) -> None:
        self.tracer.start_span(f"replication/s{shard}", "leaderless", self._now())

    def leader_elected(self, shard: int, leader: str) -> None:
        self._close_latest(shard, "leaderless", leader=leader)
        self.tracer.event(
            f"replication/s{shard}", "failover", self._now(), leader=leader
        )
        self.metrics.count("replication.failovers")

    def delta_shipped(self, shard: int, chain_id: str, seq: int) -> None:
        self.metrics.count("replication.deltas_shipped")
        self.tracer.event(
            f"replication/s{shard}", "delta-ship", self._now(), chain=chain_id, seq=seq
        )
