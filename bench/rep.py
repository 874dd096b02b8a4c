"""One repetition of one workload, in this (fresh) process.

``run.py`` starts this file as a child process for every repetition,
because one market per process is what a user pays: set-up warms the
generator table, and every per-account window table and verify-cache
entry is cold when the timed run starts.  The child generates the
inputs from the seed, times set-up and the run separately, checks the
outputs, and prints one JSON object as its last line.

Usage (normally via run.py)::

    python3 bench/rep.py --workload NAME --seed N [--trace] [--backend B]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
if not (SOURCE_DIR / "repro").is_dir():
    sys.exit(f"bench: no program to measure at {SOURCE_DIR}/repro")
sys.path.insert(0, str(SOURCE_DIR))

from repro.analysis.costs import commit_signature_verifications  # noqa: E402
from repro.analysis.sweep import run_deal  # noqa: E402
from repro.core.config import ProtocolKind  # noqa: E402
from repro.core.outcomes import evaluate_outcome  # noqa: E402
from repro.crypto import fastexp, schnorr  # noqa: E402
from repro.crypto.hashing import tagged_hash  # noqa: E402
from repro.market import open_market  # noqa: E402
from repro.workloads.generators import random_well_formed_deal  # noqa: E402
from repro.workloads.market import MarketWorkload  # noqa: E402

import trace as bench_trace  # noqa: E402  (bench/trace.py: script dir leads sys.path)
from workloads import SINGLE_DEALS, WORKLOADS  # noqa: E402


class Phases:
    """Wall seconds of the benchmark's own calls into the program.

    Always timed (set-up and run time are end-to-end metrics); with a
    tracer each call is also the top-level span its layers nest in.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    def call(self, name: str, fn, *args):
        if self.tracer is not None:
            fn = self.tracer.wrap(fn, name)
        start = time.perf_counter()
        result = fn(*args)
        self.seconds[name] = time.perf_counter() - start
        return result


def _peak_rss_mb() -> float:
    """Peak resident set: this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _cache_counters() -> dict:
    """Crypto cache hits and misses of this (fresh) process."""
    fast, sch = fastexp.cache_stats(), schnorr.cache_stats()
    return {
        "table_hits": fast["base_table_hits"],
        "table_misses": fast["base_table_misses"],
        "verify_hits": sch["verify_hits"],
        "verify_misses": sch["verify_misses"],
    }


def _nearest_rank(ascending: list[float], percent: int) -> float:
    """Nearest-rank percentile, as ``MarketReport`` computes its own."""
    if not ascending:
        return 0.0
    return ascending[max(1, -(-percent * len(ascending) // 100)) - 1]


def market_repetition(workload, seed: int, tracer, backend: str | None) -> dict:
    inputs = workload.inputs(seed)
    phases = Phases(tracer)
    market_workload = phases.call("workloads.keygen", MarketWorkload, inputs.profile)
    orders = phases.call("workloads.order_sign", market_workload.orders)
    handle = phases.call(
        "runtime.open", open_market,
        market_workload, inputs.config, backend or inputs.backend,
    )
    if tracer is not None:
        tracer.attach_market(handle.market)
    report = phases.call("runtime.run", handle.run)

    problems = [f"invariant violated: {v}" for v in report.invariant_violations]
    if report.stuck:
        problems.append(f"{report.stuck} deals stuck in a non-terminal phase")
    problems += workload.check(report, inputs.profile)
    result = {
        "setup_s": sum(
            phases.seconds[name]
            for name in ("workloads.keygen", "workloads.order_sign", "runtime.open")
        ),
        "run_s": phases.seconds["runtime.run"],
        "attempted": len(orders),
        "committed": report.committed,
        "failed": report.stuck + len(report.invariant_violations),
        "latency_p50": report.latency_p50,
        "latency_p90": report.latency_p90,
        "availability": report.availability,
        "fingerprint": report.fingerprint(),
        "problems": problems,
        "backend": handle.backend.name,
        "worker_restarts": getattr(handle.backend, "stats", {}).get("restarts", 0),
    }
    if tracer is not None:
        verify, bus = dict(report.verify_stats), dict(report.bus_stats)
        replication = dict(report.replication_stats)
        result["counters"] = {
            "orders_signed": len(orders),
            "events": report.events_processed,
            "max_mempool_depth": report.max_mempool_depth,
            "steps_sealed": sum(
                pool.stats["sealed"] + pool.stats["dropped"]
                for pool in handle.market.mempools.values()
            ),
            "fee_priced_out": report.fee_priced_out,
            "fees_accrued": report.fees_accrued,
            "flushes": verify.get("flushes", 0),
            "batches": verify.get("batches", 0),
            "isolation_fallbacks": verify.get("isolation_fallbacks", 0),
            "merge_rate": report.aggregator_merge_rate(),
            "blocks": report.blocks,
            "txs_executed": report.txs_executed,
            "txs_reverted": report.txs_reverted,
            "bus_delivered": bus.get("delivered", 0),
            "bus_resends": bus.get("resends", 0),
            "bus_dup_suppressed": bus.get("dup_suppressed", 0),
            "bus_chaos_dropped": bus.get("chaos_dropped", 0),
            "bus_chaos_duplicated": bus.get("chaos_duplicated", 0),
            "deltas_shipped": replication.get("deltas_shipped", 0),
            "deltas_resent": replication.get("deltas_resent", 0),
            "recoveries": report.recoveries,
            "failovers": report.failovers,
            "sore_losers": report.sore_losers,
        }
    return result


def single_deals_repetition(seed: int, tracer) -> dict:
    """The paper's per-deal path: one deal at a time, closed loop."""
    phases = Phases(tracer)
    kinds = (ProtocolKind.TIMELOCK, ProtocolKind.CBC)

    def generate():
        return [
            random_well_formed_deal(
                seed=1000 * seed + i, n=(3, 4, 5)[i % 3], chains=2
            )
            for i in range(SINGLE_DEALS)
        ]

    def run_all(deals):
        return [
            run_deal(spec, keys, kinds[i % 2], validators_f=1)
            for i, (spec, keys) in enumerate(deals)
        ]

    deals = phases.call("workloads.keygen", generate)
    results = phases.call("runtime.run", run_all, deals)

    problems, latencies, log = [], [], []
    executed = reverted = sig_verifications = 0
    for i, deal in enumerate(results):
        outcome = evaluate_outcome(deal)
        ok = (
            deal.all_committed()
            and outcome.safety_ok
            and outcome.strong_liveness_ok is True
        )
        if not ok:
            problems.append(f"deal {i}: {outcome.violations() or 'not committed'}")
        else:
            latencies.append(deal.timeline.settled_at - deal.timeline.started_at)
        checks = commit_signature_verifications(deal)
        sig_verifications += checks
        executed += len(deal.receipts)
        reverted += sum(1 for receipt in deal.receipts if not receipt.ok)
        log.append(f"{i}:{ok}:{deal.timeline.settled_at}:{checks}")
    latencies.sort()
    result = {
        "setup_s": phases.seconds["workloads.keygen"],
        "run_s": phases.seconds["runtime.run"],
        "attempted": len(deals),
        "committed": len(latencies),
        "failed": len(deals) - len(latencies),
        "latency_p50": _nearest_rank(latencies, 50),
        "latency_p90": _nearest_rank(latencies, 90),
        "availability": 1.0,
        "fingerprint": tagged_hash(
            "bench/single-deals", "|".join(log).encode("utf-8")
        ).hex()[:32],
        "problems": problems,
        "backend": "inline",
        "worker_restarts": 0,
    }
    if tracer is not None:
        result["counters"] = {
            "orders_signed": 0,
            "txs_executed": executed,
            "txs_reverted": reverted,
            "sig_verifications": sig_verifications / len(results),
        }
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--backend", choices=("inline", "processes"))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        tracer.install()
    try:
        if workload.inputs is None:
            result = single_deals_repetition(args.seed, tracer)
        else:
            # Spans cannot cross a fork: the traced pass of a processes
            # workload runs its inline twin (same inputs, same report).
            backend = "inline" if tracer is not None else args.backend
            result = market_repetition(workload, args.seed, tracer, backend)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        counters = result.pop("counters")
        counters.update(_cache_counters())
        summary = bench_trace.Summary(tracer.spans)
        result["per_layer"] = bench_trace.layer_metrics(summary, counters)
        result["layers_self_s"] = summary.layers_under("runtime.run")
        result["spans"] = len(tracer.spans)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
