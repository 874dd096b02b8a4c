"""E16 — the concurrent deal market: throughput, latency, abort rates.

The paper specifies its protocols per deal; the ROADMAP's north star
is heavy traffic.  E16 measures the gap-closer: the
:mod:`repro.market` runtime drives thousands of deals concurrently
over four shared chains — per-chain mempools, whole-block order
verification via ``batch_verify_quorum``, one escrow book per chain,
one commit log per coordinator shard, first-committed-wins conflict
resolution (within a book and across books).

Four measurements:

* the **headline run** (``MarketProfile.headline``): 5,600 deals with
  adversaries mixed in (vote withholders, escrow no-shows, forged
  orders) and account balances tight enough that real escrow conflicts
  occur; it must commit >= 5,000 deals with every conservation
  invariant holding;
* a **protocol-mix run** (``MarketProfile.mixed``): the paper's two
  real commit protocols — timelock path-signature voting (§5) and CBC
  certified proofs (§6) — interleaved with unanimity deals and NFT
  ticket sales on the same chains, with stale-proof forgers and
  double-sellers mixed in; with ``--protocol-mix`` it must commit
  >= 1,000 deals *per protocol* with zero invariant violations;
* a **shard sweep** (``MarketProfile.sharded``): the market split
  across 1, 2, and 4 order-carrying coordinator chains with a
  guaranteed slice of cross-shard deals; the table reports committed
  and cross-shard counts next to the shared ``VerifyAggregator``'s
  merge counters — the deterministic evidence that boundary-sharing
  blocks from several shards really fold into one ``multi_pow``;
* an **arrival-rate sweep** showing how commit latency and the abort
  rate respond to load on fixed block space.

With ``--shards M`` the headline (or quick) run itself is sharded and
gated: at M=4 it must commit >= 5,000 deals of which >= 20% are
cross-shard, with zero conservation violations and an aggregator
merge rate > 0.  ``--shards 1`` reproduces the unsharded headline
fingerprint byte-for-byte.

With ``--replication R`` the headline run replicates every shard into
an ``R``-member replica group (:mod:`repro.market.replication`);
``--replication 1`` is the unreplicated layout and reproduces the
headline fingerprint byte-for-byte — the crash/recovery axis itself
is E17's (``bench_e17_faults.py``).

With ``--exec processes`` the headline run executes on the
``processes`` backend of :func:`repro.market.open_market` (the same
coordinator, its seal verification on a pool of one worker process
per shard): the benchmark runs the headline on *both* backends and
fails unless the two rendered reports are byte-identical.

Every mode exits non-zero unless its acceptance criteria hold
(``check_gate``).  The report contains simulation quantities only
(chain ticks, counts, fingerprints), so it is byte-identical across
hosts, runs, ``--jobs`` settings, and ``--exec`` backends; nothing in
this module reads a clock — wall time is measured by ``bench/``
(``BENCHMARK.json``), from outside::

    python benchmarks/bench_e16_market.py [--quick] [--jobs N]
                                          [--protocol-mix] [--shards M]
                                          [--replication R]
                                          [--exec {inline,processes}]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.tables import render_table
from repro.market import MarketConfig, MarketReport, open_market
from repro.workloads.market import MarketProfile, MarketWorkload

RATE_SWEEP = [2.0, 6.0, 12.0]
SHARD_SWEEP = [1, 2, 4]

_SWEEP_BASE = MarketProfile(
    deals=400, chains=4, accounts=24, initial_balance=1_800, seed=7
)


def run_market(
    profile: MarketProfile,
    config: MarketConfig | None = None,
    exec_backend: str = "inline",
) -> MarketReport:
    """Run one market to quiescence; return its report."""
    return open_market(
        MarketWorkload(profile), config, backend=exec_backend
    ).run()


# ----------------------------------------------------------------------
# Arrival-rate sweep
# ----------------------------------------------------------------------
def sweep_point(rate: float, base: MarketProfile = _SWEEP_BASE) -> dict:
    """One sweep record (simulation quantities only)."""
    report = run_market(replace(base, arrival_rate=rate))
    return {
        "x": rate,
        "committed": report.committed,
        "aborted": report.aborted,
        "conflicts": report.conflicts,
        "abort_rate": report.abort_rate,
        "p50": report.latency_p50,
        "p99": report.latency_p99,
        "throughput": report.deals_per_kilotick,
    }


def rate_sweep(
    jobs: int | None = None, base: MarketProfile = _SWEEP_BASE
) -> list[dict]:
    """Fan the sweep points over the process pool (serial if nested)."""
    from repro.analysis.sweep import sweep_parallel

    return sweep_parallel(RATE_SWEEP, partial(sweep_point, base=base), jobs=jobs)


# ----------------------------------------------------------------------
# Report tables
# ----------------------------------------------------------------------
def sweep_table(jobs: int | None = None, quick: bool = False) -> str:
    base = replace(_SWEEP_BASE, deals=80) if quick else _SWEEP_BASE
    records = rate_sweep(jobs=jobs, base=base)
    sweep_rows = [
        [
            f"{r['x']:.0f}",
            r["committed"],
            r["conflicts"],
            f"{r['abort_rate']:.1%}",
            f"{r['p50']:.2f}",
            f"{r['p99']:.2f}",
            f"{r['throughput']:.1f}",
        ]
        for r in records
    ]
    return render_table(
        ["arrivals/tick", "committed", "conflicts", "abort rate",
         "p50 (ticks)", "p99 (ticks)", "deals/kilotick"],
        sweep_rows,
        title=f"E16 — load sweep ({base.deals} deals, "
              f"{base.chains} chains, shared accounts)",
    )


# ----------------------------------------------------------------------
# Shard sweep (cross-market sharding + aggregator merge evidence)
# ----------------------------------------------------------------------
def shard_point(shards: int, deals: int = 400, seed: int = 11) -> dict:
    """One shard-sweep record (simulation quantities only)."""
    profile = replace(MarketProfile.sharded(seed=seed, shards=shards), deals=deals)
    report = run_market(profile)
    stats = dict(report.verify_stats)
    return {
        "x": shards,
        "committed": report.committed,
        "cross_shard": report.cross_shard_deals,
        "cross_fraction": report.cross_shard_fraction,
        "agg_batches": stats.get("batches", 0),
        "agg_merged": stats.get("merged_batches", 0),
        "merge_rate": report.aggregator_merge_rate(),
        "violations": len(report.invariant_violations),
    }


def shard_table(jobs: int | None = None, quick: bool = False) -> str:
    """The cross-market sharding table (surfaces the merge counters).

    This is where the shared ``VerifyAggregator``'s counters — absent
    from ``MarketReport.render()`` by design, so toggling aggregation
    can never change report bytes — enter the experiment report that
    ``run_all.py`` serializes.  All columns are deterministic seeded
    simulation counts.
    """
    from repro.analysis.sweep import sweep_parallel

    deals = 80 if quick else 400
    records = sweep_parallel(
        SHARD_SWEEP, partial(shard_point, deals=deals), jobs=jobs
    )
    rows = [
        [
            r["x"],
            r["committed"],
            r["cross_shard"],
            f"{r['cross_fraction']:.1%}",
            r["agg_batches"],
            r["agg_merged"],
            f"{r['merge_rate']:.1%}",
            r["violations"],
        ]
        for r in records
    ]
    return render_table(
        ["shards", "committed", "cross-shard", "cross %",
         "agg batches", "agg merged", "merge rate", "violations"],
        rows,
        title=f"E16 — cross-market sharding ({deals} deals, 4 chains, "
              "shared VerifyAggregator)",
    )


# ----------------------------------------------------------------------
# Protocol mix
# ----------------------------------------------------------------------
def protocol_table(quick: bool = False, seed: int = 5) -> str:
    """A small protocol-mix run for the experiment report."""
    profile = (
        MarketProfile.mixed_smoke(seed=seed) if quick
        else MarketProfile.mixed(seed=seed, deals=400)
    )
    report = run_market(profile)
    rows = report.protocol_outcome_rows(include_p90=False)
    rows.append([
        "(all)", report.committed, report.aborted, report.rejected,
        f"{report.latency_p50:.2f}", f"{report.latency_p99:.2f}",
    ])
    return render_table(
        ["protocol", "committed", "aborted", "rejected",
         "p50 (ticks)", "p99 (ticks)"],
        rows,
        title=f"E16 — protocol mix ({profile.deals} deals: unanimity / "
              f"timelock §5 / CBC §6, {report.stale_proofs_rejected} stale "
              f"proofs rejected, {len(report.invariant_violations)} "
              "invariant violations)",
    )


# ----------------------------------------------------------------------
# Market conformance gate
# ----------------------------------------------------------------------
def gate_profile(quick: bool, mixed: bool = False, shards: int = 1) -> MarketProfile:
    if mixed:
        profile = MarketProfile.mixed_smoke() if quick else MarketProfile.mixed()
        if shards > 1:
            profile = replace(profile, shards=shards, cross_shard_rate=0.35)
        return profile
    if shards > 1:
        return (
            MarketProfile.sharded_smoke(shards=shards) if quick
            else MarketProfile.sharded(shards=shards)
        )
    return MarketProfile.smoke() if quick else MarketProfile.headline()


@dataclass(frozen=True)
class GateRun:
    """One acceptance run: its report, and the axes ``check_gate`` reads."""

    report: MarketReport
    quick: bool
    mixed: bool
    chaos: float
    coverage: float | None  # --trace: share of commits with a full span chain


def gate_run(
    quick: bool = False,
    mixed: bool = False,
    shards: int = 1,
    replication: int = 1,
    exec_backend: str = "inline",
    chaos: float = 0.0,
    seal_policy: str = "fifo",
    trace: str | None = None,
) -> GateRun:
    """The acceptance run.

    The config is built unconditionally: an axis left at its default
    (``fifo``, no chaos plan, factor 1, no telemetry) constructs
    nothing — that neutrality is the runtime's property, which CI's
    ``cmp`` legs (``--seal-policy fifo``, ``--chaos 0``, ``--trace`` vs
    no flag) keep proving.  ``trace`` names the JSONL file to write.
    """
    profile = gate_profile(quick, mixed, shards)
    chaos_plan = telemetry = coverage = None
    if chaos > 0:
        from repro.sim.chaos import ChaosPlan

        chaos_plan = ChaosPlan.at(chaos, seed=profile.seed)
    if trace is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    config = MarketConfig(
        seal_policy=seal_policy, chaos=chaos_plan,
        replication_factor=replication, telemetry=telemetry,
    )
    report = run_market(profile, config, exec_backend=exec_backend)
    if telemetry is not None:
        from repro.telemetry.export import write_trace_jsonl

        write_trace_jsonl(telemetry, trace)
        committed, full = telemetry.deal_coverage()
        coverage = full / committed if committed else 1.0
    return GateRun(report, quick, mixed, chaos, coverage)


def check_gate(run: GateRun) -> list[str]:
    """The E16 acceptance criteria; returns failures (empty = pass).

    * every run: no stuck deal, zero conservation violations; with
      ``--shards M > 1`` >= 20% of deals cross-shard; with ``--trace``
      >= 95% of committed deals carry a full span chain;
    * ``fifo`` sealing without chaos — the axes the throughput floors
      were measured on; E19 owns fee policies (``base_fee`` prices
      every fee-less deal out) and E18 chaos: 5,000 of the headline's
      5,600 deals commit; the mixed profile spawns 3,900, so its floor
      scales to the same ~85-89% bar, and each protocol commits
      >= 1,000; a quick profile (120-180 deals) commits 25, and 25 per
      protocol — enough to catch a market that stopped committing;
      sharded, the aggregator merge rate is > 0.
    """
    report, quick = run.report, run.quick
    failures = []
    if report.stuck:
        failures.append(f"{report.stuck} stuck deals")
    if report.invariant_violations:
        failures.append(
            f"{len(report.invariant_violations)} invariant violations "
            f"(first: {report.invariant_violations[0]})"
        )
    if report.shards > 1 and report.cross_shard_fraction < 0.20:
        failures.append(
            f"cross-shard fraction {report.cross_shard_fraction:.1%} < 20%"
        )
    if run.coverage is not None and run.coverage < 0.95:
        failures.append(f"trace coverage {run.coverage:.1%} < 95%")
    if report.seal_policy == "fifo" and not run.chaos:
        floor = 25 if quick else int(report.deals * 0.85) if run.mixed else 5_000
        if report.committed < floor:
            failures.append(f"committed {report.committed} < {floor}")
        by_protocol = report.committed_by_protocol()
        floor = 25 if quick else 1_000
        for protocol in ("unanimity", "timelock", "cbc") if run.mixed else ():
            count = by_protocol.get(protocol, 0)
            if count < floor:
                failures.append(f"{protocol} committed {count} < {floor}")
        if report.shards > 1 and report.aggregator_merge_rate() <= 0.0:
            failures.append("aggregator merge rate is 0")
    return failures


def gate_table(run: GateRun, failures: list[str]) -> str:
    """The verdict, plus the gated measures ``render()`` does not show.

    Printed last, by ``main`` only: unlike E17-E19's, it is not part of
    ``make_report``, whose bytes CI's ``cmp`` legs pin across commits.
    """
    report = run.report
    rows = [
        ["deals committed", report.committed],
        ["deals stuck", report.stuck],
        ["invariant violations", len(report.invariant_violations)],
    ]
    if report.shards > 1:
        rows.append(["aggregator merge rate",
                     f"{report.aggregator_merge_rate():.1%}"])
    if run.coverage is not None:
        rows.append(
            ["trace coverage (register->commit)", f"{run.coverage:.1%}"]
        )
    rows.append(
        ["gate", "PASS" if not failures else "FAIL: " + "; ".join(failures)]
    )
    return render_table(
        ["measure", "value"], rows,
        title=f"E16 — market conformance gate ({report.deals} deals, "
              f"{report.shards} shard(s))",
    )


def make_report(
    jobs: int | None = None,
    quick: bool = False,
    shards: int = 1,
    trace: str | None = None,
    exec_backend: str = "inline",
    chaos: float = 0.0,
    seal_policy: str = "fifo",
) -> str:
    # The axis flags apply to the headline run only (the tables sweep
    # their own axes); a trace lands silently — bytes are unchanged.
    headline = gate_run(
        quick=quick, shards=shards, exec_backend=exec_backend,
        chaos=chaos, seal_policy=seal_policy, trace=trace,
    ).report
    return (
        headline.render()
        + "\n" + protocol_table(quick=quick)
        + "\n" + shard_table(jobs=jobs, quick=quick)
        + "\n" + sweep_table(jobs=jobs, quick=quick)
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small fixed-seed profile (smoke test)")
    parser.add_argument("--protocol-mix", action="store_true",
                        help="run the mixed unanimity/timelock/CBC profile "
                             "instead of the unanimity headline")
    parser.add_argument("--shards", type=int, default=1,
                        help="coordinator shards for the headline run "
                             "(>1 also gates the cross-shard criteria)")
    parser.add_argument("--replication", type=int, default=1,
                        help="replica group size per shard (fault-free, "
                             "so the fingerprint must not change)")
    parser.add_argument("--exec", dest="exec_backend", default="inline",
                        choices=("inline", "processes"),
                        help="execution backend for the headline run; "
                             "'processes' (one verify worker per shard) "
                             "must reproduce the inline report's bytes")
    parser.add_argument("--trace", metavar="OUT", default=None,
                        help="write a deal-lifecycle trace (JSONL) of the "
                             "headline run; byte-neutral — report bytes "
                             "and fingerprint are unchanged")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for the load sweep")
    parser.add_argument("--seal-policy", dest="seal_policy", default="fifo",
                        choices=("fifo", "first_price", "base_fee"),
                        help="sealing policy for the headline run's block "
                             "space ('fifo' = fee machinery absent; the "
                             "policy x congestion sweep is E19's)")
    parser.add_argument("--chaos", type=float, default=0.0, metavar="P",
                        help="seeded chaos intensity for the headline run "
                             "(drop/dup/delay/reorder each message plane "
                             "at probability P; 0 = chaos off)")
    args = parser.parse_args(argv)
    axes = dict(
        quick=args.quick, mixed=args.protocol_mix, shards=args.shards,
        replication=args.replication, chaos=args.chaos,
        seal_policy=args.seal_policy,
    )
    run = gate_run(**axes, exec_backend=args.exec_backend, trace=args.trace)
    failures = check_gate(run)
    if (
        args.exec_backend == "processes"
        and gate_run(**axes).report.render() != run.report.render()
    ):
        # The equivalence gate: the same run inline (untraced) must
        # produce the identical report.
        failures.append("processes report differs from inline")
    print(run.report.render())
    print(shard_table(jobs=args.jobs, quick=args.quick))
    print(sweep_table(jobs=args.jobs, quick=args.quick))
    print(gate_table(run, failures))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Shape checks (run with the benchmark suite, not tier-1)
# ----------------------------------------------------------------------
def test_shape_gate_passes_quick():
    for mixed, shards in ((False, 1), (True, 1), (False, 2)):
        assert check_gate(gate_run(quick=True, mixed=mixed, shards=shards)) == []


def test_shape_replication_keeps_fingerprint():
    base = run_market(MarketProfile.sharded_smoke())
    replicated = run_market(
        MarketProfile.sharded_smoke(), MarketConfig(replication_factor=3)
    )
    assert replicated.fingerprint() == base.fingerprint()
    assert replicated.replication_factor == 3
    assert dict(replicated.replication_stats)["deltas_shipped"] > 0
    assert replicated.invariant_violations == ()


def test_shape_contention_aborts_rise_with_load():
    records = rate_sweep(jobs=1)
    assert records[0]["abort_rate"] <= records[-1]["abort_rate"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
