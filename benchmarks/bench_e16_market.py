"""E16 — the concurrent deal market: throughput, latency, abort rates.

The paper specifies its protocols per deal; the ROADMAP's north star
is heavy traffic.  E16 measures the gap-closer: the
:mod:`repro.market` runtime drives thousands of deals concurrently
over four shared chains — per-chain mempools, whole-block order
verification through the simulator's ``chain.ledger.VerifyAggregator``
(one ``schnorr.batch_verify_many`` per simulated instant), one escrow
book per chain, one commit log per coordinator shard,
first-committed-wins conflict resolution (within a book and across
books).

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
                                          [--exec {inline,processes}]
                                          [--trace OUT]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import partial

import market_experiment
from market_experiment import Column, run_market, run_sweep, safety_failures
from repro.analysis.tables import render_table
from repro.market import MarketConfig, MarketReport
from repro.workloads.market import MarketProfile

RATE_SWEEP = [2.0, 6.0, 12.0]
SHARD_SWEEP = [1, 2, 4]

_SWEEP_BASE = MarketProfile(
    deals=400, chains=4, accounts=24, initial_balance=1_800, seed=7
)


# ----------------------------------------------------------------------
# Arrival-rate sweep
# ----------------------------------------------------------------------
RATE_COLUMNS = (
    Column("arrivals/tick", "x", "{:.0f}"),
    Column("committed", "committed"),
    Column("conflicts", "conflicts"),
    Column("abort rate", "abort_rate", "{:.1%}"),
    Column("p50 (ticks)", "latency_p50", "{:.2f}"),
    Column("p99 (ticks)", "latency_p99", "{:.2f}"),
    Column("deals/kilotick", "deals_per_kilotick", "{:.1f}"),
)


def rate_point(rate: float, base: MarketProfile) -> tuple[MarketReport, dict]:
    return run_market(replace(base, arrival_rate=rate)), {}


def rate_sweep(
    jobs: int | None = None, quick: bool = False, base: MarketProfile | None = None
) -> tuple[list[dict], str]:
    """The load sweep's records and table (``base`` overrides the profile)."""
    if base is None:
        base = replace(_SWEEP_BASE, deals=80) if quick else _SWEEP_BASE
    return run_sweep(
        RATE_SWEEP, partial(rate_point, base=base), RATE_COLUMNS,
        f"E16 — load sweep ({base.deals} deals, {base.chains} chains, "
        "shared accounts)", jobs,
    )


# ----------------------------------------------------------------------
# Shard sweep (cross-market sharding + aggregator merge evidence)
# ----------------------------------------------------------------------
# The shared VerifyAggregator's counters are absent from
# MarketReport.render() by design (they say how signature checks were
# batched, not what happened to any deal); this table is where they
# enter the experiment report that run_all.py serializes.
SHARD_COLUMNS = (
    Column("shards", "x"),
    Column("committed", "committed"),
    Column("cross-shard", "cross_shard_deals"),
    Column("cross %", "cross_shard_fraction", "{:.1%}"),
    Column("agg batches", "verify.batches"),
    Column("agg merged", "verify.merged_batches"),
    Column("merge rate", "aggregator_merge_rate", "{:.1%}"),
    Column("violations", "violations"),
)


def shard_point(shards: int, deals: int) -> tuple[MarketReport, dict]:
    return run_market(MarketProfile.sharded(seed=11, shards=shards, deals=deals)), {}


def shard_sweep(jobs: int | None = None, quick: bool = False) -> tuple[list[dict], str]:
    deals = 80 if quick else 400
    return run_sweep(
        SHARD_SWEEP, partial(shard_point, deals=deals), SHARD_COLUMNS,
        f"E16 — cross-market sharding ({deals} deals, 4 chains, "
        "shared VerifyAggregator)", jobs,
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
    coverage: float | None  # --trace: share of commits with a full span chain


def gate_run(
    quick: bool = False,
    mixed: bool = False,
    shards: int = 1,
    exec_backend: str = "inline",
    trace: str | None = None,
) -> GateRun:
    """The acceptance run; ``trace`` names the JSONL file to write."""
    report, coverage = market_experiment.traced_run(
        gate_profile(quick, mixed, shards), trace=trace, backend=exec_backend
    )
    return GateRun(report, quick, mixed, coverage)


def check_gate(run: GateRun) -> list[str]:
    """The E16 acceptance criteria; returns failures (empty = pass).

    * no stuck deal, zero conservation violations; with ``--shards
      M > 1`` >= 20% of deals cross-shard; with ``--trace`` >= 95% of
      committed deals carry a full span chain;
    * 5,000 of the headline's 5,600 deals commit; the mixed profile
      spawns 3,900, so its floor scales to the same ~85-89% bar, and
      each protocol commits >= 1,000; a quick profile (120-180 deals)
      commits 25, and 25 per protocol — enough to catch a market that
      stopped committing; sharded, the aggregator merge rate is > 0.
    """
    report, quick = run.report, run.quick
    failures = safety_failures(report)
    if report.shards > 1 and report.cross_shard_fraction < 0.20:
        failures.append(
            f"cross-shard fraction {report.cross_shard_fraction:.1%} < 20%"
        )
    if run.coverage is not None and run.coverage < 0.95:
        failures.append(f"trace coverage {run.coverage:.1%} < 95%")
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
    ``make_report``, whose bytes CI pins across commits.
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
    return market_experiment.gate_table(
        f"E16 — market conformance gate ({report.deals} deals, "
        f"{report.shards} shard(s))", rows, failures,
    )


def make_report(
    jobs: int | None = None,
    quick: bool = False,
    shards: int = 1,
    trace: str | None = None,
    exec_backend: str = "inline",
) -> str:
    # The axis flags apply to the headline run only (the tables sweep
    # their own axes); a trace lands silently — bytes are unchanged.
    headline = gate_run(
        quick=quick, shards=shards, exec_backend=exec_backend, trace=trace
    ).report
    return (
        headline.render()
        + "\n" + protocol_table(quick=quick)
        + "\n" + shard_sweep(jobs=jobs, quick=quick)[1]
        + "\n" + rate_sweep(jobs=jobs, quick=quick)[1]
    )


def experiment(
    quick: bool, jobs: int | None, mixed: bool, shards: int,
    exec_backend: str, trace: str | None,
) -> tuple[list[str], list[str], None]:
    axes = dict(quick=quick, mixed=mixed, shards=shards)
    run = gate_run(**axes, exec_backend=exec_backend, trace=trace)
    failures = check_gate(run)
    if (
        exec_backend == "processes"
        and gate_run(**axes).report.render() != run.report.render()
    ):
        # The equivalence gate: the same run inline (untraced) must
        # produce the identical report.
        failures.append("processes report differs from inline")
    tables = [
        run.report.render(),
        shard_sweep(jobs=jobs, quick=quick)[1],
        rate_sweep(jobs=jobs, quick=quick)[1],
        gate_table(run, failures),
    ]
    return tables, failures, None


def main(argv: list[str]) -> int:
    return market_experiment.main(argv, __doc__, experiment, {
        "--protocol-mix": dict(
            dest="mixed", action="store_true",
            help="run the mixed unanimity/timelock/CBC profile instead of "
                 "the unanimity headline"),
        "--shards": dict(
            type=int, default=1,
            help="coordinator shards for the headline run (>1 also gates "
                 "the cross-shard criteria)"),
        "--exec": dict(
            dest="exec_backend", default="inline", choices=("inline", "processes"),
            help="execution backend for the headline run; 'processes' (one "
                 "verify worker per shard) must reproduce the inline "
                 "report's bytes"),
        **market_experiment.TRACE,
    })


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
    records, _ = rate_sweep(jobs=1)
    assert records[0]["abort_rate"] <= records[-1]["abort_rate"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
