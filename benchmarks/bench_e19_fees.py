"""E19 — fee markets: sealing policy × adversarial congestion.

PR 10 prices the market's block space: deals co-sign a ``fee_bid`` in
their order manifest (:mod:`repro.market.order`), every mempool sells
its slots through a pluggable sealing policy
(:mod:`repro.market.fees` — FIFO, pay-as-bid ``first_price``, or the
EIP-1559-style ``base_fee`` congestion controller), and the workload
generator fields adversarial congestion: spam floods homed on one
shard, fee-sniping brokers that outbid honest deals' escrow steps
mid-protocol, and cross-shard starvation rings whose assets all live
on the congested shard.  E19 measures what the pricing buys and holds
it to the safety line:

* a **policy × congestion sweep**: each sealing policy against each
  congestion scenario (clean / spam / snipe / full), reporting honest
  commits, honest p99 commit latency, fee units accrued, deals
  fee-priced-out, and invariant violations;
* a **fee conformance gate**: the full congestion profile (spam flood
  + fee snipers + starvation rings at 2 shards, with the congested
  shard's block cap squeezed via ``shard_block_caps``) must commit at
  least 1,000 sufficiently-funded honest deals (quick: 25) under each
  priority policy, with **zero** conservation violations under every
  sealing policy, no stuck deals, honest commit latency bounded
  relative to the FIFO baseline, and — under ``base_fee`` — the
  freeloading spam measurably priced out (a reported outcome, like
  §5's sore losers, never a violation).

Fees are §9-style priority units, not token transfers, so every
conservation invariant is policy-independent by construction — the
gate verifies the construction.  Every column is a deterministic
seeded simulation quantity; CI compares serial vs ``--jobs 2`` output
with ``cmp``.  That the default FIFO policy builds exactly the fee-less
market is tier-1's (``tests/market/test_fees.py``).

Usage::

    python benchmarks/bench_e19_fees.py [--quick] [--jobs N]
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import partial

import market_experiment
from market_experiment import Column, run_market, run_sweep, safety_failures
from repro.market import MarketConfig, MarketReport
from repro.market.fees import SEAL_POLICIES
from repro.workloads.market import MarketProfile

# Congestion scenario -> what it switches off in the full congested profile.
SCENARIOS = {
    "clean": dict(spam_deals=0, snipe_rate=0.0, starve_rate=0.0),
    "spam": dict(snipe_rate=0.0, starve_rate=0.0),
    "snipe": dict(spam_deals=0, starve_rate=0.0),
    "full": {},
}

#: The congested shard's squeezed block cap (global cap stays 512):
#: heterogeneous per-shard block space is what makes the spam flood
#: *bind* — without it the default cap absorbs the whole burst.
GATE_CAPS = {"quick": 32, "full": 64}


def scenario_profile(scenario: str, quick: bool) -> MarketProfile:
    """The congestion scenario's workload (always fee-priced)."""
    base = (
        MarketProfile.congested_smoke(seed=43)
        if quick
        else MarketProfile.congested(seed=43, deals=1_200)
    )
    return replace(base, **SCENARIOS[scenario])


def fee_config(policy: str, quick: bool) -> MarketConfig:
    """The run config: sealing policy + squeezed congested-shard cap.

    FIFO still gets the squeezed cap (congestion must bind for every
    policy or the comparison is vacuous); only ``seal_policy`` varies.
    """
    cap = GATE_CAPS["quick" if quick else "full"]
    return MarketConfig(seal_policy=policy, shard_block_caps={0: cap})


def honest_outcomes(report: MarketReport, profile: MarketProfile) -> dict:
    """Outcome counts for the *honest* slice of the order stream.

    Honest deals occupy indices ``[0, profile.deals)``; spam and
    sniper orders are appended after.  Every honest deal under the
    congested profiles bids at least 1 fee unit (``deal_fee_budget``'s
    floor), i.e. is *sufficiently funded* — its bid can always meet
    the base-fee floor, so fee pressure may delay it but never evict
    it.
    """
    committed = aborted = 0
    latencies = []
    for index, _protocol, outcome, _reason, latency in report.outcome_log:
        if index >= profile.deals:
            continue
        if outcome == "committed":
            committed += 1
            latencies.append(latency)
        elif outcome == "aborted":
            aborted += 1
    latencies.sort()
    p99 = (
        latencies[max(0, int(len(latencies) * 0.99) - 1)]
        if latencies
        else 0.0
    )
    return {
        "honest_committed": committed,
        "honest_aborted": aborted,
        "honest_p99": p99,
    }


def fee_point(
    point: tuple[str, str], quick: bool = False
) -> tuple[MarketReport, dict]:
    """One (policy, scenario) run and its honest outcomes."""
    policy, scenario = point
    profile = scenario_profile(scenario, quick)
    report = run_market(profile, fee_config(policy, quick))
    return report, {
        "policy": policy, "scenario": scenario,
        **honest_outcomes(report, profile),
    }


SWEEP_COLUMNS = (
    Column("policy", "policy"),
    Column("congestion", "scenario"),
    Column("committed", "committed"),
    Column("honest ok", "honest_committed"),
    Column("honest abort", "honest_aborted"),
    Column("honest p99", "honest_p99", "{:.2f}"),
    Column("priced out", "fee_priced_out"),
    Column("fees", "fees_accrued"),
    Column("violations", "violations"),
)


def fee_sweep(jobs: int | None = None, quick: bool = False) -> tuple[list[dict], str]:
    """The policy × scenario grid's records and table."""
    points = [
        (policy, scenario)
        for policy in SEAL_POLICIES
        for scenario in SCENARIOS
    ]
    profile = scenario_profile("full", quick)
    return run_sweep(
        points, partial(fee_point, quick=quick), SWEEP_COLUMNS,
        f"E19 — sealing policy × congestion ({profile.deals} honest "
        f"deals + {profile.spam_deals} spam, {profile.shards} shards, "
        f"congested-shard cap {GATE_CAPS['quick' if quick else 'full']})",
        jobs,
    )


# ----------------------------------------------------------------------
# Fee conformance gate
# ----------------------------------------------------------------------
def gate_runs(quick: bool = False) -> dict[str, tuple[MarketReport, dict]]:
    """The full congestion profile under every sealing policy."""
    return {policy: fee_point((policy, "full"), quick) for policy in SEAL_POLICIES}


def check_gate(
    runs: dict[str, tuple[MarketReport, dict]], quick: bool = False
) -> list[str]:
    """The E19 acceptance criteria; returns failures (empty = pass).

    * zero conservation violations and zero stuck deals under *every*
      sealing policy (safety is fee-schedule-independent);
    * each priority policy commits the funded floor of honest deals
      (1,000 full / 25 quick) under the full spam + snipe + starve
      congestion;
    * funded honest p99 commit latency under a priority policy stays
      within 3x the FIFO baseline + 5 ticks (fees buy priority; they
      must not cost unbounded delay);
    * ``base_fee`` prices out the freeloading spam (bid 0 < floor) —
      and *only* prices deals out as a measured outcome: those deals
      are aborted, not stuck, which the stuck check already proves.
    """
    floor = 25 if quick else 1_000
    failures = []
    fifo_p99 = runs["fifo"][1]["honest_p99"]
    for policy, (report, honest) in runs.items():
        failures += safety_failures(report, prefix=f"{policy}: ")
        if policy == "fifo":
            continue
        if honest["honest_committed"] < floor:
            failures.append(
                f"{policy}: honest committed {honest['honest_committed']} "
                f"< {floor}"
            )
        bound = 3.0 * fifo_p99 + 5.0
        if honest["honest_p99"] > bound:
            failures.append(
                f"{policy}: honest p99 {honest['honest_p99']:.2f} > "
                f"{bound:.2f} (3x fifo + 5)"
            )
        if report.fees_accrued <= 0:
            failures.append(f"{policy}: no fees accrued under congestion")
    if runs["base_fee"][0].fee_priced_out == 0:
        failures.append("base_fee: freeloading spam was never priced out")
    if runs["fifo"][0].fee_priced_out != 0:
        failures.append("fifo: priced out deals under the FIFO policy")
    return failures


def gate_table(
    runs: dict[str, tuple[MarketReport, dict]], failures: list[str], quick: bool
) -> str:
    profile = scenario_profile("full", quick)
    rows = []
    for policy, (report, honest) in runs.items():
        rows.append([f"{policy}: honest committed", honest["honest_committed"]])
        rows.append(
            [f"{policy}: honest p99 (ticks)", f"{honest['honest_p99']:.2f}"]
        )
        rows.append([f"{policy}: deals fee-priced-out", report.fee_priced_out])
        rows.append([f"{policy}: fee units accrued", report.fees_accrued])
        rows.append(
            [f"{policy}: invariant violations",
             len(report.invariant_violations)]
        )
        rows.append([f"{policy}: fingerprint", report.fingerprint()])
    return market_experiment.gate_table(
        f"E19 — fee conformance gate ({profile.deals} honest deals + "
        f"{profile.spam_deals} spam + snipers + starvation rings, "
        f"{profile.shards} shards)", rows, failures,
    )


def experiment(
    quick: bool = False, jobs: int | None = None
) -> tuple[list[str], list[str], str]:
    runs = gate_runs(quick=quick)
    failures = check_gate(runs, quick=quick)
    tables = [
        gate_table(runs, failures, quick),
        fee_sweep(jobs=jobs, quick=quick)[1],
    ]
    base_report, base_honest = runs["base_fee"]
    return tables, failures, (
        f"E19 acceptance: {base_honest['honest_committed']} funded honest "
        "commits under spam + snipers + starvation at base-fee pricing, "
        f"{base_report.fee_priced_out} freeloaders priced out "
        "(measured outcome), 0 conservation violations under every "
        "sealing policy"
    )


def make_report(jobs: int | None = None, quick: bool = False) -> str:
    return "\n".join(experiment(quick=quick, jobs=jobs)[0])


def main(argv: list[str]) -> int:
    return market_experiment.main(argv, __doc__, experiment)


# ----------------------------------------------------------------------
# Shape checks (run with the benchmark suite, not tier-1)
# ----------------------------------------------------------------------
def test_shape_gate_passes_quick():
    assert check_gate(gate_runs(quick=True), quick=True) == []


def test_shape_priority_outcommits_fifo_under_spam():
    fifo, fifo_honest = fee_point(("fifo", "spam"), quick=True)
    priced, priced_honest = fee_point(("first_price", "spam"), quick=True)
    assert priced.invariant_violations == () == fifo.invariant_violations
    assert priced_honest["honest_committed"] >= fifo_honest["honest_committed"]


def test_shape_base_fee_prices_out_freeloaders_only():
    report, _ = fee_point(("base_fee", "spam"), quick=True)
    profile = scenario_profile("spam", True)
    assert 0 < report.fee_priced_out <= profile.spam_deals
    assert report.stuck == 0 and report.invariant_violations == ()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
