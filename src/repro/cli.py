"""Command-line interface: run deals and adversarial sweeps.

Usage (after ``pip install -e .``)::

    python -m repro run --workload broker --protocol timelock
    python -m repro run --workload ring --n 6 --protocol cbc --f 2
    python -m repro gauntlet --deals 2
    python -m repro attack --alpha 0.3 --depths 0 1 2 4
    python -m repro trace-summary trace.jsonl --top 5 --chrome out.json

Exit status is 0 iff every property the run was supposed to satisfy
held, so the CLI can gate CI jobs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.adversary.mining import attack_success_rate
from repro.adversary.strategies import gauntlet_cases
from repro.analysis.sweep import run_case
from repro.analysis.tables import format_float, render_matrix, render_table
from repro.analysis.timing import phase_delays_in_delta
from repro.core.config import ProtocolKind
from repro.core.executor import auto_config
from repro.crypto.keys import KeyPair
from repro.workloads.generators import (
    brokered_deal,
    clique_deal,
    random_well_formed_deal,
    ring_deal,
)
from repro.workloads.scenarios import auction_deal, ticket_broker_deal

PROTOCOLS = {kind.value: kind for kind in ProtocolKind}


def _make_workload(args) -> tuple:
    if args.workload == "broker":
        return ticket_broker_deal()
    if args.workload == "ring":
        return ring_deal(n=args.n)
    if args.workload == "clique":
        return clique_deal(n=args.n)
    if args.workload == "brokered":
        return brokered_deal(pairs=max(1, args.n // 2))
    if args.workload == "auction":
        spec, keys, _winner = auction_deal()
        return spec, keys
    if args.workload == "random":
        return random_well_formed_deal(seed=args.seed, n=args.n)
    raise SystemExit(f"unknown workload {args.workload!r}")


def cmd_run(args) -> int:
    """Run one deal and print matrix, outcome, gas, and delays."""
    spec, keys = _make_workload(args)
    kind = PROTOCOLS[args.protocol]
    config = auto_config(spec, kind, altruistic_votes=args.altruistic)
    if args.batch_votes:
        config = replace(config, batch_vote_verification=True)
    report, result = run_case(
        spec,
        keys,
        kind,
        seed=args.seed,
        config=config,
        validators_f=args.f,
        reconfigurations=args.reconfigurations,
        gst=args.gst,
    )

    print(render_matrix(spec, title=f"Deal ({spec.n_parties} parties, "
                                    f"{spec.m_assets} assets, {spec.t_transfers} transfers)"))
    print()
    print(f"protocol        : {kind.value}")
    print(f"outcome         : "
          f"{'all committed' if result.all_committed() else ('all refunded' if result.all_refunded() else 'mixed')}")
    print(f"safety (P1)     : {report.safety_ok}")
    print(f"weak liveness   : {report.weak_liveness_ok}")
    print(f"strong liveness : {report.strong_liveness_ok}")
    gas_rows = []
    for phase, breakdown in sorted(result.gas_by_phase().items()):
        gas_rows.append([phase, breakdown.sstore, breakdown.sig_verify, breakdown.total])
    print()
    print(render_table(["phase", "writes", "sig.ver", "gas"], gas_rows, title="Gas by phase"))
    delays = phase_delays_in_delta(result)
    print()
    print(render_table(
        ["escrow/Δ", "transfer/Δ", "validation/Δ", "commit/Δ"],
        [[format_float(delays.escrow), format_float(delays.transfer),
          format_float(delays.validation), format_float(delays.commit)]],
        title="Phase delays",
    ))
    ok = report.safety_ok and report.weak_liveness_ok and (
        report.strong_liveness_ok is not False
    )
    return 0 if ok else 1


def cmd_gauntlet(args) -> int:
    """Run the adversarial strategy grid and print the tally."""
    cases = gauntlet_cases(range(args.deals))
    violations = 0
    for case in cases:
        report, _ = case.run()
        if not (report.safety_ok and report.weak_liveness_ok):
            violations += 1
            deviator = next(v.label for v in report.verdicts.values() if not v.compliant)
            print(f"VIOLATION: {case.strategy}@{deviator} under {case.kind.value}")
    print(f"{len(cases)} adversarial cases, {violations} violations")
    return 0 if violations == 0 else 1


def cmd_attack(args) -> int:
    """Sweep the §6.2 PoW fake-proof attack success rate."""
    keys = [KeyPair.from_label(f"cli-{i}") for i in range(3)]
    plist = tuple(kp.address for kp in keys)
    rows = []
    for depth in args.depths:
        rate = attack_success_rate(
            b"cli-deal" + b"\x00" * 24, plist, plist[0],
            alpha=args.alpha, confirmations=depth, trials=args.trials,
        )
        rows.append([depth, f"{rate:.3f}"])
    print(render_table(
        ["confirmations", "success rate"],
        rows,
        title=f"PoW fake-proof attack, attacker share {args.alpha}",
    ))
    return 0


def cmd_trace_summary(args) -> int:
    """Summarize a deal-lifecycle trace written by ``--trace``."""
    from repro.telemetry.export import load_trace, summarize, write_chrome_trace

    records = load_trace(args.file)
    if not records:
        print(f"no trace records in {args.file}")
        return 1
    print(summarize(records, top=args.top))
    if args.chrome:
        events = write_chrome_trace(records, args.chrome)
        print(f"wrote {events} Chrome trace events to {args.chrome}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-chain deals (Herlihy/Liskov/Shrira VLDB'19) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one deal")
    run.add_argument("--workload", default="broker",
                     choices=["broker", "ring", "clique", "brokered", "auction", "random"])
    run.add_argument("--protocol", default="timelock", choices=sorted(PROTOCOLS))
    run.add_argument("--n", type=int, default=4, help="parties (where applicable)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--f", type=int, default=1, help="CBC validator fault tolerance")
    run.add_argument("--reconfigurations", type=int, default=0)
    run.add_argument("--gst", type=float, default=0.0,
                     help="global stabilization time (0 = synchronous)")
    run.add_argument("--altruistic", action="store_true",
                     help="send timelock votes to every contract directly")
    run.add_argument("--batch-votes", action="store_true",
                     help="batch-verify timelock vote paths (§9 ablation)")
    run.set_defaults(func=cmd_run)

    gauntlet = sub.add_parser("gauntlet", help="adversarial strategy sweep")
    gauntlet.add_argument("--deals", type=int, default=2, help="random deals per protocol")
    gauntlet.set_defaults(func=cmd_gauntlet)

    attack = sub.add_parser("attack", help="PoW fake-proof attack sweep")
    attack.add_argument("--alpha", type=float, default=0.3)
    attack.add_argument("--depths", type=int, nargs="+", default=[0, 1, 2, 4])
    attack.add_argument("--trials", type=int, default=100)
    attack.set_defaults(func=cmd_attack)

    trace = sub.add_parser(
        "trace-summary",
        help="summarize a deal-lifecycle trace (JSONL from --trace)",
    )
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument("--top", type=int, default=5,
                       help="slowest committed deals to detail")
    trace.add_argument("--chrome", metavar="OUT", default=None,
                       help="also convert to Chrome trace_event JSON "
                            "(load in chrome://tracing or Perfetto)")
    trace.set_defaults(func=cmd_trace_summary)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
