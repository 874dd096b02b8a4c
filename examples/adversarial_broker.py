"""Adversarial commerce in action: deviating counterparties.

The paper's core safety claim (Property 1) is *local and selfish*:
a compliant party ends up no worse off no matter how others behave.
This example runs the ticket-broker deal against a gallery of
deviations — a buyer who never votes, a seller who walks away, a
broker who short-changes — under both commit protocols, and shows the
compliant parties' verdicts each time.

Run:  python examples/adversarial_broker.py
"""

from repro import ProtocolKind, ticket_broker_deal
from repro.adversary.strategies import (
    CrashAfterEscrowParty,
    NoVoteParty,
    ShortChangeParty,
    WalkAwayParty,
)
from repro.analysis.sweep import run_case
from repro.analysis.tables import render_table

SCENARIOS = [
    ("honest run", {}),
    ("Carol never votes", {"carol": NoVoteParty}),
    ("Bob walks away", {"bob": WalkAwayParty}),
    ("Alice short-changes Bob", {"alice": ShortChangeParty}),
    ("Bob crashes after escrow", {"bob": CrashAfterEscrowParty}),
    ("Bob AND Carol misbehave", {"bob": NoVoteParty, "carol": WalkAwayParty}),
]


def run_scenario(assignment: dict, kind: ProtocolKind):
    spec, keys = ticket_broker_deal()
    report, result = run_case(spec, keys, kind, assignment, seed=1)
    if result.all_committed():
        outcome = "committed"
    elif result.all_refunded():
        outcome = "all refunded"
    else:
        outcome = "mixed: " + "/".join(s.value for s in result.escrow_states.values())
    return outcome, report


def main() -> None:
    for kind in (ProtocolKind.TIMELOCK, ProtocolKind.CBC):
        rows = []
        for name, assignment in SCENARIOS:
            outcome, report = run_scenario(assignment, kind)
            rows.append(
                [
                    name,
                    outcome,
                    "OK" if report.safety_ok else "VIOLATED",
                    "OK" if report.weak_liveness_ok else "VIOLATED",
                ]
            )
        print(
            render_table(
                ["scenario", "outcome", "safety (compliant)", "no locked assets"],
                rows,
                title=f"=== {kind.value} protocol ===",
            )
        )
        print()
    print(
        "Every row shows 'OK': whatever the deviators do, compliant parties\n"
        "either complete the exchange or keep (recover) what they started with."
    )


if __name__ == "__main__":
    main()
