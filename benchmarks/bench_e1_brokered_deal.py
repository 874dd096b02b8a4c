"""E1 — the paper's running example (Figure 1 matrix, Figure 2 digraph).

Reproduces: the ticket-broker deal executes end-to-end under both
commit protocols; the deal matrix and digraph round-trip; the digraph
is strongly connected.

Run directly to print the Figure 1 matrix and the outcome summary:

    python benchmarks/bench_e1_brokered_deal.py
"""

from repro.analysis.sweep import run_deal
from repro.analysis.tables import render_matrix, render_table
from repro.core.config import ProtocolKind
from repro.core.deal import deal_digraph, is_strongly_connected
from repro.core.outcomes import evaluate_outcome
from repro.workloads.scenarios import ticket_broker_deal


def run_example(kind: ProtocolKind):
    spec, keys = ticket_broker_deal()
    result = run_deal(spec, keys, kind)
    return spec, keys, result


def make_report() -> str:
    spec, _ = ticket_broker_deal()
    lines = [render_matrix(spec, title="Figure 1 — Alice, Bob, and Carol's deal"), ""]
    graph = deal_digraph(spec)
    arcs = sum(len(receivers) for receivers in graph.values())
    lines.append(
        f"Figure 2 — digraph: {len(graph)} parties, {arcs} arcs, "
        f"strongly connected: {is_strongly_connected(graph)}"
    )
    rows = []
    for kind in (ProtocolKind.TIMELOCK, ProtocolKind.CBC):
        _, _, result = run_example(kind)
        report = evaluate_outcome(result)
        rows.append(
            [
                kind.value,
                "all committed" if result.all_committed() else "NOT committed",
                "yes" if report.safety_ok else "NO",
                "yes" if report.strong_liveness_ok else "NO",
            ]
        )
    lines.append("")
    lines.append(
        render_table(
            ["protocol", "outcome", "safety (P1)", "strong liveness (P3)"],
            rows,
            title="Running example under both protocols",
        )
    )
    return "\n".join(lines)


def test_bench_timelock_run(once):
    _, _, result = once(run_example, ProtocolKind.TIMELOCK)
    assert result.all_committed()


def test_bench_cbc_run(once):
    _, _, result = once(run_example, ProtocolKind.CBC)
    assert result.all_committed()


def test_shape_matrix_and_digraph():
    spec, keys = ticket_broker_deal()
    graph = deal_digraph(spec)
    assert is_strongly_connected(graph)
    assert sum(len(receivers) for receivers in graph.values()) == 4
    report = make_report()
    assert "101 coins" in report and "100 coins" in report
    print()
    print(report)


if __name__ == "__main__":
    print(make_report())
