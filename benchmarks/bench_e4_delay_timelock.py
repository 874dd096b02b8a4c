"""E4 — Figure 7, Timelock row: phase delays in Δ units.

Paper: escrow Δ; transfer tΔ (or Δ concurrent); validation Δ; commit
O(n)Δ with incentive-minimal vote forwarding, Δ if parties send votes
everywhere directly (the ablation the paper calls out in §7.2); abort
by timeout at t0 + N·Δ, i.e. O(n)Δ.
"""

from repro.adversary.strategies import NoVoteParty
from repro.analysis.sweep import fit_linear_slope, run_deal, sweep
from repro.analysis.tables import format_float, render_table
from repro.analysis.timing import commit_latency_in_delta, phase_delays_in_delta
from repro.core.config import ProtocolKind
from repro.core.executor import auto_config
from repro.workloads.generators import ring_deal

N_VALUES = [3, 5, 7, 9]


def record_for_n(n: int, altruistic: bool = False) -> dict:
    spec, keys = ring_deal(n=n)
    config = auto_config(spec, ProtocolKind.TIMELOCK, altruistic_votes=altruistic)
    result = run_deal(spec, keys, ProtocolKind.TIMELOCK, config=config, seed=n)
    assert result.all_committed()
    delays = phase_delays_in_delta(result)
    return {
        "x": n,
        "escrow": delays.escrow,
        "transfer": delays.transfer,
        "validation": delays.validation,
        "commit": delays.commit,
    }


def abort_record_for_n(n: int) -> dict:
    """Time for a deal starved of one vote to refund, in Δ units."""
    spec, keys = ring_deal(n=n)
    result = run_deal(
        spec, keys, ProtocolKind.TIMELOCK, seed=n, strategies={"p0": NoVoteParty}
    )
    assert result.all_refunded()
    config = result.config
    refund_times = [
        receipt.executed_at
        for receipt in result.receipts
        if receipt.ok and receipt.tx.method == "refund"
    ]
    return {
        "x": n,
        "abort_delta": (max(refund_times) - config.t0) / config.delta,
        "terminal_deadline_delta": float(n),  # contract rule: t0 + NΔ
    }


def make_report() -> str:
    lazy = sweep(N_VALUES, record_for_n)
    eager = sweep(N_VALUES, lambda n: record_for_n(n, altruistic=True))
    aborts = sweep(N_VALUES, abort_record_for_n)
    lines = [
        render_table(
            ["n", "escrow/Δ", "transfer/Δ", "validation/Δ", "commit/Δ"],
            [[r["x"], format_float(r["escrow"]), format_float(r["transfer"]),
              format_float(r["validation"]), format_float(r["commit"])] for r in lazy],
            title="Figure 7 (Timelock) — forwarded votes: commit grows O(n)Δ",
        ),
        "",
        render_table(
            ["n", "commit/Δ"],
            [[r["x"], format_float(r["commit"])] for r in eager],
            title="Ablation — altruistic direct votes: commit stays ~Δ",
        ),
        "",
        render_table(
            ["n", "abort settled at (t-t0)/Δ", "contract deadline N·Δ/Δ"],
            [[r["x"], format_float(r["abort_delta"]),
              format_float(r["terminal_deadline_delta"])] for r in aborts],
            title="Abort by timeout: O(n)Δ",
        ),
    ]
    slope = fit_linear_slope([r["x"] for r in lazy], [r["commit"] for r in lazy])
    lines.append("")
    lines.append(f"forwarded-commit latency slope: {slope:.2f} Δ per party (paper: O(n)Δ)")
    return "\n".join(lines)


def test_bench_delay_n7(once):
    record = once(record_for_n, 7)
    assert record["commit"] is not None


def test_shape_commit_linear_in_n_when_forwarding():
    records = sweep(N_VALUES, record_for_n)
    commits = [r["commit"] for r in records]
    assert all(a < b for a, b in zip(commits, commits[1:]))
    slope = fit_linear_slope([r["x"] for r in records], commits)
    assert slope > 0.1


def test_shape_commit_constant_when_altruistic():
    records = sweep(N_VALUES, lambda n: record_for_n(n, altruistic=True))
    commits = [r["commit"] for r in records]
    assert max(commits) <= 2 * min(commits) + 1e-9


def test_shape_other_phases_within_delta():
    for record in sweep(N_VALUES, record_for_n):
        assert record["escrow"] <= 1.0
        assert record["validation"] <= 1.0


def test_shape_abort_tracks_terminal_deadline():
    records = sweep(N_VALUES, abort_record_for_n)
    for record in records:
        # Refund lands shortly after the t0 + N·Δ deadline.
        assert record["abort_delta"] >= record["terminal_deadline_delta"]
        assert record["abort_delta"] <= record["terminal_deadline_delta"] + 3
    print()
    print(make_report())


if __name__ == "__main__":
    print(make_report())
