"""E5 — Figure 7, CBC row: commit O(1)Δ; abort by per-party timeout.

Paper: all conforming parties send votes to the CBC in parallel, so
the commit phase costs O(1)Δ regardless of n — against the timelock's
O(n)Δ.  Aborts happen when a party's patience expires (per-party
timeout), and the outcome is uniform across chains.
"""

from repro.adversary.strategies import NoVoteParty
from repro.analysis.sweep import fit_linear_slope, run_deal, sweep
from repro.analysis.tables import format_float, render_table
from repro.analysis.timing import phase_delays_in_delta
from repro.core.config import ProtocolKind
from repro.core.escrow import EscrowState
from repro.workloads.generators import ring_deal

N_VALUES = [3, 5, 7, 9]


def record_for_n(n: int) -> dict:
    spec, keys = ring_deal(n=n)
    result = run_deal(spec, keys, ProtocolKind.CBC, validators_f=1, seed=n)
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
    spec, keys = ring_deal(n=n)
    result = run_deal(spec, keys, ProtocolKind.CBC, seed=n, strategies={"p0": NoVoteParty})
    assert result.all_refunded()
    config = result.config
    refund_times = [
        receipt.executed_at
        for receipt in result.receipts
        if receipt.ok and receipt.tx.method == "abort"
    ]
    return {
        "x": n,
        "abort_after_patience_delta": (max(refund_times) - config.patience) / config.delta,
        "uniform": len(set(result.escrow_states.values())) == 1,
    }


def make_report() -> str:
    commits = sweep(N_VALUES, record_for_n)
    aborts = sweep(N_VALUES, abort_record_for_n)
    lines = [
        render_table(
            ["n", "escrow/Δ", "transfer/Δ", "validation/Δ", "commit/Δ"],
            [[r["x"], format_float(r["escrow"]), format_float(r["transfer"]),
              format_float(r["validation"]), format_float(r["commit"])] for r in commits],
            title="Figure 7 (CBC) — commit O(1)Δ regardless of n",
        ),
        "",
        render_table(
            ["n", "refund after patience (Δ)", "uniform outcome"],
            [[r["x"], format_float(r["abort_after_patience_delta"]),
              "yes" if r["uniform"] else "NO"] for r in aborts],
            title="Abort via per-party timeout (patience), uniform everywhere",
        ),
    ]
    slope = fit_linear_slope([r["x"] for r in commits], [r["commit"] for r in commits])
    lines.append("")
    lines.append(f"CBC commit latency slope: {slope:.3f} Δ per party (paper: ~0, O(1)Δ)")
    return "\n".join(lines)


def test_bench_cbc_delay_n7(once):
    record = once(record_for_n, 7)
    assert record["commit"] is not None


def test_shape_commit_constant_in_n():
    records = sweep(N_VALUES, record_for_n)
    commits = [r["commit"] for r in records]
    assert max(commits) <= 2 * min(commits) + 1e-9
    slope = fit_linear_slope([r["x"] for r in records], commits)
    assert abs(slope) < 0.2


def test_shape_cbc_commit_beats_timelock_at_scale():
    n = 9
    spec, keys = ring_deal(n=n)
    cbc = run_deal(spec, keys, ProtocolKind.CBC, validators_f=1, seed=n)
    spec2, keys2 = ring_deal(n=n)
    timelock = run_deal(spec2, keys2, ProtocolKind.TIMELOCK, seed=n)
    cbc_commit = phase_delays_in_delta(cbc).commit
    tl_commit = phase_delays_in_delta(timelock).commit
    assert cbc_commit < tl_commit


def test_shape_aborts_uniform_and_prompt():
    records = sweep(N_VALUES, abort_record_for_n)
    for record in records:
        assert record["uniform"]
        assert 0 <= record["abort_after_patience_delta"] <= 4
    print()
    print(make_report())


if __name__ == "__main__":
    print(make_report())
