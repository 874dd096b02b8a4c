"""E10 — §7.1: "in the worst case, aborting can cost almost as much
as committing" (timelock).

A timelock deal that aborts after v of n votes were cast (and
forwarded) has already paid for those votes' signature verifications;
only the missing votes are saved.  We sweep v from 0 (best case: a
deal nobody voted on aborts with zero signature checks) to n-1 (worst
case) and compare against the full commit bill.
"""

from repro.adversary.strategies import NoVoteParty
from repro.analysis.costs import commit_signature_verifications
from repro.analysis.sweep import run_deal, sweep
from repro.analysis.tables import render_table
from repro.core.config import ProtocolKind
from repro.workloads.generators import clique_deal

N = 5
VOTERS = list(range(N))  # number of parties that vote before the abort


def abort_record(voters: int) -> dict:
    """Run a clique deal where only the first ``voters`` parties vote."""
    spec, keys = clique_deal(n=N, chains=1)
    silent = sorted(keys)[voters:]
    result = run_deal(
        spec, keys, ProtocolKind.TIMELOCK, seed=voters,
        strategies={label: NoVoteParty for label in silent},
    )
    assert result.all_refunded()
    gas = result.gas_by_phase()
    return {
        "x": voters,
        "sigver": commit_signature_verifications(result),
        "abort_writes": gas.get("abort", None).sstore if "abort" in gas else 0,
    }


def commit_record() -> dict:
    spec, keys = clique_deal(n=N, chains=1)
    result = run_deal(spec, keys, ProtocolKind.TIMELOCK)
    assert result.all_committed()
    return {"sigver": commit_signature_verifications(result)}


def make_report() -> str:
    aborts = sweep(VOTERS, abort_record)
    commit = commit_record()
    rows = [
        [r["x"], r["sigver"], f"{r['sigver'] / commit['sigver']:.0%}"]
        for r in aborts
    ]
    rows.append(["commit (all vote)", commit["sigver"], "100%"])
    return render_table(
        ["votes cast before abort", "sig.ver paid", "fraction of commit cost"],
        rows,
        title="E10 — timelock abort cost vs votes already cast (n=5 clique)",
    )


def test_bench_worst_case_abort(once):
    record = once(abort_record, N - 1)
    assert record["sigver"] > 0


def test_shape_best_case_abort_is_free():
    record = abort_record(0)
    assert record["sigver"] == 0


def test_shape_abort_cost_monotone_in_votes():
    records = sweep(VOTERS, abort_record)
    costs = [r["sigver"] for r in records]
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_shape_worst_case_near_commit_cost():
    worst = abort_record(N - 1)["sigver"]
    full = commit_record()["sigver"]
    # "aborting can cost almost as much as committing": within ~n of
    # the full bill on a clique (only the last direct votes saved).
    assert worst >= 0.6 * full
    print()
    print(make_report())


if __name__ == "__main__":
    print(make_report())
