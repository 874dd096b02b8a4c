"""E7 — Theorems 5.1-5.3 and §6.1: the safety gauntlet.

Paper claims reproduced as measurements:

* **Safety (Thm 5.1 / §6.1)**: zero Property-1 violations for
  compliant parties across the full strategy × role × protocol grid
  on randomized deals;
* **Weak liveness (Thm 5.2)**: zero compliant assets locked at the
  end of any run;
* **Strong liveness (Thm 5.3)**: all-compliant runs always commit;
* **Uniformity (§6.1)**: CBC outcomes never split across chains —
  and, for contrast, the timelock protocol *does* split under the E9
  offline window (measured separately there).
"""

from repro.adversary.strategies import GauntletCase, gauntlet_cases
from repro.analysis.sweep import sweep_parallel
from repro.analysis.tables import render_table
from repro.core.config import ProtocolKind

DEAL_SEEDS = range(4)


def _case_tally(case: GauntletCase) -> dict:
    """Run one case and reduce it to its tally contribution."""
    report, result = case.run()
    return {
        "cases": 1,
        "safety_violations": 0 if report.safety_ok else 1,
        "liveness_violations": 0 if report.weak_liveness_ok else 1,
        "uniformity_violations": (
            1 if case.kind is ProtocolKind.CBC and not report.uniform_outcome else 0
        ),
        "committed": 1 if result.all_committed() else 0,
        "aborted": 0 if result.all_committed() else 1,
    }


def run_gauntlet(jobs: int | None = None) -> dict:
    """Run the full grid, fanned over worker processes.

    Every case is an independent seeded simulation, so the merged
    tallies are identical whatever the job count.  ``sweep_parallel``
    supplies the fan-out policy: ``jobs=None`` uses every CPU, and
    inside an already-parallel run (a daemonic pool worker, e.g.
    ``run_all.py --jobs``) it degrades to serial.
    """
    per_case = sweep_parallel(gauntlet_cases(DEAL_SEEDS), _case_tally, jobs=jobs)
    tallies = {
        "cases": 0,
        "safety_violations": 0,
        "liveness_violations": 0,
        "uniformity_violations": 0,
        "aborted": 0,
        "committed": 0,
    }
    for contribution in per_case:
        for key in tallies:
            tallies[key] += contribution[key]
    return tallies


def make_report() -> str:
    tallies = run_gauntlet()
    rows = [
        ["adversarial cases run", tallies["cases"]],
        ["Property 1 (safety) violations", tallies["safety_violations"]],
        ["Property 2 (weak liveness) violations", tallies["liveness_violations"]],
        ["CBC uniformity violations", tallies["uniformity_violations"]],
        ["deals committed despite deviation", tallies["committed"]],
        ["deals aborted (all refunds)", tallies["aborted"]],
    ]
    return render_table(
        ["measure", "count"],
        rows,
        title="E7 — safety gauntlet (strategies × roles × protocols × deals)",
    )


def test_bench_one_gauntlet_case(once):
    report, _ = once(GauntletCase(ProtocolKind.TIMELOCK, 0, 1, "no-vote").run)
    assert report.safety_ok


def test_shape_zero_violations():
    tallies = run_gauntlet()
    assert tallies["safety_violations"] == 0
    assert tallies["liveness_violations"] == 0
    assert tallies["uniformity_violations"] == 0
    assert tallies["cases"] == 2 * len(DEAL_SEEDS) * 3 * 10
    print()
    print(make_report())


if __name__ == "__main__":
    print(make_report())
