"""The harness E16–E19 are declared over.

Each market experiment is a conformance gate plus sweeps of seeded
market runs.  A sweep declares its points, a point function returning
``(report, quantities it supplies itself)`` and one :class:`Column`
per table column; a gate returns its failures (empty = pass) and
renders them with :func:`gate_table`.  :func:`main` is every
experiment's command line.  Nothing here reads a clock, so every
output is byte-identical across runs, hosts and ``--jobs``.
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.sweep import sweep_parallel
from repro.analysis.tables import render_table
from repro.market import MarketConfig, MarketReport, open_market
from repro.market.backends import ExecutionBackend
from repro.workloads.market import MarketProfile, MarketWorkload

# The three commit protocols in equal shares.  E17 and E18 run them all
# so crash- and chaos-gated sealing can hit timelock deals mid-vote —
# where §5's sore losers come from; per-deal escrows need wallet funds,
# hence the book fraction.
THREE_PROTOCOLS = (("unanimity", 1.0), ("timelock", 1.0), ("cbc", 1.0))


def mixed_sharded(quick: bool, seed: int, deals: int) -> MarketProfile:
    """The three-protocol sharded market: the 2-shard smoke profile with
    ``quick``, else ``deals`` deals over 4 shards."""
    profile = (
        MarketProfile.sharded_smoke(seed=seed, shards=2) if quick
        else MarketProfile.sharded(seed=seed, shards=4, deals=deals)
    )
    return replace(profile, protocol_mix=THREE_PROTOCOLS, book_fund_fraction=0.4)


def run_market(
    profile: MarketProfile,
    config: MarketConfig | None = None,
    backend: str | ExecutionBackend = "inline",
) -> MarketReport:
    """Run one market to quiescence; return its report."""
    return open_market(MarketWorkload(profile), config, backend=backend).run()


def traced_run(
    profile: MarketProfile,
    config: MarketConfig | None = None,
    trace: str | None = None,
    backend: str = "inline",
) -> tuple[MarketReport, float | None]:
    """:func:`run_market`, recorded when ``trace`` names a JSONL file.

    Returns the report and, when traced, the share of committed deals
    whose root span runs register → commit untruncated — the coverage
    ``replay_counts`` reads off the trace (``None`` untraced).  Telemetry
    only observes, so the report's bytes are the same either way.
    """
    if trace is None:
        return run_market(profile, config, backend), None
    from repro.telemetry import Telemetry
    from repro.telemetry.export import replay_counts, trace_records, write_trace_jsonl

    telemetry = Telemetry()
    config = replace(config or MarketConfig(), telemetry=telemetry)
    report = run_market(profile, config, backend)
    write_trace_jsonl(telemetry, trace)
    committed, full = replay_counts(trace_records(telemetry))[0]["coverage"]
    return report, full / committed if committed else 1.0


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Column:
    """One sweep quantity: table header, record key and cell format.  A
    key the point function does not supply is :func:`read` off the report."""

    header: str
    key: str
    fmt: str = "{}"


def read(report: MarketReport, key: str):
    """One quantity of ``report``: ``violations`` (how many invariants
    broke), ``<plane>.<counter>`` from the ``<plane>_stats`` rows (0 when
    the plane never counted it), or a field, property or method."""
    if key == "violations":
        return len(report.invariant_violations)
    plane, _, counter = key.partition(".")
    if counter:
        return dict(getattr(report, f"{plane}_stats")).get(counter, 0)
    value = getattr(report, key)
    return value() if callable(value) else value


def _record(measure, columns: tuple[Column, ...], point) -> dict:
    report, record = measure(point)
    record = {"x": point, **record}
    for column in columns:
        if column.key not in record:
            record[column.key] = read(report, column.key)
    return record


def run_sweep(
    points, measure, columns: tuple[Column, ...], title: str, jobs: int | None
) -> tuple[list[dict], str]:
    """Run ``measure`` at every point over the process pool; return the
    records (``x``, the point, and one key per column) and the table."""
    records = sweep_parallel(points, partial(_record, measure, columns), jobs=jobs)
    rows = [[c.fmt.format(record[c.key]) for c in columns] for record in records]
    return records, render_table([c.header for c in columns], rows, title=title)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def safety_failures(report: MarketReport, prefix: str = "") -> list[str]:
    """The criteria every market gate holds: no stuck deal, no broken
    invariant."""
    failures = []
    if report.stuck:
        failures.append(f"{prefix}{report.stuck} stuck deals")
    if report.invariant_violations:
        failures.append(
            f"{prefix}{len(report.invariant_violations)} invariant violations "
            f"(first: {report.invariant_violations[0]})"
        )
    return failures


def gate_table(title: str, rows: list[list], failures: list[str]) -> str:
    """A gate's measure/value table, closed by its PASS/FAIL row."""
    verdict = "FAIL: " + "; ".join(failures) if failures else "PASS"
    return render_table(
        ["measure", "value"], [*rows, ["gate", verdict]], title=title
    )


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
TRACE = {"--trace": dict(
    metavar="OUT", default=None,
    help="write a deal-lifecycle trace (JSONL) of the gate run; "
         "byte-neutral — report bytes and fingerprint are unchanged",
)}


def main(argv: list[str], doc: str, experiment, options=None) -> int:
    """Parse ``argv``, run ``experiment`` and print its verdict.

    ``options`` maps each experiment-specific flag to its
    ``add_argument`` keywords.  ``experiment(quick=, jobs=, <each
    option's dest>=)`` returns ``(tables, failures, acceptance)``: the
    tables are printed, then ``FAIL: …`` with exit status 1 when a
    criterion failed, else the acceptance line (if any) with status 0.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small fixed-seed profiles (smoke test)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for the sweeps")
    for flag, kwargs in (options or {}).items():
        parser.add_argument(flag, **kwargs)
    tables, failures, acceptance = experiment(**vars(parser.parse_args(argv)))
    for table in tables:
        print(table)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    if acceptance:
        print(acceptance)
    return 0


# ----------------------------------------------------------------------
# Shape checks (run with the benchmark suite, not tier-1)
# ----------------------------------------------------------------------
# The harness imports no pytest (CI's benchmark job does not install
# it), so the one job-count check is parametrized through this hook.
SHAPE_SWEEPS = [
    ("bench_e16_market", "rate_sweep"),
    ("bench_e17_faults", "fault_sweep"),
    ("bench_e18_chaos", "chaos_sweep"),
    ("bench_e19_fees", "fee_sweep"),
]


def pytest_generate_tests(metafunc):
    if "sweep" in metafunc.fixturenames:
        metafunc.parametrize("sweep", SHAPE_SWEEPS, ids=lambda s: s[1])


def test_shape_sweep_is_job_count_invariant(sweep):
    module, name = sweep
    run = getattr(importlib.import_module(module), name)
    assert run(jobs=1, quick=True) == run(jobs=2, quick=True)
