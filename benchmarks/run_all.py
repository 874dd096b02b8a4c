"""Regenerate every experiment report in one pass.

Usage::

    python benchmarks/run_all.py [output-file] [--jobs N] [--quick]
                                 [--shards M] [--trace PREFIX]
                                 [--exec {inline,processes}]

Writes the concatenated paper-style tables for E1..E19 (the full
EXPERIMENTS.md evidence) to stdout and, if given, to ``output-file``.

``--jobs N`` fans the experiments out over ``N`` worker processes
(``--jobs 0`` uses every CPU).  Every experiment is a deterministic
seeded simulation, so the report file is byte-identical whatever the
job count — timing lines go to stdout only, never into the report.
A per-experiment timing summary is printed at the end either way
(stdout-only diagnostics; wall clock is measured by ``bench/``).

``--quick`` shrinks experiments that support a quick mode (currently
E16, E17, E18 and E19) so CI's determinism gate — serial vs ``--jobs 2``
reports must be byte-identical — stays cheap.  Quick reports are only
comparable to other quick reports.

``--exec processes`` runs experiments that support an execution
backend (currently E16) with one worker process per shard; reports
stay byte-identical to ``--exec inline`` (CI cmp's the two).  It
needs ``--jobs 1``: inside a pool worker the backend would fall back
to inline (daemonic processes cannot fork), so any larger job count
is refused rather than silently measuring the inline backend.

``--trace PREFIX`` writes each tracing experiment's deal-lifecycle
trace to its own ``PREFIX.<id>.jsonl`` (concurrent ``--jobs`` workers
would race on a single shared path) and then merges them, in
experiment order, into ``PREFIX.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import multiprocessing
import os
import sys
import time

EXPERIMENTS = [
    ("E1", "bench_e1_brokered_deal"),
    ("E2", "bench_e2_gas_timelock"),
    ("E3", "bench_e3_gas_cbc"),
    ("E4", "bench_e4_delay_timelock"),
    ("E5", "bench_e5_delay_cbc"),
    ("E6", "bench_e6_crossover"),
    ("E7", "bench_e7_safety_gauntlet"),
    ("E8", "bench_e8_pow_attack"),
    ("E9", "bench_e9_dos_window"),
    ("E10", "bench_e10_abort_cost"),
    ("E11", "bench_e11_swap_baseline"),
    ("E12", "bench_e12_auction"),
    ("E13", "bench_e13_incentive_deposits"),
    ("E14", "bench_e14_batch_verification"),
    ("E15", "bench_e15_asynchrony"),
    ("E16", "bench_e16_market"),
    ("E17", "bench_e17_faults"),
    ("E18", "bench_e18_chaos"),
    ("E19", "bench_e19_fees"),
]

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _ensure_importable() -> None:
    """Make the bench modules importable (needed in spawned workers)."""
    if _BENCH_DIR not in sys.path:
        sys.path.insert(0, _BENCH_DIR)


def trace_path(trace: str, experiment_id: str) -> str:
    """Per-experiment trace file: keyed by id so concurrent ``--jobs``
    workers never write the same path."""
    return f"{trace}.{experiment_id.lower()}.jsonl"


def run_experiment(
    item: tuple[str, str],
    quick: bool = False,
    shards: int = 1,
    trace: str | None = None,
    exec_backend: str = "inline",
) -> tuple[str, str, str, float]:
    """Run one experiment; return (id, module, report, elapsed seconds)."""
    experiment_id, module_name = item
    _ensure_importable()
    started = time.monotonic()
    module = importlib.import_module(module_name)
    # Each option goes to the experiments whose make_report takes it.
    parameters = inspect.signature(module.make_report).parameters
    options = dict(
        quick=quick, shards=shards, exec_backend=exec_backend,
        trace=None if trace is None else trace_path(trace, experiment_id),
    )
    report = module.make_report(
        **{name: value for name, value in options.items() if name in parameters}
    )
    return experiment_id, module_name, report, time.monotonic() - started


def merge_traces(trace: str) -> str | None:
    """Concatenate the per-experiment trace files into ``trace``.jsonl.

    Runs after every worker has finished, in EXPERIMENTS order, so the
    merged file is deterministic whatever the job count.  Returns the
    merged path, or None when no experiment produced a trace.
    """
    merged = f"{trace}.jsonl"
    parts = [
        trace_path(trace, experiment_id)
        for experiment_id, _ in EXPERIMENTS
        if os.path.exists(trace_path(trace, experiment_id))
    ]
    if not parts:
        return None
    with open(merged, "w", encoding="utf-8") as out:
        for part in parts:
            with open(part, "r", encoding="utf-8") as handle:
                out.write(handle.read())
    return merged


def _timing_table(results: list[tuple[str, str, str, float]], wall: float) -> str:
    from repro.analysis.tables import render_table

    rows = [
        [experiment_id, module_name, f"{elapsed:.2f}s"]
        for experiment_id, module_name, _, elapsed in results
    ]
    rows.append(["total", "(sum of experiments)", f"{sum(r[3] for r in results):.2f}s"])
    rows.append(["total", "(wall clock)", f"{wall:.2f}s"])
    return render_table(["experiment", "module", "time"], rows, title="Timing summary")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default=None,
                        help="optional file to write the concatenated reports to")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (0 = one per CPU, default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink experiments that support a quick mode "
                             "(CI determinism gate)")
    parser.add_argument("--shards", type=int, default=1,
                        help="coordinator shards for experiments that "
                             "support sharding (currently E16)")
    parser.add_argument("--trace", metavar="PREFIX", default=None,
                        help="write deal-lifecycle traces for experiments "
                             "that support tracing (currently E16, E17) to "
                             "PREFIX.<id>.jsonl, then merge them into "
                             "PREFIX.jsonl; report bytes are unchanged")
    parser.add_argument("--exec", dest="exec_backend", default="inline",
                        choices=("inline", "processes"),
                        help="execution backend for experiments that "
                             "support one (currently E16); reports are "
                             "byte-identical either way; needs --jobs 1")
    args = parser.parse_args(argv[1:])

    identifiers = [experiment_id for experiment_id, _ in EXPERIMENTS]
    assert len(set(identifiers)) == len(identifiers), \
        "experiment ids must be unique (trace files are keyed by id)"

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    jobs = min(jobs, len(EXPERIMENTS))
    if args.exec_backend == "processes" and jobs > 1:
        parser.error("--exec processes needs --jobs 1: pool workers are "
                     "daemonic and cannot fork the backend's workers")

    # Stream each experiment's section as soon as it is ready (pool
    # results arrive in experiment order either way).
    results: list[tuple[str, str, str, float]] = []
    sections: list[str] = []

    def consume(iterator) -> None:
        for result in iterator:
            experiment_id, module_name, report, _ = result
            sections.append(f"===== {experiment_id} ({module_name}) =====\n{report}\n")
            print(sections[-1])
            results.append(result)

    from functools import partial

    runner = partial(run_experiment, quick=args.quick, shards=args.shards,
                     trace=args.trace, exec_backend=args.exec_backend)
    started = time.monotonic()
    if jobs > 1:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        context = multiprocessing.get_context(method)
        with context.Pool(processes=jobs) as pool:
            consume(pool.imap(runner, EXPERIMENTS))
    else:
        consume(runner(item) for item in EXPERIMENTS)
    wall = time.monotonic() - started

    print(_timing_table(results, wall))

    if args.trace:
        merged = merge_traces(args.trace)
        if merged:
            print(f"merged traces into {merged}")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(sections))
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    _ensure_importable()
    sys.exit(main(sys.argv))
