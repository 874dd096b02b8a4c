"""The benchmark: every workload, every metric, outputs checked.

Usage::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--reps K] [--trace [0|1]] [--out FILE]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs.

``--trace 0`` (default) is the end-to-end pass: repetitions of one
workload run one after another, each in a fresh child process
(``rep.py``), tracing off, until ``--seconds`` of set-up plus run time
have been measured — at least :data:`MIN_REPS` repetitions, or exactly
``--reps``.  Wall-clock and memory metrics are medians over the
repetitions; simulation metrics must repeat exactly (the report
fingerprint is compared across repetitions).

``--trace 1`` (or bare ``--trace``) is the traced pass: one untraced
and one traced repetition, whose fingerprints must agree, giving the
per-layer metrics and the tracing overhead.  It is never used for
end-to-end numbers.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object: for a single workload
``{"correct", "attempted", "failed", "metrics"}``, for several a map
from workload name to that object.  The exit code is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 12
MIN_REPS = 3
REP_TIMEOUT_S = 170

# Seeded simulation quantities: identical for every repetition of one
# (workload, seed), which selfcheck.py requires bit for bit.
EXACT_METRICS = (
    "commit_rate",
    "commit_latency_p50_ticks",
    "commit_latency_p90_ticks",
    "availability",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_rep(workload: str, seed: int, trace: bool = False,
            backend: str | None = None) -> dict:
    """One repetition in a fresh child process; its result object."""
    command = [
        sys.executable, str(BENCH_DIR / "rep.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if trace:
        command.append("--trace")
    if backend is not None:
        command += ["--backend", backend]
    # Its own session, so a timeout can also stop the workers a
    # processes-backend repetition forked.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"bench: {workload} repetition exceeded {REP_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(
            f"bench: {workload} repetition exited with code {child.returncode}"
        )
    return json.loads(stdout.splitlines()[-1])


def end_to_end_sample(rep: dict) -> dict[str, float]:
    return {
        "setup_s": rep["setup_s"],
        "deals_per_s": rep["attempted"] / rep["run_s"],
        "commit_rate": rep["committed"] / rep["attempted"],
        "commit_latency_p50_ticks": rep["latency_p50"],
        "commit_latency_p90_ticks": rep["latency_p90"],
        "availability": rep["availability"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def _summarise(samples: list[float], unit: str) -> dict:
    entry = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        entry.update(q1=q1, q3=q3)
    return entry


def _fingerprint_problems(reps: dict[str, dict]) -> list[str]:
    """Reports of one (workload, seed) must be identical, however run."""
    fingerprints = {label: rep["fingerprint"] for label, rep in reps.items()}
    if len(set(fingerprints.values())) > 1:
        return [f"report fingerprints differ: {fingerprints}"]
    return []


def end_to_end_pass(workload: str, seed: int, seconds: float,
                    reps: int | None, units: dict[str, str]) -> dict:
    runs: list[dict] = []
    measured = 0.0
    while len(runs) < (reps or MIN_REPS) or (reps is None and measured < seconds):
        rep = run_rep(workload, seed)
        runs.append(rep)
        measured += rep["setup_s"] + rep["run_s"]
    labelled = {f"rep{index}": rep for index, rep in enumerate(runs)}
    if runs[0]["backend"] != "inline":
        # The backend must not change the report: compare with an
        # inline run of the same inputs (not timed).
        labelled["inline"] = run_rep(workload, seed, backend="inline")
    problems = [p for rep in labelled.values() for p in rep["problems"]]
    problems += _fingerprint_problems(labelled)
    samples = [end_to_end_sample(rep) for rep in runs]
    return {
        "correct": not problems,
        "attempted": runs[0]["attempted"],
        "failed": max(rep["failed"] for rep in runs),
        "problems": problems,
        "metrics": {
            name: _summarise([sample[name] for sample in samples], unit)
            for name, unit in units.items()
        },
    }


def traced_pass(workload: str, seed: int, units: dict[str, str]) -> dict:
    plain = run_rep(workload, seed)
    reps = {"untraced": plain}
    inline = plain
    if plain["backend"] != "inline":
        inline = reps["inline"] = run_rep(workload, seed, backend="inline")
    traced = reps["traced"] = run_rep(workload, seed, trace=True)
    problems = [p for rep in reps.values() for p in rep["problems"]]
    problems += _fingerprint_problems(reps)
    values = dict(traced["per_layer"])
    values["runtime.trace_overhead_ratio"] = traced["run_s"] / inline["run_s"]
    processes = plain is not inline
    values["runtime.processes_run_s"] = plain["run_s"] if processes else 0.0
    values["runtime.processes_speedup"] = (
        inline["run_s"] / plain["run_s"] if processes else 0.0
    )
    values["runtime.worker_restarts"] = plain["worker_restarts"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"bench: traced pass produced no {missing}")
    return {
        "correct": not problems,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "problems": problems,
        "metrics": {
            name: {"value": values[name], "unit": unit, "n": 1}
            for name, unit in units.items()
        },
        "layers_self_s": traced["layers_self_s"],
        "spans": traced["spans"],
    }


def _print_table(workload: str, result: dict) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"{workload}: {result['attempted']} attempted, "
          f"{result['failed']} failed, outputs {status}")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    for name, entry in result["metrics"].items():
        spread = (
            f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']})"
            if "q1" in entry else f"  (n={entry['n']})"
        )
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}{spread}")
    for layer, seconds in sorted(
        result.get("layers_self_s", {}).items(), key=lambda item: -item[1]
    ):
        print(f"  self time under run: {layer:<24} {seconds:>10.4f} s")
    sys.stdout.flush()


def _driver_object(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    }


def main(argv: list[str]) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure at {ROOT}/src/repro", file=sys.stderr)
        return 2
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the deal-market benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--reps", type=int)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else names
    results = {}
    for workload in selected:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            results[workload] = traced_pass(workload, args.seed, units)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            results[workload] = end_to_end_pass(
                workload, args.seed, args.seconds, args.reps, units
            )
        _print_table(workload, results[workload])
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "workloads": results},
            indent=1,
        ) + "\n", encoding="utf-8")
    objects = {name: _driver_object(result) for name, result in results.items()}
    print(json.dumps(objects[args.workload] if args.workload else objects))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
