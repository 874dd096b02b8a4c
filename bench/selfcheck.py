"""Does the benchmark agree with itself?

Runs the end-to-end pass of every workload twice, back to back, on the
same code and seed, then the traced pass once, and fails unless

* every end-to-end metric x workload agrees between the two sets
  within the metric's bound in ``BENCHMARK.json`` or 10%, whichever is
  tighter (the bounds cover variation between seeds; the same seed
  repeats more closely) — and the seeded simulation metrics
  (``run.EXACT_METRICS``) bit for bit;
* on every workload the per-layer self times under the timed run sum
  to within 5% of ``runtime.run_s`` (a span that outlives its parent,
  or time counted twice, breaks this).

Both sets' numbers are printed.  Takes about five minutes.  Not named
``test_*.py`` on purpose: tier-1 collection must not pick it up.

Usage::

    python3 bench/selfcheck.py [--seed N] [--reps K]
"""

from __future__ import annotations

import argparse
import sys

import run

SAME_SEED_TOLERANCE = 0.10


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=run.MIN_REPS)
    args = parser.parse_args(argv)

    spec = run.load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list[str] = []

    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (
            run.end_to_end_pass(
                workload, args.seed, spec["run_seconds"], args.reps, end_units
            )
            for _ in range(2)
        )
        traced = run.traced_pass(workload, args.seed, layer_units)
        print(f"{workload}:")
        for label, result in (("set 1", first), ("set 2", second), ("traced", traced)):
            for problem in result["problems"]:
                failures.append(f"{workload} {label}: {problem}")
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if name in run.EXACT_METRICS:
                agree, rule = a == b, "exact"
            else:
                bound = min(bound, SAME_SEED_TOLERANCE)
                agree, rule = abs(b - a) <= bound * a, f"within {bound:.0%}"
            print(f"  {name:<28} {a:>12.6g} {b:>12.6g} {end_units[name]:<9}"
                  f" {rule}: {'ok' if agree else 'DISAGREE'}")
            if not agree:
                failures.append(f"{workload} {name}: {a!r} vs {b!r} ({rule})")
        run_s = traced["metrics"]["runtime.run_s"]["value"]
        layers_s = sum(traced["layers_self_s"].values())
        covered = abs(layers_s - run_s) <= 0.05 * run_s
        print(f"  layer self times {layers_s:.4f} s of runtime.run_s {run_s:.4f} s:"
              f" {'ok' if covered else 'MISMATCH'}; trace overhead"
              f" {traced['metrics']['runtime.trace_overhead_ratio']['value']:.3f}x")
        if not covered:
            failures.append(
                f"{workload}: layer self times {layers_s} s vs run_s {run_s} s"
            )
        sys.stdout.flush()

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
