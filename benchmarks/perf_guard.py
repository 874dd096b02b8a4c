"""CI's perf regression guard: fresh numbers against the committed records.

Usage::

    python benchmarks/perfsuite.py --quick --output /tmp/BENCH_crypto.json
    python3 bench/run.py > /tmp/bench.txt
    python benchmarks/perf_guard.py /tmp/BENCH_crypto.json /tmp/bench.txt

``batch_verify_sigs_per_s`` must stay within 30% of
``BENCH_crypto_quick.json``; a miss exits non-zero.  Every workload's
``deals_per_s`` and ``setup_s`` (``bench/run.py``'s last-line JSON) is
compared with ``bench/baseline.json`` at ``BENCHMARK.json``'s bound and
printed, report-only: that baseline predates PRs 13-15 (its
``sharded_processes`` and ``sharded_chaos`` rows describe deleted
code), so a miss there says nothing about the tree under test until a
benchmark-only PR re-measures it.  Absolute rates depend on the box, so
each limit is scaled by the fresh-to-committed ratio of
``seed_verify_per_s`` — a pure ``builtins.pow`` workload, identical
across PRs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARDED = ("deals_per_s", "setup_s")


def within(value, reference, bound, better, speed) -> tuple[float, bool]:
    """(limit, ok) for one metric on a box ``speed`` x the record's."""
    if better == "higher":
        limit = reference * speed * (1 - bound)
        return limit, value >= limit
    limit = reference / speed * (1 + bound)
    return limit, value <= limit


def guard(fresh: dict, baseline: dict, spec: dict, speed: float) -> list[tuple]:
    """(workload, metric, value, limit, ok) per guarded market metric.

    ``fresh`` is ``bench/run.py``'s all-workloads result line,
    ``baseline`` is ``bench/baseline.json``, ``spec`` ``BENCHMARK.json``.
    """
    guarded = [m for m in spec["end_to_end"] if m["name"] in GUARDED]
    rows = []
    for workload, result in fresh.items():
        recorded = baseline["end_to_end"][workload]["metrics"]
        for metric in guarded:
            name = metric["name"]
            value = result["metrics"][name]["value"]
            rows.append((workload, name, value, *within(
                value, recorded[name]["value"], metric["bound"],
                metric["better"], speed,
            )))
    return rows


def load(path) -> dict:
    return json.loads(Path(path).read_text())


def main(argv: list[str]) -> int:
    crypto_path, bench_path = argv
    crypto = load(crypto_path)["metrics"]
    recorded = load(ROOT / "BENCH_crypto_quick.json")["metrics"]
    speed = crypto["seed_verify_per_s"] / recorded["seed_verify_per_s"]
    print(f"machine speed factor vs the records' box: {speed:.2f}")
    batch = "batch_verify_sigs_per_s"
    limit, crypto_ok = within(
        crypto[batch], recorded[batch], 0.30, "higher", speed
    )
    rows = [("crypto", batch, crypto[batch], limit, crypto_ok)]
    rows += guard(
        json.loads(Path(bench_path).read_text().splitlines()[-1]),
        load(ROOT / "bench" / "baseline.json"),
        load(ROOT / "BENCHMARK.json"),
        speed,
    )
    for workload, name, value, limit, ok in rows:
        print(f"{workload}.{name}: fresh={value:.4g} limit={limit:.4g} "
              f"{'ok' if ok else 'MISS'}")
    missed = [f"{row[0]}.{row[1]}" for row in rows[1:] if not row[-1]]
    if missed:
        print(f"outside bench/baseline.json's bounds (report-only): {missed}")
    print("no crypto perf regression vs BENCH_crypto_quick.json" if crypto_ok
          else f"perf regression: crypto.{batch}")
    return 0 if crypto_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
