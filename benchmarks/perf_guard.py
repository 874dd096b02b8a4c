"""CI's perf gate: every workload's traced crypto counts under a cap.

Usage::

    python3 bench/run.py --trace 1 > /tmp/bench_traced.txt
    python benchmarks/perf_guard.py /tmp/bench_traced.txt

The input's last line is ``bench/run.py``'s JSON map from workload name
to result, all seven workloads at the default seed.  The guard exits 1
when a workload's ``fastexp.multi_pow_calls``, ``fastexp.multi_pow_pairs``
or ``schnorr.sign_calls`` is above its cap in :data:`CAPS`, or when the
output's workloads are not exactly the keys of :data:`CAPS`.

These are counts of a seeded simulation, so they repeat exactly from run
to run and box to box, where a clock does not: a cap can be exact.  A
count under its cap passes and is printed as re-recordable; lower the
cap in the same change that lowers the count, and raise one only in a
change that says why the work grew.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# Measured by a traced run of every workload at seed 12.
CAPS = {
    "unanimity_steady": {
        "fastexp.multi_pow_calls": 101,
        "fastexp.multi_pow_pairs": 2746,
        "schnorr.sign_calls": 1193,
    },
    "wide_accounts": {
        "fastexp.multi_pow_calls": 81,
        "fastexp.multi_pow_pairs": 2112,
        "schnorr.sign_calls": 892,
    },
    "protocol_mix": {
        "fastexp.multi_pow_calls": 85,
        "fastexp.multi_pow_pairs": 2498,
        "schnorr.sign_calls": 1329,
    },
    # Raised when the chaos bus began delivering each chain's stream in
    # order: ~40 more deals reach voting and settlement instead of
    # aborting on a reordered step, and they sign and verify more.
    "sharded_chaos": {
        "fastexp.multi_pow_calls": 88,
        "fastexp.multi_pow_pairs": 2220,
        "schnorr.sign_calls": 1108,
    },
    "fee_congestion": {
        "fastexp.multi_pow_calls": 54,
        "fastexp.multi_pow_pairs": 1996,
        "schnorr.sign_calls": 1162,
    },
    # The traced pass runs the inline twin, so these equal an inline run.
    "sharded_processes": {
        "fastexp.multi_pow_calls": 87,
        "fastexp.multi_pow_pairs": 2294,
        "schnorr.sign_calls": 980,
    },
    "single_deals": {
        "fastexp.multi_pow_calls": 137,
        "fastexp.multi_pow_pairs": 894,
        "schnorr.sign_calls": 932,
    },
}


def check(results: dict) -> list[str]:
    """Failures of ``results`` (workload -> ``{"metrics": ...}``) vs
    :data:`CAPS`; prints one line per capped count."""
    failures = [
        f"{workload}: no cap recorded" for workload in sorted(set(results) - set(CAPS))
    ] + [
        f"{workload}: missing from the output"
        for workload in sorted(set(CAPS) - set(results))
    ]
    for workload in sorted(set(CAPS) & set(results)):
        metrics = results[workload]["metrics"]
        for metric, cap in CAPS[workload].items():
            name = f"{workload}.{metric}"
            value = metrics[metric]["value"]
            if value > cap:
                failures.append(f"{name} = {value} > cap {cap}")
                verdict = "OVER"
            elif value < cap:
                verdict = "ok (under its cap: re-record it)"
            else:
                verdict = "ok"
            print(f"{name} = {value} (cap {cap}) {verdict}")
    return failures


def main(argv: list[str]) -> int:
    (path,) = argv
    results = json.loads(Path(path).read_text().splitlines()[-1])
    failures = check(results)
    for failure in failures:
        print(f"perf regression: {failure}")
    if not failures:
        print(f"every count within its cap on {len(CAPS)} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
