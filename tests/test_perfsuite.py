"""Tier-1 smoke target for the crypto perf suite.

Runs ``benchmarks/perfsuite.py`` in ``--quick`` mode and checks the
``BENCH_crypto.json`` schema, so future PRs always have a working perf
trajectory (and a regression here fails the tier-1 suite).
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import perfsuite  # noqa: E402

EXPECTED_METRICS = {
    "sign_per_s",
    "seed_sign_per_s",
    "sign_speedup",
    "verify_distinct_per_s",
    "seed_verify_per_s",
    "verify_distinct_speedup",
    "verify_deal_workload_per_s",
    "verify_deal_workload_speedup",
    "batch_verify_sigs_per_s",
    "batch_verify_speedup",
    "e1_wall_s",
}
MULTI_POW_SIZES = (4, 16, 64, 256)
for _size in MULTI_POW_SIZES:
    EXPECTED_METRICS.update({
        f"multi_pow_{_size}_pairs_per_s",
        f"v1_multi_pow_{_size}_pairs_per_s",
        f"multi_pow_{_size}_speedup",
    })


def _cache_keys() -> set:
    """What the writer's ``caches`` block carries: every live counter."""
    from repro.crypto import fastexp, schnorr

    return set({**schnorr.cache_stats(), **fastexp.cache_stats()})


def test_perfsuite_quick_smoke(tmp_path):
    output = tmp_path / "BENCH_crypto.json"
    assert perfsuite.main(["--quick", "--output", str(output)]) == 0
    report = json.loads(output.read_text())
    assert report["schema"] == perfsuite.SCHEMA
    assert report["quick"] is True
    metrics = report["metrics"]
    assert set(metrics) == EXPECTED_METRICS
    assert set(report["caches"]) == _cache_keys()
    assert all(value > 0 for value in metrics.values())
    # The engine must beat the seed implementation on its hot paths.
    # (Thresholds are intentionally far below the measured ~10x/~25x so
    # a noisy CI box cannot flake the smoke test.)
    assert metrics["sign_speedup"] > 1.5
    assert metrics["verify_deal_workload_speedup"] > 1.5
    # The v2 multi-exp must beat the v1 replica on big batches (the
    # measured margin is ~3x at 64 pairs; 1.2 keeps noisy boxes green).
    assert metrics["multi_pow_64_speedup"] > 1.2
    assert metrics["multi_pow_256_speedup"] > 1.2


@pytest.mark.parametrize("name", ["BENCH_crypto.json", "BENCH_crypto_quick.json"])
def test_committed_record_matches_the_writer(name):
    # Nothing else notices a committed record that lags its writer (the
    # retired market record sat two schema versions behind).
    with open(os.path.join(REPO_ROOT, name), encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["schema"] == perfsuite.SCHEMA
    assert report["quick"] is (name == "BENCH_crypto_quick.json")
    assert set(report["metrics"]) == EXPECTED_METRICS
    assert set(report["caches"]) == _cache_keys()


def test_v1_multi_pow_replica_agrees_with_engine():
    from repro.crypto.fastexp import G, P, multi_pow

    pairs = [(pow(G, 3 * i + 5, P), (1 << (20 * i)) + i) for i in range(6)]
    assert perfsuite.v1_multi_pow(pairs) == multi_pow(pairs, P)


def test_seed_replicas_agree_with_engine():
    # The in-process baseline must be a faithful replica: same bytes
    # out of sign, same verdicts out of verify.
    from repro.crypto.schnorr import generate_keypair, sign, verify

    private, public = generate_keypair(b"perfsuite-replica")
    message = b"replica check"
    assert perfsuite.seed_sign(private, message) == sign(private, message)
    signature = sign(private, message)
    assert perfsuite.seed_verify(public, message, signature)
    assert not perfsuite.seed_verify(public, b"other", signature)
    assert verify(public, message, signature)
