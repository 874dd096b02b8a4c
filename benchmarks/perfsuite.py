"""Crypto micro-benchmarks — the perf trajectory for future PRs.

Usage::

    python benchmarks/perfsuite.py [--quick] [--output BENCH_crypto.json]

Measures the Schnorr hot path (the ~93%-of-wall-clock operation every
experiment hammers) and writes ``BENCH_crypto.json``:

* ``sign_per_s`` / ``verify_distinct_per_s`` — steady-state rates of
  the engine (generator table warm, every message distinct so the
  verification cache never hits);
* ``verify_deal_workload_per_s`` — the rate on a single deal's
  verification stream: a path signature is re-verified at every hop
  (timelock §5) and a certificate on every chain (CBC §6), so the
  stream repeats each signature several times — repeats are cache hits;
* ``batch_verify_sigs_per_s`` — per-signature rate of batched quorum
  certificates (fresh message each round, so nothing is cached);
* ``multi_pow_{k}_*`` — pairs/second of the multi-exponentiation
  engine at batch sizes 4/16/64/256 against an in-process replica of
  the v1 engine (PR 1's shared-squaring interleaved windowing, fixed
  window, no dedup, no Pippenger), on pairs shaped like a real batched
  verification: alternating fresh commitment bases with 64-bit weight
  exponents and public-key bases (drawn from a small recurring pool,
  as market accounts and validators recur) with ~320-bit
  challenge·weight exponents;
* ``e1_wall_s`` — end-to-end wall-clock of the E1 running example;
* ``seed_*`` / ``v1_*`` — the same operations through faithful
  replicas of the earlier implementations, measured in the same
  process, so every run self-documents its speedups.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time

import bench_e1_brokered_deal
from repro.crypto.fastexp import G, P, Q, multi_pow
from repro.crypto.fastexp import cache_stats as fastexp_stats
from repro.crypto.hashing import bytes_to_int, int_to_bytes, tagged_hash
from repro.crypto.schnorr import (
    PublicKey,
    Signature,
    _SCALAR_BYTES,
    _challenge,
    batch_verify,
    cache_stats as schnorr_stats,
    clear_verification_caches,
    generate_keypair,
    sign,
    verify,
)

SCHEMA = "BENCH_crypto/v2"


# ----------------------------------------------------------------------
# Faithful replica of the seed implementation (no tables, no caches).
# ----------------------------------------------------------------------
def seed_sign(private_key, message: bytes) -> Signature:
    nonce_material = tagged_hash(
        "repro/schnorr/nonce",
        int_to_bytes(private_key.scalar, _SCALAR_BYTES) + message,
    )
    k = bytes_to_int(nonce_material) % (Q - 1) + 1
    commitment = pow(G, k, P)
    public = PublicKey(pow(G, private_key.scalar, P))
    e = _challenge(commitment, public, message)
    return Signature(commitment, (k + e * private_key.scalar) % Q)


def seed_verify(public_key, message: bytes, signature: Signature) -> bool:
    if not 1 < signature.commitment < P:
        return False
    if not 0 <= signature.response < Q:
        return False
    e = _challenge(signature.commitment, public_key, message)
    lhs = pow(G, signature.response, P)
    rhs = (signature.commitment * pow(public_key.point, e, P)) % P
    return lhs == rhs


def v1_multi_pow(pairs, modulus: int = P, window: int = 4) -> int:
    """The v1 multi-exponentiation, verbatim (PR 1's engine).

    Simultaneous interleaved windowing with one shared squaring chain,
    a fresh digit table per base per call, a fixed window and no
    duplicate-base merging — the baseline the engine is measured
    against.
    """
    if not pairs:
        return 1 % modulus
    mask = (1 << window) - 1
    tables = []
    max_bits = 0
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("negative exponent")
        base %= modulus
        row = [1] * (mask + 1)
        row[1] = base
        for digit in range(2, mask + 1):
            row[digit] = row[digit - 1] * base % modulus
        tables.append((exponent, row))
        if exponent.bit_length() > max_bits:
            max_bits = exponent.bit_length()
    acc = 1
    for index in range((max_bits + window - 1) // window - 1, -1, -1):
        if acc != 1:
            for _ in range(window):
                acc = acc * acc % modulus
        shift = index * window
        for exponent, row in tables:
            digit = (exponent >> shift) & mask
            if digit:
                acc = acc * row[digit] % modulus
    return acc


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def measure_rate(make_batch, run_batch, min_time: float) -> float:
    """Ops/second of ``run_batch`` over fresh batches from ``make_batch``.

    ``make_batch(round_index)`` builds the inputs outside the timer;
    ``run_batch(batch)`` returns the number of operations performed.
    Runs until ``min_time`` has been spent inside the timed region.
    """
    total_ops = 0
    total_time = 0.0
    round_index = 0
    while total_time < min_time or round_index < 2:
        batch = make_batch(round_index)
        started = time.perf_counter()
        ops = run_batch(batch)
        total_time += time.perf_counter() - started
        total_ops += ops
        round_index += 1
    return total_ops / total_time


def run_suite(quick: bool = False) -> dict:
    """Run every micro-benchmark; return the metrics dict."""
    min_time = 0.1 if quick else 1.0
    path_length = 4  # |p| of the measured deal's path signature
    hops = 6  # contracts that re-verify it (the deal-workload repeats)

    keys = [generate_keypair(f"perfsuite-{i}".encode()) for i in range(8)]

    # -- sign ----------------------------------------------------------
    def fresh_messages(round_index):
        return [f"perf-sign-{round_index}-{i}".encode() for i in range(4)]

    def run_sign(messages):
        for message in messages:
            sign(keys[0][0], message)
        return len(messages)

    sign_per_s = measure_rate(fresh_messages, run_sign, min_time)
    seed_sign_per_s = measure_rate(
        fresh_messages,
        lambda messages: sum(1 for m in messages if seed_sign(keys[0][0], m)),
        min_time,
    )

    # -- verify, every message distinct (cache never hits) -------------
    def signed_batch(round_index):
        private, public = keys[round_index % len(keys)]
        items = []
        for i in range(4):
            message = f"perf-verify-{round_index}-{i}".encode()
            items.append((public, message, sign(private, message)))
        return items

    def run_verify(items):
        for public, message, signature in items:
            if not verify(public, message, signature):
                raise AssertionError("perfsuite produced an invalid signature")
        return len(items)

    clear_verification_caches()
    verify_distinct_per_s = measure_rate(signed_batch, run_verify, min_time)
    seed_verify_per_s = measure_rate(
        signed_batch,
        lambda items: sum(1 for pk, m, s in items if seed_verify(pk, m, s)),
        min_time,
    )

    # -- verify, single-deal workload (path re-verified per hop) -------
    # One deal's commit phase: each of `path_length` path signatures is
    # checked by `hops` contracts.  The seed implementation pays a full
    # verification every time; the engine pays once and then hits the
    # verification cache.
    def deal_stream(round_index):
        private, public = keys[round_index % len(keys)]
        distinct = []
        for i in range(path_length):
            message = f"perf-deal-{round_index}-{i}".encode()
            distinct.append((public, message, sign(private, message)))
        return distinct * hops

    clear_verification_caches()
    verify_deal_per_s = measure_rate(deal_stream, run_verify, min_time)

    # -- batched quorum certificates -----------------------------------
    quorum = 5  # 2f+1 for f=2

    def quorum_certificate(round_index):
        message = f"perf-batch-{round_index}".encode()
        return [
            (public, message, sign(private, message))
            for private, public in keys[:quorum]
        ]

    clear_verification_caches()
    batch_sigs_per_s = measure_rate(
        quorum_certificate,
        lambda items: len(items) if batch_verify(items) else 0,
        min_time,
    )

    # -- multi_pow microbench (engine vs the v1 replica) ---------------
    # Pairs mirror one sealed block's merged batch check: alternating
    # (fresh commitment, 64-bit weight) and (public key from a
    # recurring 8-key pool, ~320-bit challenge·weight) entries.
    rng = random.Random(0xB10C5)
    key_pool = [pow(G, rng.getrandbits(256), P) for _ in range(8)]

    def multi_pow_batch(count):
        def make(round_index):
            pairs = []
            for i in range(count):
                if i % 2 == 0:
                    pairs.append(
                        (pow(G, rng.getrandbits(256), P), rng.getrandbits(64))
                    )
                else:
                    pairs.append(
                        (key_pool[rng.randrange(len(key_pool))], rng.getrandbits(320))
                    )
            return pairs

        return make

    multi_pow_metrics = {}
    for count in (4, 16, 64, 256):
        make = multi_pow_batch(count)
        check = make(0)
        if multi_pow(check) != v1_multi_pow(check):
            raise AssertionError("multi_pow engines disagree")
        v2_rate = measure_rate(make, lambda p: (multi_pow(p), len(p))[1], min_time)
        v1_rate = measure_rate(make, lambda p: (v1_multi_pow(p), len(p))[1], min_time)
        multi_pow_metrics[f"multi_pow_{count}_pairs_per_s"] = round(v2_rate, 2)
        multi_pow_metrics[f"v1_multi_pow_{count}_pairs_per_s"] = round(v1_rate, 2)
        multi_pow_metrics[f"multi_pow_{count}_speedup"] = round(v2_rate / v1_rate, 2)

    # -- E1 end-to-end -------------------------------------------------
    started = time.perf_counter()
    bench_e1_brokered_deal.make_report()
    e1_wall_s = time.perf_counter() - started

    return {
        **multi_pow_metrics,
        "sign_per_s": round(sign_per_s, 2),
        "seed_sign_per_s": round(seed_sign_per_s, 2),
        "sign_speedup": round(sign_per_s / seed_sign_per_s, 2),
        "verify_distinct_per_s": round(verify_distinct_per_s, 2),
        "seed_verify_per_s": round(seed_verify_per_s, 2),
        "verify_distinct_speedup": round(verify_distinct_per_s / seed_verify_per_s, 2),
        "verify_deal_workload_per_s": round(verify_deal_per_s, 2),
        "verify_deal_workload_speedup": round(verify_deal_per_s / seed_verify_per_s, 2),
        "batch_verify_sigs_per_s": round(batch_sigs_per_s, 2),
        "batch_verify_speedup": round(batch_sigs_per_s / seed_verify_per_s, 2),
        "e1_wall_s": round(e1_wall_s, 3),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short timing windows (smoke test)")
    parser.add_argument("--output", default="BENCH_crypto.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    # Fail on an unwritable destination *before* spending minutes
    # benchmarking.
    with open(args.output, "a", encoding="utf-8"):
        pass

    metrics = run_suite(quick=args.quick)
    report = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "quick": args.quick,
        "metrics": metrics,
        "caches": {**schnorr_stats(), **fastexp_stats()},
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name.ljust(width)}  {value}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
