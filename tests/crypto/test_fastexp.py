"""Tests for the fast-exponentiation engine and the verification caches.

The contract of the whole subsystem: *wall-clock only*.  Signatures
must stay byte-identical to the seed implementation, and a cached
verdict must never accept a tampered key, message, or signature.
"""

import random

import pytest

from repro.crypto import fastexp, schnorr
from repro.crypto.fastexp import (
    G,
    P,
    Q,
    FixedBaseTable,
    base_pow,
    generator_pow,
    multi_pow,
)
from repro.crypto.hashing import bytes_to_int, int_to_bytes, tagged_hash
from repro.crypto.schnorr import (
    PublicKey,
    LruDict,
    Signature,
    _SCALAR_BYTES,
    _challenge,
    batch_verify,
    cache_stats,
    clear_verification_caches,
    generate_keypair,
    sign,
    verify,
)


# ----------------------------------------------------------------------
# fastexp primitives agree with builtins.pow
# ----------------------------------------------------------------------
def test_fixed_base_table_matches_pow():
    rng = random.Random(7)
    table = FixedBaseTable(G, P, max_bits=512, window=5)
    for bits in (1, 8, 64, 256, 512):
        exponent = rng.getrandbits(bits)
        assert table.pow(exponent) == pow(G, exponent, P)


def test_fixed_base_table_edge_exponents():
    table = FixedBaseTable(G, P, max_bits=64, window=4)
    assert table.pow(0) == 1
    assert table.pow(1) == G
    # Beyond the table's capacity it falls back to builtins.pow.
    big = Q - 1
    assert table.pow(big) == pow(G, big, P)


def test_fixed_base_table_rejects_negative_exponent():
    table = FixedBaseTable(G, P, max_bits=32, window=4)
    with pytest.raises(ValueError):
        table.pow(-1)


def test_generator_pow_matches_pow():
    rng = random.Random(11)
    for _ in range(5):
        exponent = rng.getrandbits(500)
        assert generator_pow(exponent) == pow(G, exponent, P)


def test_base_pow_matches_pow():
    rng = random.Random(13)
    base = pow(G, 0xDEADBEEF, P)
    for _ in range(7):
        exponent = rng.getrandbits(256)
        assert base_pow(base, exponent) == pow(base, exponent, P)


def test_multi_pow_matches_product_of_pows():
    rng = random.Random(17)
    pairs = [
        (pow(G, rng.getrandbits(200), P), rng.getrandbits(bits))
        for bits in (128, 256, 384, 1)
    ]
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs, P) == expected


def test_multi_pow_empty_is_identity():
    assert multi_pow([], P) == 1


def test_lru_dict_evicts_least_recently_used():
    cache = LruDict(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # touch a; b is now the LRU victim
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3


# ----------------------------------------------------------------------
# Signatures are byte-identical to the seed implementation
# ----------------------------------------------------------------------
def _seed_sign(private_key, message: bytes) -> Signature:
    """The seed implementation, verbatim, on builtins.pow."""
    nonce_material = tagged_hash(
        "repro/schnorr/nonce",
        int_to_bytes(private_key.scalar, _SCALAR_BYTES) + message,
    )
    k = bytes_to_int(nonce_material) % (Q - 1) + 1
    commitment = pow(G, k, P)
    public = PublicKey(pow(G, private_key.scalar, P))
    e = _challenge(commitment, public, message)
    return Signature(commitment, (k + e * private_key.scalar) % Q)


def test_signatures_byte_identical_to_seed_implementation():
    for index in range(4):
        private, public = generate_keypair(f"identical-{index}".encode())
        message = f"message {index}".encode()
        fast = sign(private, message)
        slow = _seed_sign(private, message)
        assert fast == slow
        assert fast.to_bytes() == slow.to_bytes()
        assert public.point == pow(G, private.scalar, P)


# ----------------------------------------------------------------------
# The verification cache cannot be fooled
# ----------------------------------------------------------------------
def test_cached_verify_still_rejects_tampering():
    private, public = generate_keypair(b"cache-tamper")
    _, other_public = generate_keypair(b"cache-other")
    message = b"the real message"
    signature = sign(private, message)
    clear_verification_caches()
    # Warm the cache with the genuine verdict, twice (hit the cache).
    assert verify(public, message, signature)
    assert verify(public, message, signature)
    stats = cache_stats()
    assert stats["verify_hits"] >= 1
    # Tampered message / signature / key must all be re-checked and fail.
    assert not verify(public, b"the fake message", signature)
    assert not verify(public, message, Signature(signature.commitment, (signature.response + 1) % Q))
    assert not verify(public, message, Signature(signature.commitment * G % P, signature.response))
    assert not verify(other_public, message, signature)
    # And the genuine one still passes afterwards.
    assert verify(public, message, signature)


def test_negative_verdicts_are_cached_too():
    private, public = generate_keypair(b"cache-negative")
    signature = sign(private, b"signed")
    clear_verification_caches()
    assert not verify(public, b"unsigned", signature)
    misses = cache_stats()["verify_misses"]
    assert not verify(public, b"unsigned", signature)
    assert cache_stats()["verify_misses"] == misses  # second check was a hit


def test_batch_verify_rejects_batch_with_one_bad_signature(monkeypatch):
    items = []
    for index in range(5):
        private, public = generate_keypair(f"batch-bad-{index}".encode())
        message = f"batch message {index}".encode()
        items.append((public, message, sign(private, message)))
    clear_verification_caches()
    assert batch_verify(items)
    for position in range(len(items)):
        tampered = list(items)
        public, message, signature = tampered[position]
        tampered[position] = (public, message + b"!", signature)
        assert not batch_verify(tampered)
    # Every member of the accepted batch is certified: re-checking it
    # combines nothing.
    monkeypatch.setattr(schnorr, "multi_pow", None)
    assert batch_verify(items)


def test_batch_success_seeds_the_per_signature_cache():
    private, public = generate_keypair(b"batch-seeds")
    message = b"quorum statement"
    signature = sign(private, message)
    clear_verification_caches()
    assert batch_verify([(public, message, signature)])
    hits = cache_stats()["verify_hits"]
    assert verify(public, message, signature)
    assert cache_stats()["verify_hits"] == hits + 1


# ----------------------------------------------------------------------
# Multi-exponentiation: dedup, one Straus pass — and no per-key tables
# ----------------------------------------------------------------------
def test_multi_pow_dedupes_repeated_bases():
    rng = random.Random(29)
    base = pow(G, rng.getrandbits(200), P)
    other = pow(G, rng.getrandbits(200), P)
    e1, e2, e3 = (rng.getrandbits(300) for _ in range(3))
    pairs = [(base, e1), (other, e3), (base, e2)]
    expected = pow(base, e1 + e2, P) * pow(other, e3, P) % P
    assert multi_pow(pairs, P) == expected


def test_multi_pow_zero_base_and_zero_exponents():
    assert multi_pow([(0, 5)], P) == 0
    assert multi_pow([(0, 0)], P) == 1  # 0^0 == 1, matching builtins.pow
    assert multi_pow([(123, 0), (456, 0)], P) == 1


def test_multi_pow_modulus_one_is_zero():
    assert multi_pow([], 1) == 0
    assert multi_pow([(3, 5), (7, 11)], 1) == 0


def _product(pairs, modulus=P):
    expected = 1 % modulus
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, modulus) % modulus
    return expected


def _signature_shaped(rng, weights, keys):
    """Distinct bases: ``weights`` 64-bit exponents, ``keys`` ~320-bit ones."""
    return [
        (rng.randrange(2, P), rng.getrandbits(bits) | 1 << (bits - 1))
        for bits in [64] * weights + [320] * keys
    ]


def test_multi_pow_agrees_with_plain_product_at_300_mixed_pairs():
    # Wider than any call a workload or gate makes (82 distinct bases):
    # the sizes the deleted bucket kernel used to serve stay covered.
    pairs = _signature_shaped(random.Random(31), weights=150, keys=150)
    assert multi_pow(pairs, P) == _product(pairs)


def test_explicit_window_path_matches_pow():
    # One exponent length inside every window width the rule reaches
    # (1..8), alone and interleaved in one chain.
    rng = random.Random(41)
    lengths = (3, 20, 64, 200, 320, 1000, 2100, 5000)
    assert [fastexp._window_width(bits) for bits in lengths] == list(range(1, 9))
    pairs = [
        (pow(G, rng.getrandbits(128), P), rng.getrandbits(bits) | 1 << (bits - 1))
        for bits in lengths
    ]
    for pair in pairs:
        assert fastexp._straus([pair], P) == _product([pair])
    assert fastexp._straus(pairs, P) == _product(pairs)


def test_window_width_is_the_cost_minimum():
    # The closed-form rule must agree with minimising the stated cost,
    # table 2^(w-1) plus bits/(w+1) windows, by brute force.
    for bits in (1, 6, 7, 24, 25, 64, 80, 81, 240, 241, 320, 672, 673, 2048, 4609):
        best = min(range(1, 13), key=lambda w: (1 << (w - 1)) + bits / (w + 1))
        assert fastexp._window_width(bits) == best


class _CountingModulus(int):
    """A modulus that counts the reductions taken by it (``x % self``)."""

    reductions = 0

    def __rmod__(self, other):
        type(self).reductions += 1
        return int.__rmod__(self, other)


def test_straus_multiplication_count_is_pinned(monkeypatch):
    # No clock: a 10-signature-shaped batch is ~320 shared squarings
    # plus ~20 multiplications per 64-bit weight (4-entry table, ~16
    # windows) and ~69 per 320-bit e·w (16 entries, ~53 windows).  The
    # one-window-for-all pass this replaced took ~1,500.
    tables = []
    odd_powers = fastexp._odd_powers

    def recording(base, width, modulus):
        tables.append(odd_powers(base, width, modulus))
        return tables[-1]

    monkeypatch.setattr(fastexp, "_odd_powers", recording)
    rng = random.Random(43)
    pairs = _signature_shaped(rng, weights=10, keys=10)
    modulus = _CountingModulus(P)
    _CountingModulus.reductions = 0
    assert multi_pow(pairs, modulus) == _product(pairs)
    assert _CountingModulus.reductions <= 1300
    assert sorted(len(table) for table in tables) == [4] * 10 + [16] * 10

    del tables[:]
    weights_only = _signature_shaped(rng, weights=12, keys=0)
    assert multi_pow(weights_only, P) == _product(weights_only)
    assert tables and max(len(table) for table in tables) <= 4


def test_multi_pow_mixed_lengths_in_one_call():
    rng = random.Random(47)
    for modulus in (P, (1 << 127) - 1, 3 * 5 * 7 * 11 * 13 * 2**20):
        bases = [rng.getrandbits(256) % modulus for _ in range(6)]
        pairs = [
            (base, rng.getrandbits(bits) | 1 << (bits - 1))
            for base, bits in zip(bases, (1, 7, 64, 320, 600, 2100))
        ]
        assert multi_pow(pairs, modulus) == _product(pairs, modulus)
        # A duplicate whose summed exponent carries into a new top bit
        # (and with it, here, a wider window).
        carry = [(bases[2], (1 << 80) - 1), (bases[3], 5), (bases[2], 1)]
        assert multi_pow(carry, modulus) == _product(carry, modulus)
        # Bases congruent to 1 drop out; one congruent to 0 zeroes the product.
        ones = [(1, 12345), (modulus + 1, 99), (bases[4], rng.getrandbits(64))]
        assert multi_pow(ones, modulus) == _product(ones, modulus)
        zero = ones + [(2 * modulus, 3)]
        assert multi_pow(zero, modulus) == 0 == _product(zero, modulus)


def test_only_the_generator_ever_gets_a_window_table(monkeypatch):
    # Pins the PR 21 decision: a public key that recurs — through
    # base_pow, through multi_pow, or as a validator — builds nothing.
    from repro.consensus.validators import ValidatorSet

    built = []
    init = FixedBaseTable.__init__

    def counting_init(self, base, *args, **kwargs):
        built.append(base)
        init(self, base, *args, **kwargs)

    monkeypatch.setattr(FixedBaseTable, "__init__", counting_init)
    rng = random.Random(53)
    base = pow(G, 0xFEED, P)
    for _ in range(200):
        exponent = rng.getrandbits(256)
        assert base_pow(base, exponent) == pow(base, exponent, P)
    for _ in range(50):
        fresh = pow(G, rng.getrandbits(64), P)
        e1, e2 = rng.getrandbits(320), rng.getrandbits(64)
        expected = pow(base, e1, P) * pow(fresh, e2, P) % P
        assert multi_pow([(base, e1), (fresh, e2)], P) == expected
    ValidatorSet.generate(1, seed="no-table-check")
    assert set(built) <= {G}
