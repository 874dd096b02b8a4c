"""Tests for the fast-exponentiation engine and the verification caches.

The contract of the whole subsystem: *wall-clock only*.  Signatures
must stay byte-identical to the seed implementation, and a cached
verdict must never accept a tampered key, message, or signature.
"""

import random

import pytest

from repro.crypto import fastexp
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


def test_batch_verify_rejects_batch_with_one_bad_signature():
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
    # The valid batch is cached; re-checking is a transcript hit.
    hits = cache_stats()["batch_hits"]
    assert batch_verify(items)
    assert cache_stats()["batch_hits"] == hits + 1


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
# Multi-exponentiation: dedup, Straus, Pippenger — and no per-key tables
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


def test_multi_pow_large_cold_batch_uses_pippenger_and_agrees():
    # Enough fresh bases with short exponents that the cost model picks
    # the bucket method; the result must match the plain product.
    rng = random.Random(31)
    pairs = [
        (pow(G, rng.getrandbits(200), P), rng.getrandbits(64))
        for _ in range(64)
    ]
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs, P) == expected


def test_pippenger_internal_agrees_with_straus():
    rng = random.Random(37)
    items = [
        (rng.getrandbits(256) % P, rng.getrandbits(bits))
        for bits in (1, 64, 200, 320, 320, 64, 7, 128)
    ]
    items = [(base, exp) for base, exp in items if exp]
    assert fastexp._pippenger(items, P, 4) == fastexp._straus(items, P, 4)


def test_explicit_window_path_matches_pow():
    rng = random.Random(41)
    pairs = [
        (pow(G, rng.getrandbits(128), P), rng.getrandbits(256)) for _ in range(5)
    ]
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    for window in (1, 2, 4, 8):
        assert fastexp._straus(pairs, P, window) == expected


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
