"""Tests for the fast-exponentiation engine and the verification cache.

The contract of the whole subsystem: *wall-clock only*.  Signatures
must stay byte-identical to the seed implementation, and a cached
verdict must never accept a tampered key, message, or signature.
"""

import random

import pytest

from repro.crypto import fastexp, montgomery, schnorr
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
    Signature,
    VerifyCache,
    _SCALAR_BYTES,
    _cache_key,
    _challenge,
    batch_verify,
    cache_stats,
    generate_keypair,
    sign,
    verify,
)


# ----------------------------------------------------------------------
# fastexp primitives agree with builtins.pow
# ----------------------------------------------------------------------
def test_fixed_base_table_matches_pow():
    rng = random.Random(7)
    table = FixedBaseTable(G, ((512, 5),))
    for bits in (1, 8, 64, 256, 512):
        exponent = rng.getrandbits(bits)
        assert table.pow(exponent) == pow(G, exponent, P)


def test_fixed_base_table_edge_exponents():
    table = FixedBaseTable(G, ((64, 4),))
    assert table.pow(0) == 1
    assert table.pow(1) == G
    # Beyond the table's capacity it falls back to BN_mod_exp_mont (kernel.exp).
    big = Q - 1
    assert table.pow(big) == pow(G, big, P)


def test_fixed_base_table_rejects_negative_exponent():
    table = FixedBaseTable(G, ((32, 4),))
    with pytest.raises(ValueError):
        table.pow(-1)


def test_banded_table_matches_pow_at_every_length():
    # A lower band whose top is not a multiple of its window: its last
    # row runs past it, and the next band starts where that row ends.
    table = FixedBaseTable(G, ((10, 3), (30, 2), (33, 1)))
    rng = random.Random(5)
    for bits in range(1, 36):
        exponent = rng.getrandbits(bits) | 1 << (bits - 1)
        assert table.pow(exponent) == pow(G, exponent, P)
    assert table.pow((1 << 33) - 1) == pow(G, (1 << 33) - 1, P)
    with pytest.raises(ValueError):
        FixedBaseTable(G, ((10, 3), (10, 2)))
    with pytest.raises(ValueError):
        FixedBaseTable(G, ((10, 17),))


def test_generator_table_layout_is_pinned(monkeypatch):
    # 37 rows of 7-bit windows (127 digits each) below bit 259 and 68
    # rows of 5-bit windows (31 each) up to bit 595: one multiplication
    # per residue but the first, which is loaded.  A layout change moves
    # these on purpose, and with them every run's resident set.
    assert fastexp.GENERATOR_BANDS == ((259, 7), (595, 5))
    multiplications = []
    kernel_mul = montgomery.mul
    monkeypatch.setattr(
        montgomery, "mul", lambda r, a, b: multiplications.append(r) or kernel_mul(r, a, b)
    )
    table = FixedBaseTable(G, fastexp.GENERATOR_BANDS)
    assert len(table._residues) == 37 * 127 + 68 * 31 == 6807
    assert len(multiplications) == 6806
    assert table.max_bits == fastexp.GENERATOR_TABLE_BITS == 595
    assert len(fastexp.generator_table()._residues) == 6807


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
    assert multi_pow(pairs) == expected


def test_multi_pow_empty_is_identity():
    assert multi_pow([]) == 1


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
    cache = VerifyCache()
    hits = cache_stats()["verify_hits"]
    # Warm the cache with the genuine verdict, twice (hit the cache).
    assert verify(public, message, signature, cache)
    assert verify(public, message, signature, cache)
    assert cache_stats()["verify_hits"] == hits + 1
    # Tampered message / signature / key must all be re-checked and fail.
    assert not verify(public, b"the fake message", signature, cache)
    bumped = Signature(signature.commitment, (signature.response + 1) % Q)
    assert not verify(public, message, bumped, cache)
    shifted = Signature(signature.commitment * G % P, signature.response)
    assert not verify(public, message, shifted, cache)
    assert not verify(other_public, message, signature, cache)
    # And the genuine one still passes afterwards.
    assert verify(public, message, signature, cache)


def test_negative_verdicts_are_cached_too():
    private, public = generate_keypair(b"cache-negative")
    signature = sign(private, b"signed")
    cache = VerifyCache()
    assert not verify(public, b"unsigned", signature, cache)
    assert cache.verdicts == {_cache_key(public, b"unsigned", signature): False}
    misses = cache_stats()["verify_misses"]
    assert not verify(public, b"unsigned", signature, cache)
    assert cache_stats()["verify_misses"] == misses  # second check was a hit
    # Without a cache nothing is kept: the same check misses again.
    assert not verify(public, b"unsigned", signature)
    assert cache_stats()["verify_misses"] == misses + 1


def test_batch_verify_rejects_batch_with_one_bad_signature(monkeypatch):
    items = []
    for index in range(5):
        private, public = generate_keypair(f"batch-bad-{index}".encode())
        message = f"batch message {index}".encode()
        items.append((public, message, sign(private, message)))
    cache = VerifyCache()
    assert batch_verify(items, cache)
    for position in range(len(items)):
        tampered = list(items)
        public, message, signature = tampered[position]
        tampered[position] = (public, message + b"!", signature)
        assert not batch_verify(tampered, cache)
    # Every member of the accepted batch is certified: re-checking it
    # combines nothing.
    monkeypatch.setattr(schnorr, "multi_pow", None)
    assert batch_verify(items, cache)


def test_batch_success_seeds_the_per_signature_cache():
    private, public = generate_keypair(b"batch-seeds")
    message = b"quorum statement"
    signature = sign(private, message)
    cache = VerifyCache()
    assert batch_verify([(public, message, signature)], cache)
    hits = cache_stats()["verify_hits"]
    assert verify(public, message, signature, cache)
    assert cache_stats()["verify_hits"] == hits + 1


# ----------------------------------------------------------------------
# Multi-exponentiation: dedup, one Straus pass — and no per-key fixed-base tables
# ----------------------------------------------------------------------
def test_multi_pow_dedupes_repeated_bases():
    rng = random.Random(29)
    base = pow(G, rng.getrandbits(200), P)
    other = pow(G, rng.getrandbits(200), P)
    e1, e2, e3 = (rng.getrandbits(300) for _ in range(3))
    pairs = [(base, e1), (other, e3), (base, e2)]
    expected = pow(base, e1 + e2, P) * pow(other, e3, P) % P
    assert multi_pow(pairs) == expected


def test_multi_pow_zero_base_and_zero_exponents():
    assert multi_pow([(0, 5)]) == 0
    assert multi_pow([(0, 0)]) == 1  # 0^0 == 1, matching builtins.pow
    assert multi_pow([(123, 0), (456, 0)]) == 1


def _product(pairs):
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
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
    assert multi_pow(pairs) == _product(pairs)


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
        assert fastexp._straus([pair]) == _product([pair])
    assert fastexp._straus(pairs) == _product(pairs)


def test_window_width_is_the_cost_minimum():
    # The closed-form rule must agree with minimising the stated cost,
    # table 2^(w-1) plus bits/(w+1) windows, by brute force.
    for bits in (1, 6, 7, 24, 25, 64, 80, 81, 240, 241, 320, 672, 673, 2048, 4609):
        best = min(range(1, 13), key=lambda w: (1 << (w - 1)) + bits / (w + 1))
        assert fastexp._window_width(bits) == best


def test_straus_multiplication_count_is_pinned(monkeypatch):
    # No clock: a 10-signature-shaped batch is ~320 shared squarings
    # plus ~20 multiplications per 64-bit weight (4-entry table, ~16
    # windows) and ~69 per 320-bit e·w (16 entries, ~53 windows).  The
    # one-window-for-all pass this replaced took ~1,500.  Every one of
    # them is a call of the kernel's multiply.
    tables = []
    odd_powers = fastexp._odd_powers

    def recording(base, powers):
        tables.append(odd_powers(base, powers))
        return tables[-1]

    multiplications = []
    kernel_mul = montgomery.mul
    monkeypatch.setattr(fastexp, "_odd_powers", recording)
    monkeypatch.setattr(
        montgomery, "mul", lambda r, a, b: multiplications.append(r) or kernel_mul(r, a, b)
    )
    rng = random.Random(43)
    pairs = _signature_shaped(rng, weights=10, keys=10)
    assert multi_pow(pairs) == _product(pairs)
    assert 1000 <= len(multiplications) <= 1300
    assert sorted(len(table) for table in tables) == [4] * 10 + [16] * 10

    del tables[:]
    weights_only = _signature_shaped(rng, weights=12, keys=0)
    assert multi_pow(weights_only) == _product(weights_only)
    assert tables and max(len(table) for table in tables) <= 4


def test_multi_pow_mixed_lengths_in_one_call():
    rng = random.Random(47)
    bases = [rng.getrandbits(256) % P for _ in range(6)]
    pairs = [
        (base, rng.getrandbits(bits) | 1 << (bits - 1))
        for base, bits in zip(bases, (1, 7, 64, 320, 600, 2100))
    ]
    assert multi_pow(pairs) == _product(pairs)
    # A duplicate whose summed exponent carries into a new top bit
    # (and with it, here, a wider window).
    carry = [(bases[2], (1 << 80) - 1), (bases[3], 5), (bases[2], 1)]
    assert multi_pow(carry) == _product(carry)
    # Bases congruent to 1 drop out; one congruent to 0 zeroes the product.
    ones = [(1, 12345), (P + 1, 99), (bases[4], rng.getrandbits(64))]
    assert multi_pow(ones) == _product(ones)
    zero = ones + [(2 * P, 3)]
    assert multi_pow(zero) == 0 == _product(zero)


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
        assert multi_pow([(base, e1), (fresh, e2)]) == expected
    ValidatorSet.generate(1, seed="no-table-check")
    assert set(built) <= {G}


# ----------------------------------------------------------------------
# The libcrypto kernel: type safety and ownership
# ----------------------------------------------------------------------
def test_multi_pow_refuses_a_kept_table_of_plain_ints():
    # ctypes would read the ints as addresses: only a key_table() is a table.
    rng = random.Random(59)
    base, exponent = pow(G, rng.getrandbits(64), P), rng.getrandbits(320)
    powers = [pow(base, digit, P) for digit in range(1, 64, 2)]
    with pytest.raises(TypeError, match="key_table"):
        multi_pow([(base, exponent)], tables={base: powers})
    kept = {base: fastexp.key_table(base)}
    assert multi_pow([(base, exponent)], tables=kept) == pow(base, exponent, P)


def test_a_collected_verify_cache_frees_its_key_tables():
    import gc

    items = []
    for index in range(3):
        private, public = generate_keypair(f"free-tables-{index}".encode())
        items.append((public, b"m%d" % index, sign(private, b"m%d" % index)))
    gc.collect()  # tables an earlier test left in a reference cycle
    baseline = montgomery.live()
    cache = VerifyCache()
    assert batch_verify(items, cache)
    assert len(cache.key_tables) == 3
    assert montgomery.live() == baseline + 3 * (1 << (fastexp.KEY_WINDOW - 1))
    del cache
    gc.collect()
    assert montgomery.live() == baseline
    # A check without a cache leaves nothing allocated either.
    assert batch_verify(items)
    assert montgomery.live() == baseline


def test_kernel_residues_stay_in_their_process():
    import copy
    import pickle

    table = fastexp.key_table(pow(G, 61, P))
    with pytest.raises(TypeError):
        pickle.dumps(table)
    with pytest.raises(TypeError):
        copy.copy(table)
    with pytest.raises(ImportError, match="BN_no_such_symbol"):
        montgomery._bind("BN_no_such_symbol", None)
