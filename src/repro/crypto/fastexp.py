"""Fast modular exponentiation for the Schnorr hot path.

Profiling shows most benchmark wall-clock inside 2048-bit modular
exponentiation for Schnorr sign/verify, and — since the market runtime
batches whole blocks of order signatures into one combined check —
inside :func:`multi_pow` specifically.  Two kinds of bases get a
mechanism of their own:

* the **generator** ``g`` — every sign computes ``g^k`` and every
  verify computes ``g^s``; the base never changes, so one process-wide
  fixed-base window table turns each exponentiation into ~``bits/w``
  modular multiplications with **no squarings at all**;
* everything a batched check multiplies together — **public keys**
  ``y^{e·w}`` and **signature commitments** ``R^w`` — goes through one
  cold multi-exponentiation that shares a single squaring chain across
  the whole batch.

:func:`multi_pow` works in two stages: (1) duplicate bases are merged
by *summing their exponents*; (2) the product is computed with either
Straus interleaved windowing (small batches: one shared squaring
chain, per-base digit tables) or a Pippenger bucket pass (large
batches: per-window digit buckets, no per-base tables at all), chosen
by a per-call cost model over the batch size and exponent bit-length.

A single public-key exponentiation (:func:`base_pow`) is plain
``builtins.pow``.  There is deliberately no per-public-key table
tier: a 384-bit window table costs ~1,440 multiplications to build
and, inside a batch whose squarings are already shared, saves almost
nothing per use, so it only repaid itself in long runs over few keys
that no benchmark workload reaches (ROADMAP "Recent", PR 21).

The RFC 3526 group-14 constants live here (single source of truth);
:mod:`repro.crypto.schnorr` re-exports them, so existing imports keep
working.  Every function is an exact drop-in for ``pow(base, e, p)``
— signatures produced through the generator table are byte-identical
to the seed implementation, which the test suite asserts.
"""

from __future__ import annotations

# RFC 3526, group 14 (2048-bit MODP).  p is a safe prime.
P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
Q = (P - 1) // 2
G = 4

# Honest exponents are far shorter than q: every scalar in the scheme
# (keys, nonces, challenges) is derived from a 256-bit hash, so g is
# raised to at most ~650 bits (a response s = k + e·x never wraps mod
# q, and batch sums Σw·s add a short weight).  The generator table is
# sized for those real exponents — an out-of-range exponent (possible
# only in forged inputs) transparently falls back to ``builtins.pow``.
GENERATOR_TABLE_BITS = 1024  # covers s (~513 bits) and batch Σw·s sums

# The window trades table-build cost against per-exponentiation cost;
# the table is built once per process, so it affords a wide one.
GENERATOR_WINDOW = 7

# Below this many pairs a Pippenger pass cannot beat Straus (the
# bucket aggregation floor dominates); skip the cost model entirely.
_PIPPENGER_MIN_PAIRS = 24


class FixedBaseTable:
    """Windowed fixed-base exponentiation: ``base^e mod modulus``.

    Precomputes ``base^(d · 2^(w·i))`` for every window ``i`` and digit
    ``d``; an exponentiation is then one table lookup and one modular
    multiplication per non-zero window digit — no squarings.
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "_rows", "_mask")

    def __init__(self, base: int, modulus: int, max_bits: int, window: int):
        if not 1 <= window <= 16:
            raise ValueError("window size out of range")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        self._mask = (1 << window) - 1
        radix = 1 << window
        rows = []
        anchor = self.base
        for _ in range((max_bits + window - 1) // window):
            row = [1] * radix
            row[1] = anchor
            for digit in range(2, radix):
                row[digit] = row[digit - 1] * anchor % modulus
            rows.append(row)
            # The next window's anchor is base^(2^(w·(i+1))) = anchor^radix.
            anchor = row[radix - 1] * anchor % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base^exponent mod modulus`` (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent.bit_length() > self.max_bits:
            return pow(self.base, exponent, self.modulus)
        acc = 1
        index = 0
        modulus = self.modulus
        rows = self._rows
        mask = self._mask
        window = self.window
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * rows[index][digit] % modulus
            exponent >>= window
            index += 1
        return acc


# ----------------------------------------------------------------------
# Generator: one wide-window table per process, built lazily.
# ----------------------------------------------------------------------
_generator_table: FixedBaseTable | None = None


def generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table for ``g`` (built on first use)."""
    global _generator_table
    if _generator_table is None:
        _generator_table = FixedBaseTable(G, P, GENERATOR_TABLE_BITS, GENERATOR_WINDOW)
    return _generator_table


def generator_pow(exponent: int) -> int:
    """``g^exponent mod p`` through the fixed-base table."""
    return generator_table().pow(exponent)


def base_pow(base: int, exponent: int) -> int:
    """``base^exponent mod p`` for a public key: plain ``builtins.pow``.

    A named function because :func:`repro.crypto.schnorr.verify` is its
    call site and the benchmark's tracer wraps it by name.
    """
    return pow(base, exponent, P)


# ----------------------------------------------------------------------
# Multi-exponentiation: merge duplicate bases -> Straus/Pippenger.
# ----------------------------------------------------------------------
def _straus_window(max_bits: int) -> int:
    """Window width minimizing Straus cost for this exponent length.

    Per-pair cost ~ table build ``2^w - 2`` plus one multiplication per
    non-zero digit, ``(max_bits/w)·(1 - 2^-w)``; squarings are shared
    and independent of ``w``, so the optimum depends only on the
    exponent bit-length, not on the batch size.
    """
    best_w, best_cost = 1, float("inf")
    for w in range(1, 9):
        radix = 1 << w
        levels = -(-max_bits // w)
        cost = (radix - 2) + levels * (1.0 - 1.0 / radix)
        if cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _pippenger_cost(pairs: int, max_bits: int, c: int) -> float:
    """Estimated multiplications for one Pippenger pass at width ``c``.

    Per level: one bucket insertion per pair with a non-zero digit,
    one ``running`` update per occupied bucket, and one ``total``
    update per bucket *slot* below the highest occupied one — the
    suffix-product walk touches every slot, which is what drives the
    classic ``c ~ log2(pairs)`` optimum.
    """
    levels = -(-max_bits // c)
    radix = 1 << c
    return levels * (pairs + min(radix - 1, pairs) + radix)


def _pippenger_window(pairs: int, max_bits: int) -> int:
    """Bucket width minimizing Pippenger cost for this batch shape."""
    best_c, best_cost = 1, float("inf")
    for c in range(1, 13):
        cost = _pippenger_cost(pairs, max_bits, c)
        if cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _straus(items: list[tuple[int, int]], modulus: int, window: int) -> int:
    """Interleaved windowed multi-exp with one shared squaring chain."""
    mask = (1 << window) - 1
    radix = mask + 1
    tables = []
    max_bits = 0
    for base, exponent in items:
        row = [1] * radix
        row[1] = base
        for digit in range(2, radix):
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


def _pippenger(items: list[tuple[int, int]], modulus: int, window: int) -> int:
    """Bucket-method multi-exp: no per-base tables, per-window buckets.

    For each window level, every pair lands in the bucket of its digit
    (one multiplication per pair with a non-zero digit); the buckets
    are then folded with the running-product trick — the suffix product
    ``running_d = Π_{j>=d} bucket_j`` accumulated once per occupied
    bucket gives ``Π_d bucket_d^d`` in ~2 multiplications per bucket.
    """
    mask = (1 << window) - 1
    max_bits = max(exponent.bit_length() for _, exponent in items)
    acc = 1
    for index in range((max_bits + window - 1) // window - 1, -1, -1):
        if acc != 1:
            for _ in range(window):
                acc = acc * acc % modulus
        shift = index * window
        buckets: list[int | None] = [None] * (mask + 1)
        for base, exponent in items:
            digit = (exponent >> shift) & mask
            if digit:
                held = buckets[digit]
                buckets[digit] = base if held is None else held * base % modulus
        running = total = None
        for digit in range(mask, 0, -1):
            held = buckets[digit]
            if held is not None:
                running = held if running is None else running * held % modulus
            if running is not None:
                total = running if total is None else total * running % modulus
        if total is not None:
            acc = acc * total % modulus
    return acc


def _cold_multi(items: list[tuple[int, int]], modulus: int) -> int:
    """Multi-exp over distinct bases: pick Straus or Pippenger by cost."""
    max_bits = max(exponent.bit_length() for _, exponent in items)
    pairs = len(items)
    w = _straus_window(max_bits)
    if pairs < _PIPPENGER_MIN_PAIRS:
        return _straus(items, modulus, w)
    radix = 1 << w
    straus_cost = pairs * ((radix - 2) + -(-max_bits // w) * (1.0 - 1.0 / radix))
    c = _pippenger_window(pairs, max_bits)
    if _pippenger_cost(pairs, max_bits, c) < straus_cost:
        return _pippenger(items, modulus, c)
    return _straus(items, modulus, w)


def multi_pow(pairs: list[tuple[int, int]], modulus: int = P) -> int:
    """``Π base_i^{exp_i} mod modulus`` in one shared squaring chain.

    Repeated bases are merged by summing their exponents (two
    signatures under one public key cost one digit walk, not two);
    the distinct remainder pays one multi-exponentiation — Straus for
    small batches, Pippenger buckets for large ones, chosen by a
    per-call cost model.
    """
    if not pairs:
        return 1 % modulus
    if modulus == 1:
        return 0
    merged: dict[int, int] = {}
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("negative exponent")
        base %= modulus
        merged[base] = merged.get(base, 0) + exponent
    items: list[tuple[int, int]] = []
    for base, exponent in merged.items():
        if exponent == 0 or base == 1:
            continue
        if base == 0:
            return 0
        items.append((base, exponent))
    if not items:
        return 1
    return _cold_multi(items, modulus)


def cache_stats() -> dict:
    """Diagnostics for the generator table (read by perfsuite and ``bench/``)."""
    return {
        "generator_table_built": _generator_table is not None,
        # bench/rep.py --trace indexes both keys; no per-base table exists.
        "base_table_hits": 0,
        "base_table_misses": 0,
    }
