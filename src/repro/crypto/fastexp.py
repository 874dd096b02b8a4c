"""Fast modular exponentiation for the Schnorr hot path.

Profiling shows most benchmark wall-clock inside 2048-bit modular
exponentiation for Schnorr sign/verify, and — since the market runtime
batches whole blocks of order signatures into one combined check —
inside :func:`multi_pow` specifically.  Three kinds of bases get a
mechanism of their own:

* the **generator** ``g`` — every sign computes ``g^k`` and every
  verify computes ``g^s``; the base never changes, so one process-wide
  fixed-base window table turns each exponentiation into ~``bits/w``
  modular multiplications with **no squarings at all**;
* everything a batched check multiplies together — **public keys**
  ``y^{e·w}`` and **signature commitments** ``R^w`` — goes through one
  cold multi-exponentiation that shares a single squaring chain across
  the whole batch;
* a **public key that recurs** across a run's batched checks keeps
  its odd-power table — the one the multi-exponentiation below would
  build for it anyway, at :data:`KEY_WINDOW` — in a store the caller
  owns and hands in (``tables``); the store lives as long as its
  owner (one per simulator, :class:`repro.chain.ledger.VerifyAggregator`)
  and nothing here keeps one.

:func:`multi_pow` merges duplicate bases by *summing their exponents*
and computes the product in one interleaved sliding-window pass
(Straus/Möller: one shared squaring chain; each base gets a table of
its odd powers and a window width sized to *its own* exponent, so a
commitment under a 64-bit weight builds 4 entries and uses ~16 of them
where a public key under a ~320-bit ``e·w`` builds 16 and uses ~53 —
or, found in ``tables``, builds nothing and reads its 32 entries ~46
times).  Called without ``tables`` nothing outlives the call.  There
is deliberately no bucket (Pippenger) kernel: it only wins past ≈ 270
mixed-length bases, and the widest call any workload or gate makes has
82 (ROADMAP "Recent").

A single public-key exponentiation (:func:`base_pow`) is plain
``builtins.pow``.  The kept key tables are not a fixed-base tier: a
384-bit fixed-base window table per key costs ~1,440 multiplications
to build and, inside a batch whose squarings are already shared, saves
almost nothing per use, so it only repays itself in long runs over few
keys that no benchmark workload reaches (ROADMAP, parked); a kept
odd-power table costs 32 multiplications, once, and saves 23 in every
later call that names its key.

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
# (keys, nonces, challenges) is derived from a 256-bit hash, so a
# response s = k + e·x is ~513 bits and never wraps mod q, and the
# longest exponent g is ever raised to is a batch sum Σw·s of n
# responses under 64-bit weights: 64 + 513 + log2(n) bits, under 600
# for any batch that fits in memory.  The generator table is sized for
# those real exponents — an out-of-range exponent (possible only in
# forged inputs) transparently falls back to ``builtins.pow``.
GENERATOR_TABLE_BITS = 640

# The window trades table-build cost against per-exponentiation cost;
# the table is built once per process, so it affords a wide one.
GENERATOR_WINDOW = 7

# The sliding-window width of a recurring public key's odd-power table
# (:func:`key_table`), kept for the life of a simulator's verification
# plane instead of rebuilt in every multi-exponentiation.  A base pays
# 2^(w-1) multiplications for the table, once, and ~bits/(w+1) window
# hits per use: a 32-entry table (~10 KB) lets a ~320-bit ``e·w`` cost
# 46 hits where the per-call width-5 table costs 16 + 53.  Shared by
# n uses, the table costs 32/n per use, and :func:`_window_width`'s
# rule (w+1 beats w iff bits > 2^(w-1)·(w+1)·(w+2)) picks 6 for that
# exponent once n is 3–5.
KEY_WINDOW = 6


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
# Multi-exponentiation: merge duplicate bases -> one Straus pass.
# ----------------------------------------------------------------------
def _window_width(bits: int) -> int:
    """Sliding-window width minimizing one base's cost in a Straus pass.

    A base with a ``bits``-bit exponent pays ``2^(w-1)`` multiplications
    for its odd-power table (one squaring, ``2^(w-1) - 1`` steps) and one
    per window, ``bits/(w+1)`` on average; the squaring chain is shared
    and paid whatever ``w`` is.  That sum is convex in ``w``, and ``w+1``
    beats ``w`` exactly when ``bits > 2^(w-1)·(w+1)·(w+2)``: width 3 for
    a 64-bit batch weight, 5 for a ~320-bit ``e·w``.
    """
    width = 1
    while bits > (1 << (width - 1)) * (width + 1) * (width + 2):
        width += 1
    return width


def _recode(exponent: int, width: int) -> list[tuple[int, int]]:
    """Sliding-window recoding: ``exponent == Σ digit · 2^position``.

    Returns ``(position, digit)`` hits, positions increasing, every
    digit odd and below ``2^width``, consecutive hits at least ``width``
    bits apart (a window opens on a set bit and the zeros between
    windows cost nothing).
    """
    mask = (1 << width) - 1
    hits = []
    position = 0
    while exponent:
        # Skip the run of zero bits below the next set one.
        zeros = (exponent & -exponent).bit_length() - 1
        exponent >>= zeros
        position += zeros
        hits.append((position, exponent & mask))
        exponent >>= width
        position += width
    return hits


def _odd_powers(base: int, width: int, modulus: int) -> list[int]:
    """``[base^1, base^3, …, base^(2^width - 1)]``: all a sliding window reads."""
    powers = [base]
    if width > 1:
        square = base * base % modulus
        for _ in range((1 << (width - 1)) - 1):
            powers.append(powers[-1] * square % modulus)
    return powers


def key_table(base: int) -> list[int]:
    """A recurring public key's odd powers mod ``p`` at :data:`KEY_WINDOW`:
    what :func:`multi_pow` reads for it when handed in ``tables``."""
    return _odd_powers(base, KEY_WINDOW, P)


def _straus(
    items: list[tuple[int, int]], modulus: int, tables: dict | None = None
) -> int:
    """Interleaved sliding-window multi-exp (Möller) over distinct bases.

    Every base is recoded at the width its *own* exponent repays
    (:func:`_window_width`) against a table of its odd powers only, and
    its hits are filed under their bit positions; one squaring chain
    then walks down from the highest position and multiplies in
    whatever is filed where it stands.  A short exponent thus costs a
    small table and few hits, and joins the chain only at its own top
    bit — no base pays for the longest exponent in the batch.  A base
    found in ``tables`` reads its odd powers from there instead, at the
    width the stored table's length gives (``2^(w-1)`` entries).
    """
    # Position 0 is always present so the chain squares down to it.
    filed: dict[int, list[int]] = {0: []}
    for base, exponent in items:
        powers = tables.get(base) if tables else None
        if powers is None:
            width = _window_width(exponent.bit_length())
            powers = _odd_powers(base, width, modulus)
        else:
            width = len(powers).bit_length()
        for position, digit in _recode(exponent, width):
            filed.setdefault(position, []).append(powers[digit >> 1])
    positions = sorted(filed, reverse=True)
    acc = 1
    reached = positions[0]
    for position in positions:
        for _ in range(reached - position):
            acc = acc * acc % modulus
        for power in filed[position]:
            acc = acc * power % modulus
        reached = position
    return acc


def multi_pow(
    pairs: list[tuple[int, int]], modulus: int = P, tables: dict | None = None
) -> int:
    """``Π base_i^{exp_i} mod modulus`` in one shared squaring chain.

    Repeated bases are merged by summing their exponents (two
    signatures under one public key cost one table and one set of
    windows, not two); the distinct remainder pays one interleaved
    sliding-window pass (:func:`_straus`).  ``tables`` maps a base to
    its kept odd powers mod ``modulus`` (:func:`key_table`); it is only
    read, and every other base builds its table for this call alone.
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
    return _straus(items, modulus, tables)


def cache_stats() -> dict:
    """Table counters; ``bench/rep.py --trace`` indexes both keys."""
    return {
        # Literal zeros: no per-base table exists.
        "base_table_hits": 0,
        "base_table_misses": 0,
    }
