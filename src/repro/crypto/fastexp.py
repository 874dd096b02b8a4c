"""Fast modular exponentiation for the Schnorr hot path.

Profiling shows most benchmark wall-clock inside 2048-bit modular
exponentiation for Schnorr sign/verify, and — since the market runtime
batches whole blocks of order signatures into one combined check —
inside :func:`multi_pow` specifically.  Every multiplication mod ``p``
below, squarings included, is one call into libcrypto's Montgomery
arithmetic (:mod:`repro.crypto.montgomery`, ~1.3 µs where ``a * b % p``
on Python ints takes ~10 µs): the algorithms run on Montgomery
residues, and ints cross into the kernel only at this module's API —
bases in, one result out.  Costs below are counted in those kernel
multiplications.  The kernel needs OpenSSL's libcrypto as CPython's
``_hashlib`` links it; without it importing this module raises
``ImportError``.  Three kinds of bases get a mechanism of their own:

* the **generator** ``g`` — every sign computes ``g^k`` and every
  verify computes ``g^s``; the base never changes, so one process-wide
  fixed-base window table turns each exponentiation into ~``bits/w``
  multiplications with **no squarings at all**.  The table is sized to
  the exponents it serves (:data:`GENERATOR_BANDS`): 7-bit windows
  below bit 259, where the 256-bit signing and key exponents that make
  84–93% of the calls live, and 5-bit windows up to bit 595 for the
  few long fold and lone-check exponents — 6,807 residues (~2.3 MiB
  of ``BIGNUM`` s), where 7-bit windows up to bit 640 took 11,684;
* everything a batched check multiplies together — **public keys**
  ``y^{e·w}`` and **signature commitments** ``R^w`` — goes through one
  cold multi-exponentiation that shares a single squaring chain across
  the whole batch;
* a **public key that recurs** across a run's batched checks keeps
  its odd-power table — the one the multi-exponentiation below would
  build for it anyway, at :data:`KEY_WINDOW` — in a store the caller
  owns and hands in (``tables``); the table is kernel residues that
  live as long as the store (one per simulator,
  :class:`repro.chain.ledger.VerifyAggregator`), and nothing here keeps
  one.

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
82 (ROADMAP "Recent").  Both crossovers (this one and
:data:`KEY_WINDOW`'s) are counts of multiplications, and they hold in
the kernel unchanged: a squaring costs what a product costs there,
and a fresh table entry adds one scratch ``BIGNUM`` to its
multiplication, far below the multiplication itself.

A single public-key exponentiation (:func:`base_pow`) is one
``BN_mod_exp_mont``, libcrypto's own sliding window.  The kept key
tables are not a fixed-base tier: a 384-bit fixed-base window table
per key costs ~1,440 multiplications to build and, inside a batch
whose squarings are already shared, saves almost nothing per use, so
it only repays itself in long runs over few keys that no benchmark
workload reaches (ROADMAP, parked); a kept odd-power table costs 32
multiplications, once, and saves 23 in every later call that names
its key.

The RFC 3526 group-14 constants are exported here (``p`` is the
kernel's one modulus, defined beside it); :mod:`repro.crypto.schnorr`
re-exports them, so existing imports keep working.  Every function is
an exact drop-in for ``pow(base, e, p)`` — signatures produced through
the generator table are byte-identical to the seed implementation,
which the test suite asserts.
"""

from __future__ import annotations

from repro.crypto import montgomery as kernel
from repro.crypto.montgomery import P

Q = (P - 1) // 2
G = 4

# Honest exponents are far shorter than q: every scalar in the scheme
# (keys, nonces, challenges) is derived from a 256-bit hash, so a
# response s = k + e·x is ~513 bits and never wraps mod q, and the
# longest exponent g is ever raised to is a batch sum Σw·s of n
# responses under 64-bit weights: 577 + log2(n) bits, under 595 for
# any fold of fewer than 2^18 members (579 is the widest any benchmark
# workload reaches; the 640-bit cap this replaced kept rows no run
# read).  The generator table is sized for those real exponents — an
# out-of-range exponent (possible only in forged inputs) transparently
# falls back to ``BN_mod_exp_mont``.
GENERATOR_TABLE_BITS = 595

# The table's windows, lowest bits first, as ``(top bit, window)``
# bands.  The table is built once per process, so it affords wide
# windows where the traffic is: 84–93% of a run's ``generator_pow``
# calls are signing nonces and key-generation scalars of at most 257
# bits, read 7 bits at a time.  Only the two long exponents — a fold's
# ``g^Σws`` and a lone check's ``g^s`` (≤ 514 bits), 54–208 calls a
# run — reach the rows above bit 259, and there a 5-bit window keeps a
# third of the residues per bit (31/5 against 127/7) for 14–19 more
# multiplications per call: 6,807 residues where one 7-bit window up
# to 640 bits took 11,684, and fewer generator multiplications, build
# included, in every benchmark workload (BENCHMARKS.md, "Memory").
GENERATOR_BANDS = ((259, 7), (GENERATOR_TABLE_BITS, 5))

# The sliding-window width of a recurring public key's odd-power table
# (:func:`key_table`), kept for the life of a simulator's verification
# plane instead of rebuilt in every multi-exponentiation.  A base pays
# 2^(w-1) multiplications for the table, once, and ~bits/(w+1) window
# hits per use: a 32-entry table (~10 KB of BIGNUMs) lets a ~320-bit
# ``e·w`` cost 46 hits where the per-call width-5 table costs 16 + 53,
# all of them kernel multiplications of one price.  Shared by
# n uses, the table costs 32/n per use, and :func:`_window_width`'s
# rule (w+1 beats w iff bits > 2^(w-1)·(w+1)·(w+2)) picks 6 for that
# exponent once n is 3–5.
KEY_WINDOW = 6


class FixedBaseTable:
    """Windowed fixed-base exponentiation: ``base^e mod p``.

    ``bands`` lists ``(top, window)`` pairs, lowest bits first: the
    exponent's bits below the first ``top`` are read ``window`` bits at
    a time, the bits from there up to the next ``top`` at that band's
    window, and so on; the last ``top`` is the widest exponent the
    table serves (``max_bits``).  Each window position ``i`` of width
    ``w`` gets a row of ``base^(d · 2^i)`` for every digit
    ``0 < d < 2^w``, as kernel residues the table owns; an
    exponentiation is then one table lookup and one multiplication per
    non-zero window digit — no squarings.
    """

    __slots__ = ("base", "max_bits", "_residues", "_rows")

    def __init__(self, base: int, bands: tuple[tuple[int, int], ...]):
        # (window, row count) per band; a band's rows start where the
        # band below ended, so they may run past its own top.
        spans = []
        bottom = 0
        for top, window in bands:
            if not 1 <= window <= 16:
                raise ValueError("window size out of range")
            if top <= bottom:
                raise ValueError("band tops must rise")
            count = -(-(top - bottom) // window)
            spans.append((window, count))
            bottom += count * window
        self.base = base % P
        self.max_bits = bands[-1][0]
        self._residues = kernel.Residues(
            sum(count * ((1 << window) - 1) for window, count in spans)
        )
        pointers = self._residues.pointers
        # One (window, mask, row) per position; digit 0 is never looked
        # up, so a row holds digits 1..mask.
        rows = []
        used = 0
        for window, count in spans:
            mask = (1 << window) - 1
            for _ in range(count):
                rows.append((window, mask, (None,) + pointers[used:used + mask]))
                used += mask
        mul = kernel.mul
        kernel.load(rows[0][2][1], self.base)
        for index, (_, mask, row) in enumerate(rows):
            anchor = row[1]
            for digit in range(2, mask + 1):
                mul(row[digit], row[digit - 1], anchor)
            # The next row's anchor is anchor^(2^window) = anchor^mask · anchor.
            if index + 1 < len(rows):
                mul(rows[index + 1][2][1], row[mask], anchor)
        self._rows = tuple(rows)

    def pow(self, exponent: int) -> int:
        """Return ``base^exponent mod p`` (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent.bit_length() > self.max_bits:
            return kernel.exp(self.base, exponent)
        mul = kernel.mul
        kernel.start()
        try:
            (acc,) = kernel.scratch(1)
            kernel.set_one(acc)
            for window, mask, row in self._rows:
                if not exponent:
                    break
                digit = exponent & mask
                if digit:
                    mul(acc, acc, row[digit])
                exponent >>= window
            return kernel.to_int(acc)
        finally:
            kernel.end()


# ----------------------------------------------------------------------
# Generator: one table per process, built lazily.
# ----------------------------------------------------------------------
_generator_table: FixedBaseTable | None = None


def generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table for ``g`` (built on first use)."""
    global _generator_table
    if _generator_table is None:
        _generator_table = FixedBaseTable(G, GENERATOR_BANDS)
    return _generator_table


def generator_pow(exponent: int) -> int:
    """``g^exponent mod p`` through the fixed-base table."""
    return generator_table().pow(exponent)


def base_pow(base: int, exponent: int) -> int:
    """``base^exponent mod p`` for a public key: one ``BN_mod_exp_mont``.

    A named function because :func:`repro.crypto.schnorr.verify` is its
    call site and the benchmark's tracer wraps it by name.
    """
    return kernel.exp(base % P, exponent)


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


def _odd_powers(base: int, powers):
    """Fill ``powers``, ``2^(w-1)`` kernel residues, with ``base^1,
    base^3, …, base^(2^w - 1)`` — all a sliding window reads — and
    return it.  Runs inside an open kernel frame (the squaring is a
    temporary of it)."""
    mul = kernel.mul
    kernel.load(powers[0], base)
    if len(powers) > 1:
        (square,) = kernel.scratch(1)
        mul(square, powers[0], powers[0])
        for index in range(1, len(powers)):
            mul(powers[index], powers[index - 1], square)
    return powers


def key_table(base: int) -> kernel.Residues:
    """A recurring public key's odd powers mod ``p`` at
    :data:`KEY_WINDOW`, owned by the returned
    :class:`~repro.crypto.montgomery.Residues`: what :func:`multi_pow`
    reads for it when handed in ``tables``."""
    table = kernel.Residues(1 << (KEY_WINDOW - 1))
    kernel.start()
    try:
        _odd_powers(base % P, table.pointers)
    finally:
        kernel.end()
    return table


def _straus(items: list[tuple[int, int]], tables: dict | None = None) -> int:
    """Interleaved sliding-window multi-exp (Möller) over distinct bases.

    Every base is recoded at the width its *own* exponent repays
    (:func:`_window_width`) against a table of its odd powers only, and
    its hits are filed under their bit positions; one squaring chain
    then walks down from the highest position and multiplies in
    whatever is filed where it stands.  A short exponent thus costs a
    small table and few hits, and joins the chain only at its own top
    bit — no base pays for the longest exponent in the batch.  A base
    found in ``tables`` reads its odd powers from there instead, at the
    width the kept table's length gives (``2^(w-1)`` entries); a value
    there that is not a :func:`key_table` raises ``TypeError``.  The
    fresh tables and the accumulator are temporaries of one kernel
    frame, so nothing outlives the call.
    """
    mul = kernel.mul
    kernel.start()
    try:
        # Position 0 is always present so the chain squares down to it.
        filed: dict[int, list[int]] = {0: []}
        for base, exponent in items:
            table = tables.get(base) if tables else None
            if table is None:
                width = _window_width(exponent.bit_length())
                powers = _odd_powers(base, kernel.scratch(1 << (width - 1)))
            elif type(table) is kernel.Residues:
                powers = table.pointers
                width = len(powers).bit_length()
            else:
                raise TypeError(
                    f"a kept table is a key_table(), not {type(table).__name__}"
                )
            for position, digit in _recode(exponent, width):
                filed.setdefault(position, []).append(powers[digit >> 1])
        positions = sorted(filed, reverse=True)
        (acc,) = kernel.scratch(1)
        kernel.set_one(acc)
        reached = positions[0]
        for position in positions:
            for _ in range(reached - position):
                mul(acc, acc, acc)
            for power in filed[position]:
                mul(acc, acc, power)
            reached = position
        return kernel.to_int(acc)
    finally:
        kernel.end()


def multi_pow(pairs: list[tuple[int, int]], tables: dict | None = None) -> int:
    """``Π base_i^{exp_i} mod p`` in one shared squaring chain.

    Repeated bases are merged by summing their exponents (two
    signatures under one public key cost one table and one set of
    windows, not two); the distinct remainder pays one interleaved
    sliding-window pass (:func:`_straus`).  ``tables`` maps a base to
    its kept odd powers (:func:`key_table`); it is only read, and every
    other base builds its table for this call alone.
    """
    merged: dict[int, int] = {}
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("negative exponent")
        base %= P
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
    return _straus(items, tables)


def cache_stats() -> dict:
    """Table counters; ``bench/rep.py --trace`` indexes both keys."""
    return {
        # Literal zeros: no per-base table exists.
        "base_table_hits": 0,
        "base_table_misses": 0,
    }
