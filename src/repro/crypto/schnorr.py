"""Schnorr signatures over the RFC 3526 2048-bit MODP safe-prime group.

The paper's protocols verify signatures inside contracts (path
signatures in the timelock protocol, validator certificates in the CBC
protocol), and the §7.1 gas analysis charges 3000 gas per verification.
To exercise the same code paths as a production chain we use a *real*
public-key signature scheme rather than an HMAC stand-in: classic
Schnorr signatures in the multiplicative group of integers modulo the
RFC 3526 group-14 prime ``p``.

``p`` is a safe prime, so ``q = (p - 1) / 2`` is prime and the squares
modulo ``p`` form a cyclic group of order ``q`` in which discrete log is
believed hard.  We take ``g = 4`` (a quadratic residue) as generator.

Verification is *cofactored*: ``Z_p*`` is that group times ``{±1}``, and
a signature is accepted when ``g^s == ±R·pk^e`` — the equation in the
quotient by ``{±1}``, which is again the order-``q`` group.  Nobody can
sign for a key that way who could not before (the sign carries no
discrete log), and it is what makes one-by-one and batched verification
accept the *same* set: a weighted batch cannot see a factor ``-1``
under an even weight, so with a strict ``==`` a signer could publish
``R' = p - g^k`` and be refused by :func:`verify` yet pass
:func:`batch_verify` alongside the right neighbours (Ed25519's
cofactor-8 version of this is why ZIP-215 fixes ``[8]`` into both).

Nonces are derived deterministically from the private key and message
(RFC 6979 style), so signing is reproducible — a requirement of the
simulator's determinism policy (DESIGN.md §7).

Performance: all exponentiation goes through
:mod:`repro.crypto.fastexp` (a fixed-base window table for ``g`` and
a shared-squaring multi-exponent for batches, in which a recurring
public key can read an odd-power table its caller keeps), whose every
multiplication mod ``p`` is one call into libcrypto's Montgomery
arithmetic (:mod:`repro.crypto.montgomery`; OpenSSL's libcrypto, as
CPython's ``_hashlib`` links it, is required), and verdicts
are kept **per run**: a :class:`VerifyCache` holds a run's verdicts,
keyed on the full ``(key, message, signature)`` triple, beside its key
tables, and every check takes one (``cache=``) or keeps nothing beyond
the call.  The timelock protocol re-verifies the same path signature at
every hop and the CBC protocol re-verifies the same certificate on
every chain, so repeats within a run are dict hits; no run reads a
verdict another run computed.  There is one batched check,
:func:`batch_verify_many` (groups in, verdicts out;
:func:`batch_verify` is its one-group case): it reads the cache — a
group of certified members is ``True``, a member already refused makes
its group ``False`` — and writes it, a passing combination certifying
each member, and it is the only place a forgery among merged groups is
isolated.  Isolation halves the failed combination
under its own weights: each split evaluates one half and gets the
other by division, so one forgery among ``m`` signatures costs
``⌈log₂ m⌉`` half-size checks, not one check per group, and every
valid signature of the combination leaves certified (Pastuszak et
al., *Identification of Bad Signatures in Batches*, PKC 2000).  Block
production fills a simulator's cache an instant at a time through
the same call: the signatures that every block due at one simulated
instant declares go through one :func:`batch_verify_many` before the
first of them executes (:class:`repro.chain.ledger.VerifyAggregator`,
which owns its simulator's cache), so the contracts' one-by-one
:func:`verify` calls on that cache are hits as well — only a verdict that
*was* computed is ever stored, and no hit or miss is counted ahead of
the call that asks.  None of this changes a single signature byte, and
a cached verdict can never accept a tampered input: any change to the
key, message, or signature is a different cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.fastexp import (
    G,
    GENERATOR_TABLE_BITS,
    P,
    Q,
    base_pow,
    generator_pow,
    key_table,
    multi_pow,
)
from repro.crypto.hashing import bytes_to_int, hash_concat, int_to_bytes, tagged_hash
from repro.crypto.montgomery import Residues
from repro.errors import CryptoError

_SCALAR_BYTES = (Q.bit_length() + 7) // 8

# Batch-verification weights: the Bellare–Garay–Rabin small-exponent
# test.  64-bit random weights give a 2^-64 soundness bound (a forged
# signature passes only if the forger predicts its Fiat-Shamir weight)
# while keeping the weighted exponents short: ``R^w`` costs a 64-bit
# exponent and ``pk^{e·w}`` a ~320-bit one, so the whole batched check
# squares ~320 times instead of ~384, and since the multi-exp sizes
# each base's window to its own exponent a commitment costs ~20 kernel
# multiplications (4-entry table + ~16 windows) beside a key's ~69
# (~46 when the key's table is kept: fastexp.KEY_WINDOW), at ~1.3 µs
# each, squarings included.
_BATCH_WEIGHT_BYTES = 8


class VerifyCache:
    """One run's signature-verification state.

    ``verdicts`` maps a ``(key, message, signature)`` triple to the
    verdict computed for it; ``key_tables`` maps a recurring public key
    to its odd-power table (:func:`repro.crypto.fastexp.key_table`, kernel
    residues freed when the table is collected, so with the cache), or
    is ``None`` to keep no table.  The run that computed a verdict is
    the only one that reads it: a simulator's
    :class:`repro.chain.ledger.VerifyAggregator` owns one, and a call
    given none uses a throwaway one (``keep_tables=False``) that keeps
    nothing beyond the call.
    """

    __slots__ = ("verdicts", "key_tables")

    def __init__(self, keep_tables: bool = True):
        self.verdicts: dict[tuple, bool] = {}
        self.key_tables: dict[int, Residues] | None = {} if keep_tables else None


# The process's verify() hit/miss totals (cache_stats); nothing reads
# them to decide work.
_COUNTS = {"verify_hits": 0, "verify_misses": 0}


@dataclass(frozen=True)
class PrivateKey:
    """A Schnorr private key: a scalar in ``[1, q)``."""

    scalar: int

    def __post_init__(self) -> None:
        if not 1 <= self.scalar < Q:
            raise CryptoError("private key scalar out of range")

    def public_key(self) -> "PublicKey":
        """Derive the matching public key ``g^x mod p`` (memoized)."""
        return PublicKey(_public_point(self.scalar))


@lru_cache(maxsize=4096)
def _public_point(scalar: int) -> int:
    """``g^scalar``, memoized for the whole process.

    Unlike verdicts this memo may outlive a run: it is a pure function
    of the scalar that calls only :func:`generator_pow`, so a hit
    returns what a miss computes, decides no verdict, and moves no
    ``multi_pow`` or ``sign`` count.
    """
    return generator_pow(scalar)


@dataclass(frozen=True)
class PublicKey:
    """A Schnorr public key: a group element ``g^x mod p``."""

    point: int

    def __post_init__(self) -> None:
        if not 1 < self.point < P:
            raise CryptoError("public key element out of range")

    def to_bytes(self) -> bytes:
        """Serialize as fixed-width big-endian bytes."""
        return int_to_bytes(self.point, (P.bit_length() + 7) // 8)

    def fingerprint(self) -> bytes:
        """Return a 20-byte identifier (an address-style hash)."""
        return tagged_hash("repro/pubkey", self.to_bytes())[:20]


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(R, s)`` with ``g^s == ±R * pk^e``."""

    commitment: int  # R = g^k mod p
    response: int  # s = k + e * x mod q

    def to_bytes(self) -> bytes:
        """Serialize the signature for hashing/transport."""
        return int_to_bytes(self.commitment, (P.bit_length() + 7) // 8) + int_to_bytes(
            self.response, _SCALAR_BYTES
        )


def _challenge(commitment: int, public_key: PublicKey, message: bytes) -> int:
    digest = tagged_hash(
        "repro/schnorr/challenge",
        int_to_bytes(commitment, (P.bit_length() + 7) // 8)
        + public_key.to_bytes()
        + message,
    )
    return bytes_to_int(digest) % Q


@lru_cache(maxsize=4096)
def generate_keypair(seed: bytes) -> tuple[PrivateKey, PublicKey]:
    """Derive a keypair deterministically from ``seed``.

    Distinct seeds give independent keys; the same seed always gives the
    same keypair, keeping simulations reproducible.  Memoized for the
    whole process: sweeps regenerate the same labelled parties and
    validators for every deal, and both returned objects are frozen.
    The memo cannot change how much gated work a run does: it is a pure
    function of the seed that calls only :func:`generator_pow` (through
    :func:`_public_point`), so it decides no verdict and moves no
    ``multi_pow`` or ``sign`` count.
    """
    scalar = bytes_to_int(tagged_hash("repro/schnorr/keygen", seed)) % (Q - 1) + 1
    private = PrivateKey(scalar)
    return private, private.public_key()


def sign(private_key: PrivateKey, message: bytes) -> Signature:
    """Sign ``message``, deriving the nonce deterministically."""
    nonce_material = tagged_hash(
        "repro/schnorr/nonce",
        int_to_bytes(private_key.scalar, _SCALAR_BYTES) + message,
    )
    k = bytes_to_int(nonce_material) % (Q - 1) + 1
    commitment = generator_pow(k)
    e = _challenge(commitment, private_key.public_key(), message)
    response = (k + e * private_key.scalar) % Q
    return Signature(commitment, response)


def _cache_key(public_key: PublicKey, message: bytes, signature: Signature) -> tuple:
    return (public_key.point, message, signature.commitment, signature.response)


def _equal_up_to_sign(lhs: int, rhs: int) -> bool:
    """``lhs == ±rhs (mod p)``: the cofactored comparison (module docstring)."""
    return lhs == rhs or lhs + rhs == P


def verify(
    public_key: PublicKey,
    message: bytes,
    signature: Signature,
    cache: VerifyCache | None = None,
) -> bool:
    """Return ``True`` iff ``signature`` is valid for ``message``.

    This is the operation the gas model charges 3000 gas for when it
    runs inside a contract (see :mod:`repro.chain.gas`).  Wall-clock
    only: verdicts are memoized in ``cache`` on the full input triple,
    so repeated re-verification of the same signature within a run
    (every hop of a path signature, every chain checking the same
    certificate) costs a dict lookup.  A tampered message, key, or
    signature is a different cache key and is always re-checked from
    scratch.  Without a ``cache`` the verdict is not kept.
    """
    if not _in_range(signature):
        return False
    verdicts = {} if cache is None else cache.verdicts
    cached = verdicts.get(_cache_key(public_key, message, signature))
    if cached is not None:
        _COUNTS["verify_hits"] += 1
        return cached
    _COUNTS["verify_misses"] += 1
    return _check_alone(public_key, message, signature, verdicts)


def _in_range(signature: Signature) -> bool:
    return 1 < signature.commitment < P and 0 <= signature.response < Q


def _check_alone(
    public_key: PublicKey, message: bytes, signature: Signature, verdicts: dict
) -> bool:
    """:func:`verify`'s equation on a cold cache; the verdict is stored."""
    e = _challenge(signature.commitment, public_key, message)
    lhs = generator_pow(signature.response)
    # A lone product mod p stays on ints: the kernel would add two loads and a read-out.
    rhs = (signature.commitment * base_pow(public_key.point, e)) % P
    result = _equal_up_to_sign(lhs, rhs)
    verdicts[_cache_key(public_key, message, signature)] = result
    return result


def _fold_terms(items) -> list[tuple]:
    """Each member's share of the weighted combination over ``items``.

    One ``(cache key, w·s, ((R, w), (pk, e·w)))`` per member: weights
    are small BGR exponents drawn from the transcript of *all* of
    ``items``, so any subset of the terms checks its members under the
    weights the whole fold drew.  The products ``e·w`` stay unreduced —
    at ~320 bits they are far below ``q``, so the value is unchanged
    while the multi-exp squares only as far as the longest real exponent.
    """
    transcript = hash_concat(
        *[
            public_key.to_bytes() + message + signature.to_bytes()
            for public_key, message, signature in items
        ]
    )
    terms = []
    for index, (public_key, message, signature) in enumerate(items):
        material = tagged_hash(
            "repro/schnorr/batch-weight", transcript + index.to_bytes(8, "big")
        )
        weight = bytes_to_int(material[:_BATCH_WEIGHT_BYTES]) or 1
        e = _challenge(signature.commitment, public_key, message)
        terms.append((
            _cache_key(public_key, message, signature),
            weight * signature.response,
            ((signature.commitment, weight), (public_key.point, e * weight)),
        ))
    return terms


def _combined_check(terms, key_tables) -> tuple[int, int]:
    """Both sides of the weighted linear combination over ``terms``:

        g^(Σ w_i·s_i)   and   Π R_i^{w_i} · pk_i^{e_i·w_i}   (mod p)

    — one ``generator_pow`` and one ``multi_pow``; the terms pass when
    the two are equal up to sign.
    """
    lhs_exponent = sum(term[1] for term in terms)
    # Honest responses keep the sum well inside the generator table's
    # range; only forged out-of-band responses need the reduction.
    if lhs_exponent.bit_length() >= GENERATOR_TABLE_BITS:
        lhs_exponent %= Q
    pairs = [pair for term in terms for pair in term[2]]
    return generator_pow(lhs_exponent), multi_pow(pairs, key_tables)


def _certify(terms, verdicts: dict) -> None:
    for term in terms:
        verdicts[term[0]] = True


def _isolate(terms, lhs: int, rhs: int, cache: VerifyCache) -> None:
    """Certify every valid member of a failed fold, by halving.

    A part of the fold is held as two sides that are equal up to sign
    exactly when its weighted equation holds.  A failing part of two or
    more members evaluates its left half (:func:`_combined_check`); its
    right half's sides are the part's divided by the left's, compared
    by cross-multiplying — ``lhs/l == ±rhs/r`` iff ``lhs·r == ±rhs·l``
    — so that half costs no exponentiation (nor an inversion).  A
    passing part's members are certified and a failing one is split
    again, down to lone members.  A lone member's equation ``z^w == ±1``
    with ``0 < w < 2^64 < q`` forces ``z == ±1``, which is exactly
    :func:`verify`'s cofactored verdict: a failing one is a forgery,
    left uncertified.
    """
    failing = [(terms, lhs, rhs)]
    while failing:
        terms, lhs, rhs = failing.pop()
        if len(terms) == 1:
            continue
        half = len(terms) // 2
        left_lhs, left_rhs = _combined_check(terms[:half], cache.key_tables)
        # Lone products mod p stay on ints, as in _check_alone.
        for part in (
            (terms[:half], left_lhs, left_rhs),
            (terms[half:], lhs * left_rhs % P, rhs * left_lhs % P),
        ):
            if _equal_up_to_sign(part[1], part[2]):
                _certify(part[0], cache.verdicts)
            else:
                failing.append(part)


def _standing_verdict(items, verdicts: dict) -> bool | None:
    """What a group's verdict already is without exponentiation, or ``None``.

    ``False`` for a member out of range or one already refused,
    ``True`` when every member is certified (an empty group vacuously)
    — read without touching the hit/miss counters.
    """
    certified = True
    for public_key, message, signature in items:
        if not _in_range(signature):
            return False
        known = verdicts.get(_cache_key(public_key, message, signature))
        if known is False:
            return False
        certified = certified and known is True
    return True if certified else None


def batch_verify_many(
    groups: list[list[tuple[PublicKey, bytes, Signature]]],
    cache: VerifyCache | None = None,
) -> list[bool]:
    """One verdict per group of signatures, from one combined check.

    The §9 "signature combining" idea, realized as standard batch
    verification with Bellare–Garay–Rabin small-exponent weights drawn
    by Fiat-Shamir over everything being checked.  A group is whatever
    the caller needs one verdict for — an order's signatures, a
    transaction's claims, a single vote — and this is the one place a
    forgery among them is isolated.

    Groups the cache already answers (:func:`_standing_verdict`)
    are settled on the spot.  Of all the others, each member that is
    not certified yet is staged once — however many groups claim it —
    and the staged members are folded into **one** linear combination:
    one ``generator_pow`` on the left, one
    :func:`repro.crypto.fastexp.multi_pow` on the right (which merges
    the public keys that recur across groups), a fraction of the cost of
    checking each signature alone.  If it passes, every member is
    certified in the cache, so the later one-by-one
    :func:`verify` of the same triple is a hit.  If a fold of two or
    more groups fails, its members are isolated by halving under the
    fold's own weights (:func:`_isolate`): with one forgery among ``m``
    members that is ``⌈log₂ m⌉`` half-size evaluations, and exactly the
    valid members end certified.  A group is then ``True`` iff all its
    members are certified.  A lone folded group that fails
    is ``False`` and nothing is stored.  One staged member is not worth
    a multi-exp: it is checked the way :func:`verify` does it, and that
    verdict is stored.  Nothing here counts a cache hit or miss.

    ``cache`` is the caller's :class:`VerifyCache`: its verdicts are
    read and written as above, and each staged key's odd-power table
    (:func:`repro.crypto.fastexp.key_table`) is looked up in its
    ``key_tables`` or added there before the fold, so verdicts and
    tables outlive the call as long as the caller keeps the cache.
    ``None`` keeps nothing beyond the call.

    Sound: a forged signature only passes — folded, or in any part of a
    halving, whose weights were drawn from the whole transcript, the
    forgery included — if the adversary predicts its 64-bit weight,
    which the hash prevents; and, both sides being compared up to sign
    like :func:`verify`'s, a group passes exactly when each member would
    on its own.
    """
    if cache is None:
        cache = VerifyCache(keep_tables=False)
    known, key_tables = cache.verdicts, cache.key_tables
    verdicts: list[bool] = []
    folded: list[int] = []
    staged: dict[tuple, tuple] = {}
    for index, items in enumerate(groups):
        verdict = _standing_verdict(items, known)
        verdicts.append(verdict is not False)  # provisional for folded ones
        if verdict is None:
            folded.append(index)
            staged.update(_uncertified(items, known))
    if len(staged) == 1:
        (item,) = staged.values()
        ok = _check_alone(*item, known)
        for index in folded:
            verdicts[index] = ok
        return verdicts
    if not staged:
        return verdicts
    if key_tables is not None:
        for public_key, _, _ in staged.values():
            if public_key.point not in key_tables:
                key_tables[public_key.point] = key_table(public_key.point)
    terms = _fold_terms(staged.values())
    lhs, rhs = _combined_check(terms, key_tables)
    if _equal_up_to_sign(lhs, rhs):
        _certify(terms, known)
    elif len(folded) == 1:
        verdicts[folded[0]] = False
    else:
        _isolate(terms, lhs, rhs, cache)
        for index in folded:
            verdicts[index] = _standing_verdict(groups[index], known) is True
    return verdicts


def _uncertified(items, verdicts: dict) -> dict[tuple, tuple]:
    """``items``' members without a standing verdict, keyed, deduplicated."""
    fresh = {}
    for item in items:
        key = _cache_key(*item)
        if key not in verdicts:
            fresh[key] = item
    return fresh


def batch_verify(
    items: list[tuple[PublicKey, bytes, Signature]], cache: VerifyCache | None = None
) -> bool:
    """``True`` iff every signature in ``items`` is valid: one group."""
    return batch_verify_many([items], cache)[0]


def cache_stats() -> dict:
    """This process's :func:`verify` hit and miss totals, over all caches."""
    return dict(_COUNTS)
