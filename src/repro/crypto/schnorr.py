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
a shared-squaring multi-exponent for batches; public keys get no
table), and there is **one verdict store**: a bounded LRU keyed on the
full ``(key, message, signature)`` triple.  The timelock protocol
re-verifies the same path signature at every hop and the CBC protocol
re-verifies the same certificate on every chain, so repeats are dict
hits.  There is also one batched check, :func:`batch_verify_many`
(groups in, verdicts out; :func:`batch_verify` is its one-group case):
it reads that store — a group of certified members is ``True``, a
member already refused makes its group ``False`` — and writes it, a
passing combination certifying each member, and it is the only place a
forgery among merged groups is isolated.  Block production fills the
store an instant at a time through the same call: the signatures that
every block due at one simulated instant declares go through one
:func:`batch_verify_many` before the first of them executes
(:class:`repro.chain.ledger.VerifyAggregator`), so the contracts'
one-by-one :func:`verify` calls are hits as well — only a verdict that
*was* computed is ever stored, and no hit or miss is counted ahead of
the call that asks.  None of this
changes a single signature byte, and a cached verdict can never accept
a tampered input: any change to the key, message, or signature is a
different cache key.
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
    multi_pow,
)
from repro.crypto.hashing import bytes_to_int, hash_concat, int_to_bytes, tagged_hash
from repro.errors import CryptoError

_SCALAR_BYTES = (Q.bit_length() + 7) // 8

# Batch-verification weights: the Bellare–Garay–Rabin small-exponent
# test.  64-bit random weights give a 2^-64 soundness bound (a forged
# signature passes only if the forger predicts its Fiat-Shamir weight)
# while keeping the weighted exponents short: ``R^w`` costs a 64-bit
# exponent and ``pk^{e·w}`` a ~320-bit one, so the whole batched check
# squares ~320 times instead of ~384, and since the multi-exp sizes
# each base's window to its own exponent a commitment costs ~20
# multiplications (4-entry table + ~16 windows) beside a key's ~69.
_BATCH_WEIGHT_BYTES = 8


class LruDict:
    """A small bounded mapping with least-recently-used eviction.

    Plain ``dict`` preserves insertion order, so "touch" is delete +
    reinsert and the eviction victim is the first key.  Both
    :meth:`get` and :meth:`put` touch, so the first key really is the
    least-recently-*used* one, not merely the oldest-inserted.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """Return the cached value (touching it) or ``None``."""
        data = self._data
        if key in data:
            value = data.pop(key)
            data[key] = value
            self.hits += 1
            return value
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        """Insert ``key`` (touching it), evicting the LRU entry."""
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.maxsize:
            del data[next(iter(data))]
        data[key] = value

    def peek(self, key):
        """The cached value or ``None``: no touch, no hit/miss count."""
        return self._data.get(key)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


_VERIFY_CACHE = LruDict(1 << 15)


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
    same keypair, keeping simulations reproducible.  Memoized: sweeps
    regenerate the same labelled parties and validators for every deal,
    and both returned objects are frozen.
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


def verify(public_key: PublicKey, message: bytes, signature: Signature) -> bool:
    """Return ``True`` iff ``signature`` is valid for ``message``.

    This is the operation the gas model charges 3000 gas for when it
    runs inside a contract (see :mod:`repro.chain.gas`).  Wall-clock
    only: verdicts are memoized on the full input triple, so repeated
    re-verification of the same signature (every hop of a path
    signature, every chain checking the same certificate) costs a dict
    lookup.  A tampered message, key, or signature is a different
    cache key and is always re-checked from scratch.
    """
    if not _in_range(signature):
        return False
    cached = _VERIFY_CACHE.get(_cache_key(public_key, message, signature))
    if cached is not None:
        return cached
    return _check_alone(public_key, message, signature)


def _in_range(signature: Signature) -> bool:
    return 1 < signature.commitment < P and 0 <= signature.response < Q


def _check_alone(public_key: PublicKey, message: bytes, signature: Signature) -> bool:
    """:func:`verify`'s equation on a cold cache; the verdict is stored."""
    e = _challenge(signature.commitment, public_key, message)
    lhs = generator_pow(signature.response)
    rhs = (signature.commitment * base_pow(public_key.point, e)) % P
    result = _equal_up_to_sign(lhs, rhs)
    _VERIFY_CACHE.put(_cache_key(public_key, message, signature), result)
    return result


def _combined_check(items) -> bool:
    """Evaluate the weighted linear combination for a staged batch.

        g^(Σ w_i·s_i)  ==  ± Π R_i^{w_i} · pk_i^{e_i·w_i}   (mod p)

    Weights are small BGR exponents drawn from the batch's transcript,
    and the products ``e_i·w_i`` stay unreduced — at ~320 bits they are
    far below ``q``, so the value is unchanged while the multi-exp
    squares only as far as the longest real exponent.
    """
    transcript = hash_concat(
        *[
            public_key.to_bytes() + message + signature.to_bytes()
            for public_key, message, signature in items
        ]
    )
    lhs_exponent = 0
    pairs = []
    for index, (public_key, message, signature) in enumerate(items):
        material = tagged_hash(
            "repro/schnorr/batch-weight", transcript + index.to_bytes(8, "big")
        )
        weight = bytes_to_int(material[:_BATCH_WEIGHT_BYTES]) or 1
        e = _challenge(signature.commitment, public_key, message)
        lhs_exponent += weight * signature.response
        pairs.append((signature.commitment, weight))
        pairs.append((public_key.point, e * weight))
    # Honest responses keep the sum well inside the generator table's
    # range; only forged out-of-band responses need the reduction.
    if lhs_exponent.bit_length() >= GENERATOR_TABLE_BITS:
        lhs_exponent %= Q
    return _equal_up_to_sign(generator_pow(lhs_exponent), multi_pow(pairs, P))


def _standing_verdict(items) -> bool | None:
    """What a group's verdict already is without exponentiation, or ``None``.

    ``False`` for a member out of range or one already refused,
    ``True`` when every member is certified (an empty group vacuously)
    — read without touching the cache or its counters.
    """
    certified = True
    for public_key, message, signature in items:
        if not _in_range(signature):
            return False
        known = _VERIFY_CACHE.peek(_cache_key(public_key, message, signature))
        if known is False:
            return False
        certified = certified and known is True
    return True if certified else None


def _check_and_certify(items) -> bool:
    """One combined check; acceptance certifies each member on its own."""
    ok = _combined_check(items)
    if ok:
        for item in items:
            _VERIFY_CACHE.put(_cache_key(*item), True)
    return ok


def batch_verify_many(
    groups: list[list[tuple[PublicKey, bytes, Signature]]],
) -> list[bool]:
    """One verdict per group of signatures, from one combined check.

    The §9 "signature combining" idea, realized as standard batch
    verification with Bellare–Garay–Rabin small-exponent weights drawn
    by Fiat-Shamir over everything being checked.  A group is whatever
    the caller needs one verdict for — an order's signatures, a
    transaction's claims, a single vote — and this is the one place a
    forgery among them is isolated.

    Groups the verdict store already answers (:func:`_standing_verdict`)
    are settled on the spot.  Of all the others, each member that is
    not certified yet is staged once — however many groups claim it —
    and the staged members are folded into **one** linear combination:
    one ``generator_pow`` on the left, one
    :func:`repro.crypto.fastexp.multi_pow` on the right (which merges
    the public keys that recur across groups), a fraction of the cost of
    checking each signature alone.  If it passes, every member is
    certified in the per-signature cache, so the later one-by-one
    :func:`verify` of the same triple is a hit.  If it fails, each
    folded group gets a combined check of its members still uncertified
    (a lone group's is the one that just failed).  One staged member is
    not worth a multi-exp: it is checked the way :func:`verify` does it,
    and that verdict is stored.  Nothing here counts a cache hit or
    miss.  Sound: a forged signature only passes if the adversary
    predicts its 64-bit weight, which the hash prevents — and, both
    sides being compared up to sign like :func:`verify`'s, a group
    passes exactly when each member would on its own.
    """
    verdicts: list[bool] = []
    folded: list[int] = []
    staged: dict[tuple, tuple] = {}
    for index, items in enumerate(groups):
        verdict = _standing_verdict(items)
        verdicts.append(verdict is not False)  # provisional for folded ones
        if verdict is None:
            folded.append(index)
            staged.update(_uncertified(items))
    if len(staged) == 1:
        (item,) = staged.values()
        ok = _check_alone(*item)
        for index in folded:
            verdicts[index] = ok
    elif staged and not _check_and_certify(list(staged.values())):
        for index in folded:
            fresh = list(_uncertified(groups[index]).values())
            verdicts[index] = len(folded) > 1 and (
                not fresh or _check_and_certify(fresh)
            )
    return verdicts


def _uncertified(items) -> dict[tuple, tuple]:
    """``items``' members without a standing verdict, keyed, deduplicated."""
    fresh = {}
    for item in items:
        key = _cache_key(*item)
        if _VERIFY_CACHE.peek(key) is None:
            fresh[key] = item
    return fresh


def batch_verify(items: list[tuple[PublicKey, bytes, Signature]]) -> bool:
    """``True`` iff every signature in ``items`` is valid: one group."""
    return batch_verify_many([items])[0]


def cache_stats() -> dict:
    """Hit/miss/size counters for the verification caches."""
    return {
        "verify_hits": _VERIFY_CACHE.hits,
        "verify_misses": _VERIFY_CACHE.misses,
        "verify_size": len(_VERIFY_CACHE),
    }


def clear_verification_caches() -> None:
    """Drop all memoized verification verdicts (tests, benchmarks)."""
    _VERIFY_CACHE.clear()
