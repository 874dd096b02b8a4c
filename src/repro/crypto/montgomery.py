"""Montgomery arithmetic mod the RFC 3526 prime, in OpenSSL's libcrypto.

Every multiplication mod ``p`` that :mod:`repro.crypto.fastexp` makes
is one call to ``BN_mod_mul_montgomery`` here: ~1.3 µs for a 2048-bit
product with the ctypes call included, where ``a * b % p`` on Python
ints takes ~10 µs (and a squaring ~8 µs).  A value lives in a libcrypto
``BIGNUM`` as its Montgomery residue ``x·R mod p`` (``R = 2^2048``) and
is known to Python only by the ``BIGNUM``'s address; ints cross the
boundary at :func:`load` (in) and :func:`to_int` (out).

Platform requirement: OpenSSL ≥ 1.1 libcrypto, reached through the
library CPython's own ``_hashlib`` extension links.  Its symbols are
resolved on that module's handle (``dlsym`` searches a handle's
dependencies), so nothing is loaded that the interpreter has not loaded
already, and no ``ldconfig`` subprocess runs (``ctypes.util.find_library``
would start one).  A missing symbol is an ``ImportError`` naming it.

Ownership — one owner for each allocation:

* a :class:`Residues` owns its ``BIGNUM`` s and frees them when it is
  collected (``weakref.finalize``): the generator's window table lives
  as long as the process, a run's kept key tables as long as the
  :class:`repro.crypto.schnorr.VerifyCache` that files them;
* a call's temporaries (:func:`scratch`) come from the one scratch
  context between :func:`start` and :func:`end` — ``BN_CTX_start`` /
  ``BN_CTX_end`` — which every caller pairs in ``try``/``finally``;
* ``p``, its Montgomery context, the scratch context and the read-out
  buffer live as long as the process.  They are per process: nothing
  in :mod:`repro` uses threads, and a forked worker (the verify pool,
  a sweep's workers) gets its own copy of all of them.

Every function has its ``argtypes`` and ``restype`` declared, and every
return that can signal failure is checked: a ``NULL`` or ``0`` raises
:class:`~repro.errors.CryptoError`.
"""

from __future__ import annotations

import ctypes
import weakref

from repro.errors import CryptoError

# RFC 3526, group 14 (2048-bit MODP).  p is a safe prime, and odd, as
# Montgomery form requires.
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
_BYTES = (P.bit_length() + 7) // 8

try:
    import _hashlib
except ImportError as error:
    raise ImportError(
        "repro.crypto.fastexp needs OpenSSL's libcrypto, reached through "
        "CPython's _hashlib module, and this interpreter has no _hashlib"
    ) from error

_LIB = ctypes.CDLL(_hashlib.__file__)
_PTR, _INT = ctypes.c_void_p, ctypes.c_int


def _bind(name: str, restype, *argtypes):
    try:
        function = getattr(_LIB, name)
    except AttributeError:
        raise ImportError(
            f"repro.crypto.fastexp needs libcrypto's {name}, which is not "
            f"resolvable through {_hashlib.__file__} (OpenSSL >= 1.1 required)"
        ) from None
    function.restype = restype
    function.argtypes = list(argtypes)
    return function


_version = _bind("OpenSSL_version", ctypes.c_char_p, _INT)
_bn_new = _bind("BN_new", _PTR)
_bn_free = _bind("BN_free", None, _PTR)
_bn_copy = _bind("BN_copy", _PTR, _PTR, _PTR)
_bin2bn = _bind("BN_bin2bn", _PTR, ctypes.c_char_p, _INT, _PTR)
_bn2binpad = _bind("BN_bn2binpad", _INT, _PTR, ctypes.c_char_p, _INT)
_ctx_new = _bind("BN_CTX_new", _PTR)
_ctx_start = _bind("BN_CTX_start", None, _PTR)
_ctx_get = _bind("BN_CTX_get", _PTR, _PTR)
_ctx_end = _bind("BN_CTX_end", None, _PTR)
_mont_new = _bind("BN_MONT_CTX_new", _PTR)
_mont_set = _bind("BN_MONT_CTX_set", _INT, _PTR, _PTR, _PTR)
_to_mont = _bind("BN_to_montgomery", _INT, _PTR, _PTR, _PTR, _PTR)
_from_mont = _bind("BN_from_montgomery", _INT, _PTR, _PTR, _PTR, _PTR)
_mont_mul = _bind("BN_mod_mul_montgomery", _INT, _PTR, _PTR, _PTR, _PTR, _PTR)
_exp_mont = _bind("BN_mod_exp_mont", _INT, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR)

#: The libcrypto the kernel is bound to, e.g. ``OpenSSL 3.0.19 27 Jan 2026``.
VERSION = _version(0).decode()


def _failed(name: str) -> CryptoError:
    # In practice libcrypto's BN calls fail only when out of memory.
    return CryptoError(f"libcrypto {name} failed")


def _new() -> int:
    pointer = _bn_new()
    if not pointer:
        raise _failed("BN_new")
    return pointer


def _set(pointer: int, value: int) -> None:
    """Store the plain int ``value`` (``0 <= value``) in a ``BIGNUM``."""
    data = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if not _bin2bn(data, len(data), pointer):
        raise _failed("BN_bin2bn")


# The process's constants: p, its Montgomery context, a scratch context
# and the Montgomery residue of 1.
_CTX = _ctx_new()
_MONT = _mont_new()
if not (_CTX and _MONT):
    raise _failed("BN_CTX_new / BN_MONT_CTX_new")
_P = _new()
_set(_P, P)
if not _mont_set(_MONT, _P, _CTX):
    raise _failed("BN_MONT_CTX_set")
_ONE = _new()
_set(_ONE, 1)
if not _to_mont(_ONE, _ONE, _MONT, _CTX):
    raise _failed("BN_to_montgomery")
_BUFFER = ctypes.create_string_buffer(_BYTES)

_live = 0


def live() -> int:
    """How many ``BIGNUM`` s :class:`Residues` objects hold right now."""
    return _live


def _free(pointers: list) -> None:
    global _live
    for pointer in pointers:
        _bn_free(pointer)
    _live -= len(pointers)


class Residues:
    """``count`` Montgomery residues mod ``p`` that this object owns.

    ``pointers`` holds their addresses, for :func:`mul` and friends;
    the ``BIGNUM`` s are freed when the object is collected.  An object
    of any other type is never read as a table of residues, and this
    one can be neither pickled nor copied: its addresses mean nothing
    outside this process's heap.
    """

    __slots__ = ("pointers", "__weakref__")

    def __init__(self, count: int):
        global _live
        if count < 1:
            raise ValueError("a table holds at least one residue")
        pointers: list[int] = []
        weakref.finalize(self, _free, pointers)
        for _ in range(count):
            pointers.append(_new())
            _live += 1
        self.pointers = tuple(pointers)

    def __len__(self) -> int:
        return len(self.pointers)

    def __reduce__(self):
        raise TypeError("kernel residues live in one process's heap")


def start() -> None:
    """Open a frame of the scratch context; :func:`end` closes it."""
    _ctx_start(_CTX)


def end() -> None:
    """Close the innermost frame: its :func:`scratch` values are gone."""
    _ctx_end(_CTX)


def scratch(count: int) -> list[int]:
    """``count`` temporaries that live until the open frame ends."""
    pointers = [_ctx_get(_CTX) for _ in range(count)]
    if not all(pointers):
        raise _failed("BN_CTX_get")
    return pointers


def load(r: int, value: int) -> None:
    """``r = value·R mod p``: ``value`` in ``[0, p)`` enters the kernel."""
    if not 0 <= value < P:
        raise ValueError("a residue is loaded from [0, p)")
    _set(r, value)
    if not _to_mont(r, r, _MONT, _CTX):
        raise _failed("BN_to_montgomery")


def set_one(r: int) -> None:
    """``r = R mod p``: the residue of 1."""
    if not _bn_copy(r, _ONE):
        raise _failed("BN_copy")


def mul(r: int, a: int, b: int) -> None:
    """``r = a·b·R⁻¹ mod p``: one Montgomery multiplication, the residue
    of the product.  ``r`` may be ``a`` or ``b`` (or both)."""
    if not _mont_mul(r, a, b, _MONT, _CTX):
        raise _failed("BN_mod_mul_montgomery")


def _read(pointer: int) -> int:
    if _bn2binpad(pointer, _BUFFER, _BYTES) != _BYTES:
        raise _failed("BN_bn2binpad")
    return int.from_bytes(_BUFFER.raw, "big")


def to_int(a: int) -> int:
    """The plain value in ``[0, p)`` whose residue ``a`` holds."""
    start()
    try:
        (plain,) = scratch(1)
        if not _from_mont(plain, a, _MONT, _CTX):
            raise _failed("BN_from_montgomery")
        return _read(plain)
    finally:
        end()


def exp(base: int, exponent: int) -> int:
    """``base^exponent mod p`` (``base`` in ``[0, p)``, ``exponent >= 0``)
    in one ``BN_mod_exp_mont``: libcrypto's own sliding window."""
    if not 0 <= base < P:
        raise ValueError("a base is loaded from [0, p)")
    if exponent < 0:
        raise ValueError("negative exponent")
    start()
    try:
        result, bn_base, bn_exponent = scratch(3)
        _set(bn_base, base)
        _set(bn_exponent, exponent)
        if not _exp_mont(result, bn_base, bn_exponent, _P, _CTX, _MONT):
            raise _failed("BN_mod_exp_mont")
        return _read(result)
    finally:
        end()
