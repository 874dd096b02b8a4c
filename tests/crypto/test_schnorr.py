"""Unit tests for the Schnorr signature scheme."""

import pytest

from repro.crypto.schnorr import (
    G,
    P,
    Q,
    PrivateKey,
    PublicKey,
    Signature,
    generate_keypair,
    sign,
    verify,
)
from repro.errors import CryptoError


def test_group_parameters_are_sound():
    # p is odd and q = (p-1)/2 exactly.
    assert P % 2 == 1
    assert 2 * Q + 1 == P
    # g generates a subgroup of order q: g^q == 1 (mod p).
    assert pow(G, Q, P) == 1
    assert G != 1


def test_keypair_derivation_is_deterministic():
    private1, public1 = generate_keypair(b"seed")
    private2, public2 = generate_keypair(b"seed")
    assert private1 == private2
    assert public1 == public2


def test_distinct_seeds_give_distinct_keys():
    _, public1 = generate_keypair(b"seed-a")
    _, public2 = generate_keypair(b"seed-b")
    assert public1 != public2


def test_public_key_matches_private():
    private, public = generate_keypair(b"seed")
    assert pow(G, private.scalar, P) == public.point


def test_sign_verify_roundtrip():
    private, public = generate_keypair(b"signer")
    message = b"a vote to commit"
    signature = sign(private, message)
    assert verify(public, message, signature)


def test_signing_is_deterministic():
    private, _ = generate_keypair(b"signer")
    assert sign(private, b"msg") == sign(private, b"msg")


def test_different_messages_give_different_signatures():
    private, _ = generate_keypair(b"signer")
    assert sign(private, b"msg-1") != sign(private, b"msg-2")


def test_verify_rejects_wrong_message():
    private, public = generate_keypair(b"signer")
    signature = sign(private, b"original")
    assert not verify(public, b"tampered", signature)


def test_verify_rejects_wrong_key():
    private, _ = generate_keypair(b"signer")
    _, other_public = generate_keypair(b"other")
    signature = sign(private, b"msg")
    assert not verify(other_public, b"msg", signature)


def test_verify_rejects_tampered_commitment():
    private, public = generate_keypair(b"signer")
    signature = sign(private, b"msg")
    forged = Signature((signature.commitment * G) % P, signature.response)
    assert not verify(public, b"msg", forged)


def test_verify_rejects_tampered_response():
    private, public = generate_keypair(b"signer")
    signature = sign(private, b"msg")
    forged = Signature(signature.commitment, (signature.response + 1) % Q)
    assert not verify(public, b"msg", forged)


def test_verify_rejects_out_of_range_values():
    private, public = generate_keypair(b"signer")
    signature = sign(private, b"msg")
    assert not verify(public, b"msg", Signature(0, signature.response))
    assert not verify(public, b"msg", Signature(signature.commitment, Q))


def test_private_key_range_enforced():
    with pytest.raises(CryptoError):
        PrivateKey(0)
    with pytest.raises(CryptoError):
        PrivateKey(Q)


def test_public_key_range_enforced():
    with pytest.raises(CryptoError):
        PublicKey(1)
    with pytest.raises(CryptoError):
        PublicKey(P)


def test_signature_serialization_is_fixed_width():
    private, _ = generate_keypair(b"signer")
    sig1 = sign(private, b"a")
    sig2 = sign(private, b"completely different message")
    assert len(sig1.to_bytes()) == len(sig2.to_bytes())


def test_fingerprint_is_20_bytes_and_stable():
    _, public = generate_keypair(b"signer")
    assert len(public.fingerprint()) == 20
    assert public.fingerprint() == public.fingerprint()
