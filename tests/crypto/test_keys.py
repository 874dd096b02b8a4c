"""Unit tests for addresses, keypairs, and the wallet directory."""

import pytest

from repro.crypto.keys import Address, KeyPair, Wallet
from repro.crypto.schnorr import sign
from repro.errors import CryptoError


def test_address_must_be_20_bytes():
    with pytest.raises(CryptoError):
        Address(b"short")
    Address(b"\x01" * 20)  # no raise


def test_address_from_label_is_deterministic():
    assert KeyPair.from_label("alice").address == KeyPair.from_label("alice").address
    assert KeyPair.from_label("alice").address != KeyPair.from_label("bob").address


def test_address_hex_prefix():
    address = KeyPair.from_label("alice").address
    assert address.hex().startswith("0x")
    assert len(address.hex()) == 42


def test_keypair_sign_verifies_under_wallet():
    keypair = KeyPair.from_label("alice")
    wallet = Wallet()
    wallet.register(keypair)
    signature = keypair.sign(b"message")
    assert wallet.verify(keypair.address, b"message", signature)
    assert not wallet.verify(keypair.address, b"other", signature)


def test_wallet_rejects_unknown_address():
    wallet = Wallet()
    stranger = KeyPair.from_label("stranger")
    assert not wallet.knows(stranger.address)
    assert not wallet.verify(stranger.address, b"m", stranger.sign(b"m"))
    with pytest.raises(CryptoError):
        wallet.public_key(stranger.address)


def test_wallet_addresses_sorted_and_len():
    wallet = Wallet()
    keys = [KeyPair.from_label(label) for label in ("a", "b", "c")]
    for keypair in keys:
        wallet.register(keypair)
    assert len(wallet) == 3
    assert wallet.addresses() == sorted(kp.address for kp in keys)


def test_addresses_are_orderable():
    a = KeyPair.from_label("a").address
    b = KeyPair.from_label("b").address
    assert (a < b) or (b < a)
