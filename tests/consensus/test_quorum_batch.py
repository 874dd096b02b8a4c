"""Tests for batched quorum-certificate verification."""

from repro.consensus.validators import ValidatorSet, batch_verify_quorum
from repro.crypto.schnorr import clear_verification_caches


def make_certificate(f=1, message=b"a quorum statement"):
    validators = ValidatorSet.generate(f, seed="batch-quorum")
    return validators, validators.quorum_sign(message)


def check(validators, message, signatures):
    return batch_verify_quorum(
        validators.public_keys(), validators.quorum, message, signatures
    )


def test_valid_certificate_batch_verifies():
    validators, signatures = make_certificate()
    clear_verification_caches()
    assert check(validators, b"a quorum statement", signatures)


def test_batch_rejects_wrong_message():
    validators, signatures = make_certificate()
    assert not check(validators, b"another statement", signatures)


def test_batch_rejects_sub_quorum():
    validators, signatures = make_certificate()
    assert not check(validators, b"a quorum statement", signatures[:-1])


def test_batch_rejects_duplicate_signer():
    validators, signatures = make_certificate()
    padded = signatures[:-1] + (signatures[0],)
    assert not check(validators, b"a quorum statement", padded)


def test_batch_rejects_outsider_signer():
    validators, signatures = make_certificate()
    outsiders = ValidatorSet.generate(1, seed="batch-outsiders")
    foreign = outsiders.quorum_sign(b"a quorum statement")
    mixed = signatures[:-1] + (foreign[0],)
    assert not check(validators, b"a quorum statement", mixed)


def test_batch_rejects_one_tampered_signature():
    validators, signatures = make_certificate(message=b"signed")
    # Signatures over a different message than the one being checked,
    # spliced into an otherwise valid certificate.
    other = validators.quorum_sign(b"something else")
    mixed = signatures[:-1] + (other[-1],)
    assert not check(validators, b"signed", mixed)
