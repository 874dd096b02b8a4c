"""Tests for Schnorr batch verification (§9 signature combining)."""

from repro.crypto.fastexp import P, Q, generator_pow, multi_pow
from repro.crypto.schnorr import (
    PublicKey,
    Signature,
    _challenge,
    batch_verify,
    cache_stats,
    clear_verification_caches,
    generate_keypair,
    sign,
    verify,
)


def make_items(count: int):
    items = []
    for index in range(count):
        private, public = generate_keypair(f"batch-{index}".encode())
        message = f"message-{index}".encode()
        items.append((public, message, sign(private, message)))
    return items


def test_empty_batch_vacuously_valid():
    assert batch_verify([])


def test_single_item_batch():
    assert batch_verify(make_items(1))


def test_valid_batch_of_many():
    assert batch_verify(make_items(10))


def test_one_bad_signature_fails_whole_batch():
    items = make_items(5)
    public, message, signature = items[2]
    items[2] = (public, message + b"!", signature)
    assert not batch_verify(items)


def test_swapped_signatures_fail():
    items = make_items(3)
    swapped = [items[0], (items[1][0], items[1][1], items[2][2]),
               (items[2][0], items[2][1], items[1][2])]
    assert not batch_verify(swapped)


def test_wrong_key_fails():
    items = make_items(3)
    _, other_public = generate_keypair(b"stranger")
    items[0] = (other_public, items[0][1], items[0][2])
    assert not batch_verify(items)


def test_out_of_range_signature_fails():
    items = make_items(2)
    public, message, signature = items[0]
    items[0] = (public, message, Signature(1, signature.response))
    assert not batch_verify(items)


def test_duplicate_items_allowed():
    items = make_items(2)
    assert batch_verify(items + items)


def test_batch_agrees_with_individual_verification():
    from repro.crypto.schnorr import verify

    items = make_items(6)
    individually = all(verify(pk, msg, sig) for pk, msg, sig in items)
    assert batch_verify(items) == individually


# ----------------------------------------------------------------------
# batch_verify_many: the cross-block merge primitive
# ----------------------------------------------------------------------
def test_many_all_valid_batches_verify_in_one_merge(monkeypatch):
    from repro.crypto import schnorr
    from repro.crypto.schnorr import batch_verify_many, clear_verification_caches

    batches = [make_items(3), make_items(4), make_items(2)]
    clear_verification_caches()
    calls = []
    monkeypatch.setattr(
        schnorr, "multi_pow",
        lambda pairs, modulus: calls.append(len(pairs)) or multi_pow(pairs, modulus),
    )
    assert batch_verify_many(batches) == [True, True, True]
    # One combination, a commitment and a key per distinct triple: the
    # three batches repeat make_items' first keys and messages, so their
    # nine members are four triples, each staged once.
    assert calls == [2 * 4]
    # The merged pass certified every member, so nothing is left to
    # combine for a constituent batch — or to exponentiate for a member.
    assert all(batch_verify(batch) for batch in batches)
    assert all(verify(*item) for batch in batches for item in batch)
    assert calls == [2 * 4] and cache_stats()["verify_misses"] == 0


def test_many_verdicts_match_per_batch_verification():
    from repro.crypto.schnorr import batch_verify_many, clear_verification_caches

    good = make_items(3)
    bad = make_items(3)
    public, message, signature = bad[1]
    bad[1] = (public, message + b"!", signature)
    batches = [good, bad, [], make_items(1)]
    clear_verification_caches()
    verdicts = batch_verify_many(batches)
    clear_verification_caches()
    assert verdicts == [batch_verify(batch) for batch in batches]
    assert verdicts == [True, False, True, True]


def test_many_out_of_range_batch_fails_without_poisoning_others():
    from repro.crypto.schnorr import batch_verify_many

    malformed = make_items(2)
    public, message, signature = malformed[0]
    malformed[0] = (public, message, Signature(1, signature.response))
    assert batch_verify_many([make_items(2), malformed]) == [True, False]


def negated(index: int, message: bytes, slip: int = 0, negate_key: bool = False):
    """An honest response under ``R' = p - g^k`` (or under ``pk' = p - g^x``)."""
    private, public = generate_keypair(f"batch-{index}".encode())
    k = 1000 + index
    commitment = P - generator_pow(k)
    if negate_key:
        public, commitment = PublicKey(P - public.point), generator_pow(k)
    e = _challenge(commitment, public, message)
    return public, message, Signature(commitment, (k + e * private.scalar + slip) % Q)


def test_batches_and_single_checks_agree_outside_the_subgroup():
    """p's cofactor is 2 and a weighted batch cannot see a ``-1`` under an
    even weight: both compare up to sign, so neither weights nor
    neighbours decide.  Sixteen compositions, every verdict the same."""
    for round_ in range(16):
        message = b"round %d" % round_
        good = [negated(0, message), negated(1, message), negated(2, message, negate_key=True)]
        bad = negated(3, message, slip=1)
        clear_verification_caches()
        assert all(verify(*triple) for triple in good) and not verify(*bad)
        for batch in (good[:1], good[:2], good, make_items(2) + good):
            clear_verification_caches()
            assert batch_verify(batch)
            clear_verification_caches()
            assert not batch_verify(batch + [bad])


def test_a_triple_shared_across_groups_is_staged_and_isolated_once(monkeypatch):
    from repro.crypto import schnorr
    from repro.crypto.schnorr import batch_verify_many

    shared, other = make_items(2)
    public, message, signature = other
    forged = (public, message + b"!", signature)
    clear_verification_caches()
    checks = []
    combined_check = schnorr._combined_check
    monkeypatch.setattr(
        schnorr, "_combined_check",
        lambda items: checks.append(len(items)) or combined_check(items),
    )
    # The fold stages the shared triple once and fails on the forgery;
    # isolating the first group certifies it, so the second group is
    # answered without a check of its own.
    assert batch_verify_many([[shared], [shared], [forged]]) == [True, True, False]
    assert checks == [2, 1, 1]
    assert cache_stats()["verify_misses"] == 0
