"""Property-based tests for the cryptographic primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import schnorr
from repro.crypto.hashing import bytes_to_int, hash_concat, int_to_bytes
from repro.crypto.keys import KeyPair, Wallet
from repro.crypto.merkle import MerkleTree
from repro.crypto.pathsig import extend_path_signature, sign_vote
from repro.crypto.schnorr import generate_keypair, sign, verify

small_bytes = st.binary(min_size=0, max_size=64)


@given(seed=small_bytes, message=small_bytes)
@settings(max_examples=25, deadline=None)
def test_schnorr_roundtrip(seed, message):
    private, public = generate_keypair(seed or b"\x00")
    assert verify(public, message, sign(private, message))


@given(seed=small_bytes, message=small_bytes, other=small_bytes)
@settings(max_examples=25, deadline=None)
def test_schnorr_rejects_other_messages(seed, message, other):
    if message == other:
        return
    private, public = generate_keypair(seed or b"\x00")
    assert not verify(public, other, sign(private, message))


@given(value=st.integers(min_value=0, max_value=2**256))
def test_int_bytes_roundtrip(value):
    assert bytes_to_int(int_to_bytes(value)) == value


@given(parts=st.lists(small_bytes, min_size=1, max_size=6))
def test_hash_concat_deterministic(parts):
    assert hash_concat(*parts) == hash_concat(*parts)


@given(
    parts=st.lists(small_bytes, min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=50)
def test_hash_concat_injective_on_structure(parts, data):
    # Moving a byte across a boundary must change the hash.
    index = data.draw(st.integers(min_value=0, max_value=len(parts) - 2))
    if not parts[index + 1]:
        return
    moved = list(parts)
    moved[index] = parts[index] + parts[index + 1][:1]
    moved[index + 1] = parts[index + 1][1:]
    if moved == parts:
        return
    assert hash_concat(*parts) != hash_concat(*moved)


@given(leaves=st.lists(small_bytes, min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_merkle_every_leaf_provable(leaves, audit_path):
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        path = audit_path.of(leaves, index)
        assert audit_path.folds_to(tree.root, leaf, index, path)


@given(
    leaves=st.lists(small_bytes, min_size=2, max_size=20),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_merkle_wrong_leaf_rejected(leaves, data, audit_path):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    tampered = leaves[index] + b"!"
    path = audit_path.of(leaves, index)
    assert not audit_path.folds_to(tree.root, tampered, index, path)


@given(
    deal_id=st.binary(min_size=1, max_size=32),
    hops=st.lists(st.sampled_from(["p1", "p2", "p3", "p4"]), max_size=3, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_path_signature_any_forwarding_chain_verifies(deal_id, hops):
    wallet = Wallet()
    voter = KeyPair.from_label("voter")
    wallet.register(voter)
    path = sign_vote(voter, deal_id)
    for hop in hops:
        keypair = KeyPair.from_label(hop)
        wallet.register(keypair)
        path = extend_path_signature(path, keypair)
    assert path.path_length == 1 + len(hops)
    assert path.verify(wallet, deal_id)
    assert not path.verify(wallet, deal_id + b"x")


# ----------------------------------------------------------------------
# Fast-exponentiation engine vs builtins.pow (PR 4 satellite)
# ----------------------------------------------------------------------
from repro.crypto.fastexp import (  # noqa: E402
    G,
    GENERATOR_TABLE_BITS,
    P,
    _recode,
    base_pow,
    generator_pow,
    multi_pow,
)

# Exponents deliberately straddle every regime: zero, tiny, the honest
# ~256/320-bit ranges, and values past the generator table's capacity
# (which must fall back, not fail).
exponents = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**320),
    st.integers(
        min_value=2**GENERATOR_TABLE_BITS, max_value=2 ** (GENERATOR_TABLE_BITS + 8)
    ),
)

group_bases = st.integers(min_value=0, max_value=2**256).map(
    lambda e: pow(G, e, P)
)


@given(pairs=st.lists(st.tuples(group_bases, exponents), min_size=0, max_size=12))
@settings(max_examples=40, deadline=None)
def test_multi_pow_matches_builtin_product(pairs):
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs) == expected


@given(
    pairs=st.lists(st.tuples(group_bases, exponents), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_multi_pow_duplicate_bases_merge_correctly(pairs, data):
    # Duplicate every pair a random number of times: exponent-summing
    # dedup must agree with the plain product.
    duplicated = []
    for pair in pairs:
        duplicated.extend([pair] * data.draw(st.integers(min_value=1, max_value=3)))
    expected = 1
    for base, exponent in duplicated:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(duplicated) == expected


# Bases at and past the edges of [0, p): the kernel only ever holds
# reduced residues, so everything here is reduced on the way in.
edge_bases = st.one_of(
    st.sampled_from([0, 1, 2, P - 1, P, P + 1, 2 * P - 1]),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=P, max_value=2**2100),
    group_bases,
)


@given(
    pairs=st.lists(st.tuples(edge_bases, exponents), min_size=0, max_size=8),
    exponent=exponents,
)
@settings(max_examples=80, deadline=None)
def test_kernel_paths_match_builtin_pow_on_edge_bases(pairs, exponent):
    """multi_pow, generator_pow (through its table and, past
    GENERATOR_TABLE_BITS, its fallback) and base_pow against builtins.pow."""
    expected = 1
    for base, power in pairs:
        expected = expected * pow(base, power, P) % P
    assert multi_pow(pairs) == expected
    assert generator_pow(exponent) == pow(G, exponent, P)
    for base, _ in pairs:
        assert base_pow(base, exponent) == pow(base, exponent, P)


@given(base=group_bases, exponent=exponents)
@settings(max_examples=40, deadline=None)
def test_base_pow_matches_builtin_through_threshold_and_tables(base, exponent):
    assert base_pow(base, exponent) == pow(base, exponent, P)


@given(exponent=exponents)
@settings(max_examples=40, deadline=None)
def test_generator_pow_matches_builtin(exponent):
    assert generator_pow(exponent) == pow(G, exponent, P)


# The generator table's edges: the 7-bit band ends at bit 259, the
# 5-bit band at GENERATOR_TABLE_BITS (595); one bit more falls back.
_EDGE_BITS = (258, 259, 260, 594, 595, 596)


def _counting_exp(monkeypatch) -> list:
    """Record the exponent of every ``BN_mod_exp_mont`` fallback."""
    from repro.crypto import montgomery

    calls = []
    kernel_exp = montgomery.exp
    monkeypatch.setattr(
        montgomery, "exp", lambda base, e: calls.append(e) or kernel_exp(base, e)
    )
    return calls


@pytest.mark.parametrize("bits", _EDGE_BITS)
@given(low=st.integers(min_value=0))
@settings(max_examples=15, deadline=None)
def test_generator_pow_at_the_table_edges(bits, low):
    exponent = 1 << (bits - 1) | low % (1 << (bits - 1))
    with pytest.MonkeyPatch.context() as monkeypatch:
        fallbacks = _counting_exp(monkeypatch)
        assert generator_pow(exponent) == pow(G, exponent, P)
    assert fallbacks == ([exponent] if bits > GENERATOR_TABLE_BITS else [])


@pytest.mark.parametrize("bits", _EDGE_BITS + (2050,))
def test_combined_check_reduction_at_the_cap(monkeypatch, bits):
    # A fold's g^Σws.  A sum of GENERATOR_TABLE_BITS or more bits (only
    # forged responses reach one) is reduced mod q, which leaves g's
    # power unchanged and changes the sum only past q; up to the cap
    # it is read from the table, past the cap it takes the fallback.
    from repro.crypto.fastexp import Q
    from repro.crypto.schnorr import _combined_check

    total = (1 << (bits - 1)) + 12345
    terms = [(None, total - 345, ()), (None, 345, ())]
    fallbacks = _counting_exp(monkeypatch)
    assert _combined_check(terms, None) == (pow(G, total, P), 1)
    reduced = total % Q
    assert fallbacks == (
        [reduced] if reduced.bit_length() > GENERATOR_TABLE_BITS else []
    )
    assert (reduced < total) == (bits > Q.bit_length())


# ----------------------------------------------------------------------
# The one batched check, and the same-instant plane built on it:
# wall-clock steps, never a verdict
# ----------------------------------------------------------------------
from repro.chain.ledger import VerifyAggregator  # noqa: E402
from repro.crypto import fastexp, montgomery  # noqa: E402
from repro.crypto.fastexp import Q  # noqa: E402
from repro.crypto.hashing import tagged_hash  # noqa: E402
from repro.crypto.schnorr import (  # noqa: E402
    PublicKey,
    Signature,
    VerifyCache,
    _challenge,
    batch_verify,
    batch_verify_many,
    cache_stats,
)
from repro.sim.simulator import Simulator  # noqa: E402

_PREFETCH_KEYS = [generate_keypair(b"prefetch-%d" % i) for i in range(3)]


def _claimed_triple(kind: str, signer: int, text: int):
    private, public = _PREFETCH_KEYS[signer]
    message = b"claim %d" % text
    good = sign(private, message)
    if kind == "forged-response":
        return public, message, Signature(good.commitment, (good.response + 1) % Q)
    if kind == "wrong-message":
        return public, message + b"!", good
    if kind == "out-of-range":
        return public, message, Signature(good.commitment, Q)
    if kind in ("negated-commitment", "negated-key"):
        return _off_subgroup_triple(kind, private, public, message)
    return public, message, good


def _off_subgroup_triple(kind, private, public, message):
    """Valid signatures outside the order-q subgroup (p is a safe prime,
    cofactor 2): an honest response under the commitment ``p - g^k``, or
    under the key ``p - g^x``.  Verification compares up to sign, so a
    batch — blind to a ``-1`` under an even weight — agrees with it."""
    k = bytes_to_int(tagged_hash("test/nonce", message)) % Q
    if kind == "negated-key":
        public, commitment = PublicKey(P - public.point), generator_pow(k)
    else:
        commitment = P - generator_pow(k)
    e = _challenge(commitment, public, message)
    return public, message, Signature(commitment, (k + e * private.scalar) % Q)


claim_specs = st.tuples(
    st.sampled_from(["valid", "valid", "valid", "forged-response", "wrong-message",
                     "out-of-range", "negated-commitment", "negated-key"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)


def _hits_and_misses():
    stats = cache_stats()
    return stats["verify_hits"], stats["verify_misses"]


def _expected_store_after(groups, valid, store):
    """What one ``batch_verify_many(groups)`` leaves in a cache's verdicts,
    modelled on ``store`` (cache key -> verdict; absent = uncached).

    A group is folded unless a member is out of range, a member is
    refused, or every member is certified; its uncached members are
    staged.  A lone staged member is checked as ``verify`` does and its
    verdict stored; otherwise a fold of two or more groups newly
    certifies exactly the valid, previously uncached members, and a
    lone folded group certifies its staged members only if all of them
    are valid.
    """
    key = schnorr._cache_key
    folded = [
        group for group in groups
        if all(schnorr._in_range(t[2]) for t in group)
        and all(store.get(key(*t)) is not False for t in group)
        and not all(store.get(key(*t)) is True for t in group)
    ]
    staged = {key(*t) for group in folded for t in group if key(*t) not in store}
    if len(staged) == 1:
        store.update({k: valid[k] for k in staged})
    elif len(folded) > 1:
        store.update({k: True for k in staged if valid[k]})
    elif all(valid[k] for k in staged):
        store.update(dict.fromkeys(staged, True))


@given(specs=st.lists(st.lists(claim_specs, max_size=4), max_size=5))
@settings(max_examples=30, deadline=None)
def test_batch_verify_many_changes_no_verdict_and_no_verify_counter(specs):
    batches = [[_claimed_triple(*spec) for spec in batch] for batch in specs]
    cold_single, cold_batch = [], []
    for batch in batches:
        cold_single.extend(verify(*triple) for triple in batch)
        cold_batch.append(batch_verify(batch))
    assert cold_batch == [all(verify(*triple) for triple in batch) for batch in batches]

    cache = VerifyCache()
    before = _hits_and_misses()
    assert batch_verify_many(batches, cache) == cold_batch  # cold, merged
    assert _hits_and_misses() == before
    assert batch_verify_many(batches, cache) == cold_batch  # on the warmed cache
    assert [verify(*triple, cache) for batch in batches for triple in batch] == cold_single
    assert [batch_verify(batch, cache) for batch in batches] == cold_batch

    # Once every member holds its own verdict — True or False — the
    # batched check has nothing left to combine: no group is refused or
    # accepted by exponentiation a second time.
    cache = VerifyCache()
    for batch in batches:
        for triple in batch:
            verify(*triple, cache)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schnorr, "multi_pow", lambda *args: calls.append(args))
        assert batch_verify_many(batches, cache) == cold_batch
    assert calls == []


# Shared across examples: the "reused across calls" key tables.
_REUSED_KEY_TABLES: dict = {}


@given(
    pool=st.lists(claim_specs, min_size=1, max_size=6),
    data=st.data(),
    tables=st.sampled_from(["none", "fresh", "reused"]),
)
@settings(max_examples=60, deadline=None)
def test_halving_isolation_gives_every_group_its_cold_verdict(pool, data, tables):
    """Groups drawn from one pool of triples — so members recur across
    groups — with anything from no forgery to all of them forged, under
    no kept key tables, fresh ones, or ones reused across calls: every
    verdict is cold ``verify``'s, the cache's verdicts end as the model
    says, no counter moves, and kept tables are full-width tables of
    public keys only."""
    triples = [_claimed_triple(*spec) for spec in pool]
    groups = data.draw(st.lists(
        st.lists(st.sampled_from(triples), max_size=4), min_size=1, max_size=6
    ))
    valid = {schnorr._cache_key(*triple): verify(*triple) for triple in triples}
    cache = VerifyCache(keep_tables=tables != "none")
    if tables == "reused":
        cache.key_tables = _REUSED_KEY_TABLES
    key_tables = cache.key_tables

    expected = {}
    _expected_store_after(groups, valid, expected)
    counters = _hits_and_misses()
    assert batch_verify_many(groups, cache) == [
        all(valid[schnorr._cache_key(*t)] for t in group) for group in groups
    ]
    assert _hits_and_misses() == counters
    keys = {schnorr._cache_key(*t) for t in triples}
    assert {key: cache.verdicts.get(key) for key in keys} == {
        key: expected.get(key) for key in keys
    }
    if key_tables is not None:
        assert all(len(powers) == 32 and montgomery.to_int(powers.pointers[0]) == base
                   for base, powers in key_tables.items())
        assert not {signature.commitment for _, _, signature in triples} & set(key_tables)


@given(
    pairs=st.lists(st.tuples(group_bases, exponents), min_size=0, max_size=8),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_multi_pow_reads_kept_tables_of_any_width(pairs, data):
    tables = {}
    for base, _ in pairs:
        if data.draw(st.booleans()):
            width = data.draw(st.integers(min_value=1, max_value=8))
            table = montgomery.Residues(1 << (width - 1))
            montgomery.start()
            try:
                fastexp._odd_powers(base % P, table.pointers)
            finally:
                montgomery.end()
            tables[base] = table
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs, tables) == expected


_filings = st.lists(
    st.tuples(st.booleans(), st.lists(st.lists(claim_specs, max_size=3), max_size=3)),
    max_size=4,
)


@given(known=st.lists(claim_specs, max_size=4), filings=_filings,
       producer_first=st.booleans())
@settings(max_examples=30, deadline=None)
def test_one_instant_of_claims_and_order_groups_settles_as_cold_verify(
    known, filings, producer_first
):
    """Block claims (certify only) and sealed order groups (verdicts
    wanted) filed for one instant, over a cache holding earlier verdicts:
    the same verdicts and the same certified set as checking each member
    alone, and no verify counter touched."""
    filings = [(waits, [[_claimed_triple(*spec) for spec in group] for group in groups])
               for waits, groups in filings]
    known = [_claimed_triple(*spec) for spec in known]
    triples = {schnorr._cache_key(*t): t for _, gs in filings for g in gs for t in g}
    valid = {key: verify(*triple) for key, triple in triples.items()}

    simulator = Simulator()
    plane = VerifyAggregator.of(simulator)
    for triple in known:
        verify(*triple, plane.cache)
    store = plane.cache.verdicts
    before = {key: store.get(key) for key in triples}
    counters = _hits_and_misses()

    claims = [group for waits, groups in filings if not waits for group in groups]
    delivered = []

    def seal():
        for waits, groups in filings:
            if waits:
                plane.enqueue(groups, delivered.append)

    if not producer_first:
        simulator.schedule_at(1.0, seal)
    plane.schedule_block(1.0, lambda: plane.settle(lambda: claims), lambda: claims, "p")
    if producer_first:
        simulator.schedule_at(1.0, seal)
    simulator.run()

    assert delivered == [
        [all(valid[schnorr._cache_key(*t)] for t in group) for group in groups]
        for waits, groups in filings if waits
    ]
    # The claims are settled first, the waiting groups second, whichever
    # filing settles the instant.
    expected = {key: verdict for key, verdict in before.items() if verdict is not None}
    for call in (claims, [g for waits, gs in filings if waits for g in gs]):
        _expected_store_after(call, valid, expected)
    assert {key: store.get(key) for key in triples} == {
        key: expected.get(key) for key in triples
    }
    assert _hits_and_misses() == counters
    assert plane._due == {}


@given(
    exponent=st.one_of(exponents, st.integers(min_value=0, max_value=2**2100)),
    width=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=120, deadline=None)
def test_sliding_window_recoding_round_trips(exponent, width):
    # What _straus relies on: the hits rebuild the exponent, every
    # digit indexes the odd-power table, and windows never overlap.
    hits = _recode(exponent, width)
    assert sum(digit << position for position, digit in hits) == exponent
    assert all(digit & 1 and digit < 1 << width for _, digit in hits)
    positions = [position for position, _ in hits]
    assert all(b - a >= width for a, b in zip(positions, positions[1:]))
    assert not positions or positions[0] >= 0
