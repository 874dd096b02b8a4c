"""Unit tests for the certified blockchain (CBC)."""

import pytest

from repro.chain.contracts import CallContext, _TxJournal
from repro.chain.gas import GasMeter
from repro.chain.ledger import Chain
from repro.consensus.bft import CertifiedBlockchain, DealStatus, LogEntry
from repro.consensus.validators import ValidatorSet, batch_verify_quorum
from repro.core.proofs import StatusProof, verify_status_proof
from repro.crypto import schnorr
from repro.crypto.keys import KeyPair, Wallet
from repro.crypto.schnorr import verify
from repro.sim.simulator import Simulator

DEAL = b"deal-42" + b"\x00" * 25


@pytest.fixture
def setup():
    sim = Simulator()
    wallet = Wallet()
    keys = {label: KeyPair.from_label(label) for label in ("alice", "bob")}
    for keypair in keys.values():
        wallet.register(keypair)
    validators = ValidatorSet.generate(1)
    cbc = CertifiedBlockchain(sim, validators, wallet, block_interval=1.0)
    return sim, cbc, keys


def signed_entry(keypair, kind, plist, start_hash=b"", deal_id=DEAL):
    entry = LogEntry(kind=kind, deal_id=deal_id, party=keypair.address,
                     plist=plist, start_hash=start_hash)
    return LogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
        plist=entry.plist, start_hash=entry.start_hash,
        signature=keypair.sign(entry.message()),
    )


def start_deal(sim, cbc, keys):
    plist = (keys["alice"].address, keys["bob"].address)
    start = signed_entry(keys["alice"], "startDeal", plist)
    cbc.submit(start)
    sim.run()
    return plist, cbc.definitive_start_hash(DEAL)


def test_start_deal_recorded(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    assert start_hash is not None
    assert cbc.deal_status(DEAL) is DealStatus.ACTIVE


def test_unknown_deal_status(setup):
    _, cbc, _ = setup
    assert cbc.deal_status(b"nope" + b"\x00" * 28) is DealStatus.UNKNOWN


def test_all_commit_votes_commit_the_deal(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.ACTIVE
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.COMMITTED


def test_abort_before_completion_aborts(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    cbc.submit(signed_entry(keys["bob"], "abort", plist, start_hash))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.ABORTED


def test_abort_after_commit_is_too_late(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    cbc.submit(signed_entry(keys["alice"], "abort", plist, start_hash))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.COMMITTED


def test_rescind_before_completion_wins(setup):
    # Alice commits, then rescinds with an abort before Bob commits.
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    sim.run()
    cbc.submit(signed_entry(keys["alice"], "abort", plist, start_hash))
    sim.run()
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.ABORTED


def test_unsigned_entries_dropped(setup):
    sim, cbc, keys = setup
    plist = (keys["alice"].address, keys["bob"].address)
    cbc.submit(LogEntry(kind="startDeal", deal_id=DEAL, party=keys["alice"].address, plist=plist))
    sim.run()
    assert cbc.definitive_start_hash(DEAL) is None


def test_badly_signed_entries_dropped(setup):
    sim, cbc, keys = setup
    plist = (keys["alice"].address, keys["bob"].address)
    entry = LogEntry(kind="startDeal", deal_id=DEAL, party=keys["alice"].address, plist=plist)
    forged = LogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party, plist=entry.plist,
        signature=keys["bob"].sign(entry.message()),  # wrong signer
    )
    cbc.submit(forged)
    sim.run()
    assert cbc.definitive_start_hash(DEAL) is None


def test_votes_from_non_plist_parties_ignored(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    stranger = KeyPair.from_label("stranger")
    cbc.wallet.register(stranger)
    cbc.submit(signed_entry(stranger, "abort", plist, start_hash))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.ACTIVE


def test_earliest_start_deal_is_definitive(setup):
    sim, cbc, keys = setup
    plist = (keys["alice"].address, keys["bob"].address)
    first = signed_entry(keys["alice"], "startDeal", plist)
    cbc.submit(first)
    sim.run()
    definitive = cbc.definitive_start_hash(DEAL)
    # A second (different-party) startDeal does not displace it.
    cbc.submit(signed_entry(keys["bob"], "startDeal", plist))
    sim.run()
    assert cbc.definitive_start_hash(DEAL) == definitive


def test_blocks_are_certified_by_quorum(setup):
    sim, cbc, keys = setup
    start_deal(sim, cbc, keys)
    for block in cbc.blocks:
        assert len(block.certificate) == cbc.validators.quorum
        for entry in block.certificate:
            assert verify(entry.public_key, block.body_hash(), entry.signature)


def test_blocks_link(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    sim.run()
    blocks = cbc.blocks
    assert len(blocks) >= 3
    for previous, current in zip(blocks, blocks[1:]):
        assert current.parent_hash == previous.body_hash()


def test_status_certificate_only_when_decided(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    assert cbc.status_certificate(DEAL) is None
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    certificate = cbc.status_certificate(DEAL)
    assert certificate is not None
    assert certificate.status is DealStatus.COMMITTED
    assert len(certificate.signatures) == cbc.validators.quorum


def decide(sim, cbc, keys):
    plist, start_hash = start_deal(sim, cbc, keys)
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    return start_hash


def test_a_decided_deal_is_certified_once(setup, monkeypatch):
    sim, cbc, keys = setup
    signatures = []
    original = schnorr.sign
    monkeypatch.setattr(
        "repro.crypto.keys.sign",
        lambda key, message: signatures.append(message) or original(key, message),
    )
    plist, start_hash = start_deal(sim, cbc, keys)
    # Nothing to certify yet — and the "nothing" is not remembered.
    assert cbc.status_certificate(DEAL) is None
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    signatures.clear()
    certificate = cbc.status_certificate(DEAL)
    assert certificate is not None
    assert all(cbc.status_certificate(DEAL) is certificate for _ in range(5))
    assert len(signatures) == cbc.validators.quorum  # 2f+1 for six requests
    assert batch_verify_quorum(
        cbc.validators.public_keys(), cbc.validators.quorum,
        signatures[0], certificate.signatures,
    )


def test_a_reconfiguration_after_the_decision_is_a_new_certificate(setup):
    sim, cbc, keys = setup
    start_hash = decide(sim, cbc, keys)
    before = cbc.status_certificate(DEAL)
    cbc.reconfigure()
    after = cbc.status_certificate(DEAL)
    assert after is not before and after is cbc.status_certificate(DEAL)
    assert (before.epoch, after.epoch) == (0, 1)
    assert after.signatures != before.signatures
    # The new certificate stands on the handover chain, the old one alone.
    ctx = CallContext(Chain("c", sim, Wallet()), keys["alice"].address, _TxJournal(GasMeter()), 1)
    initial = cbc.initial_public_keys
    proof = StatusProof(after, handovers=cbc.handovers)
    assert verify_status_proof(ctx, proof, initial, DEAL, start_hash) is DealStatus.COMMITTED
    assert ctx.meter.snapshot().sig_verify == 2 * cbc.validators.quorum
    assert verify_status_proof(ctx, StatusProof(after), initial, DEAL, start_hash) is None
    assert (
        verify_status_proof(ctx, StatusProof(before), initial, DEAL, start_hash)
        is DealStatus.COMMITTED
    )


def test_block_proof_spans_start_to_decision(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    assert cbc.block_proof(DEAL) is None
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    sim.run()
    cbc.submit(signed_entry(keys["bob"], "commit", plist, start_hash))
    sim.run()
    proof = cbc.block_proof(DEAL)
    assert proof is not None
    entries = [entry for block in proof for entry in block.entries]
    kinds = [entry.kind for entry in entries if entry.deal_id == DEAL]
    assert kinds[0] == "startDeal"
    assert kinds.count("commit") == 2


def test_censorship_drops_entries(setup):
    sim, cbc, keys = setup
    cbc.censored_deals.add(DEAL)
    plist = (keys["alice"].address, keys["bob"].address)
    cbc.submit(signed_entry(keys["alice"], "startDeal", plist))
    sim.run()
    assert cbc.definitive_start_hash(DEAL) is None


def test_reconfigure_rotates_and_records_handover(setup):
    sim, cbc, keys = setup
    initial = cbc.initial_public_keys
    new_set = cbc.reconfigure()
    assert new_set.epoch == 1
    assert cbc.initial_public_keys == initial  # frozen at genesis
    assert len(cbc.handovers) == 1
    assert cbc.handovers[0].to_epoch == 1


def test_commit_progress_tracking(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    assert cbc.commit_progress(DEAL) == set()
    cbc.submit(signed_entry(keys["alice"], "commit", plist, start_hash))
    sim.run()
    assert cbc.commit_progress(DEAL) == {keys["alice"].address}


# ----------------------------------------------------------------------
# Deferred (per-block batched) entry verification — PR 4
# ----------------------------------------------------------------------
def test_interval_with_only_bad_entries_produces_no_block(setup):
    sim, cbc, keys = setup
    plist = (keys["alice"].address, keys["bob"].address)
    entry = LogEntry(kind="startDeal", deal_id=DEAL,
                     party=keys["alice"].address, plist=plist)
    forged = LogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
        plist=entry.plist, signature=keys["bob"].sign(entry.message()),
    )
    before = len(cbc.blocks)
    cbc.submit(forged)
    sim.run()
    # The eager-verifying implementation never scheduled a block for a
    # bad entry; the deferred one must not mint an empty block either.
    assert len(cbc.blocks) == before
    assert cbc.definitive_start_hash(DEAL) is None


def test_forged_vote_is_isolated_from_same_interval_valid_votes(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    good = signed_entry(keys["alice"], "commit", plist, start_hash)
    bad_entry = LogEntry(kind="commit", deal_id=DEAL, party=keys["bob"].address,
                         plist=(), start_hash=start_hash)
    forged = LogEntry(
        kind=bad_entry.kind, deal_id=bad_entry.deal_id, party=bad_entry.party,
        start_hash=bad_entry.start_hash,
        signature=keys["alice"].sign(b"not the entry message"),
    )
    cbc.submit(good)
    cbc.submit(forged)
    sim.run()
    # The batched check fails, the per-entry fallback keeps alice's
    # vote and drops bob's forgery: the deal stays one vote short.
    assert cbc.deal_status(DEAL) is DealStatus.ACTIVE
    assert cbc.commit_progress(DEAL) == {keys["alice"].address}
    recorded = [entry for block in cbc.blocks for entry in block.entries
                if entry.kind == "commit"]
    assert [entry.party for entry in recorded] == [keys["alice"].address]


def test_entries_from_unregistered_parties_dropped_at_production(setup):
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    stranger = KeyPair.from_label("never-registered")
    entry = LogEntry(kind="abort", deal_id=DEAL, party=stranger.address,
                     start_hash=start_hash)
    cbc.submit(LogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
        start_hash=entry.start_hash, signature=stranger.sign(entry.message()),
    ))
    sim.run()
    assert cbc.deal_status(DEAL) is DealStatus.ACTIVE


def test_invalid_only_boundary_does_not_capture_boundary_instant_votes(setup):
    # The eager-checking implementation never scheduled a block for a
    # forged-only interval, so a valid vote submitted at exactly that
    # boundary (by an earlier-scheduled event) got its own block one
    # interval later.  The deferred implementation must reproduce that
    # schedule, not let the vote ride the phantom boundary early.
    sim, cbc, keys = setup
    plist, start_hash = start_deal(sim, cbc, keys)
    settled_height = cbc.height
    entry = LogEntry(kind="commit", deal_id=DEAL, party=keys["alice"].address,
                     start_hash=start_hash)
    forged = LogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
        start_hash=entry.start_hash,
        signature=keys["bob"].sign(b"wrong message"),
    )
    boundary = float(int(sim.now) + 2)
    # This event is scheduled before the forged submission's block
    # event, so at the boundary it fires first and submits in time.
    sim.schedule_at(boundary, lambda: cbc.submit(
        signed_entry(keys["alice"], "commit", plist, start_hash)
    ))
    sim.schedule_at(boundary - 0.5, lambda: cbc.submit(forged))
    sim.run()
    votes = [
        (block.height, block.timestamp)
        for block in cbc.blocks
        for e in block.entries
        if e.kind == "commit"
    ]
    assert votes == [(settled_height + 1, boundary + 1.0)]
