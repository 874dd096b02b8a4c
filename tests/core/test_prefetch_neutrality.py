"""A block's signature prefetch changes no receipt (timelock §5, CBC §6).

Each test builds the same world twice and feeds both the same
transactions: one chain through ``submit`` and block production (which
batch-verifies the escrows' ``signature_claims`` first — together with
those of every other chain and CBC log due at the same instant), its
twin through ``execute_now`` one transaction at a time with the verdict
caches dropped before each — the cold, one-by-one path.  Status, error,
gas and events must agree receipt for receipt, and a CBC log entry must
land in the same certified block.  Nothing here turns the prefetch off:
there is nothing to turn.
"""

import dataclasses

from repro.chain.ledger import Chain
from repro.chain.tokens import FungibleToken
from repro.chain.tx import Receipt, Transaction
from repro.consensus.bft import CertifiedBlockchain, LogEntry, StatusCertificate
from repro.consensus.validators import ValidatorSet
from repro.core.cbc import CbcEscrow
from repro.core.deal import Asset
from repro.core.escrow import EscrowState
from repro.core.proofs import StatusProof
from repro.core.timelock import TimelockEscrow
from repro.crypto import schnorr
from repro.crypto.fastexp import P, Q, generator_pow
from repro.crypto.keys import KeyPair, Wallet
from repro.crypto.pathsig import (
    PathSignature,
    extend_path_signature,
    sign_vote,
    vote_message,
)
from repro.sim.simulator import Simulator

DEAL = b"prefetch-neutrality-deal" + b"\x00" * 8
ALICE, BOB, CAROL, DAVE, ERIN = (
    KeyPair.from_label(name) for name in ("alice", "bob", "carol", "dave", "erin")
)
DELTA = 10.0


def new_chain(registered, simulator=None, chain_id="testchain"):
    """A chain whose wallet knows ``registered``; Carol holds 1000 coins."""
    simulator = simulator or Simulator()
    wallet = Wallet()
    for keypair in registered:
        wallet.register(keypair)
    chain = Chain(chain_id, simulator, wallet)
    chain.publish(FungibleToken("coin"))
    now(chain, CAROL, "coin", "mint", to=CAROL.address, amount=1000)
    return simulator, chain


def tx(sender, contract, method, **args):
    return Transaction(sender=sender.address, contract=contract, method=method, args=args)


def now(chain, sender, contract, method, **args):
    receipt = chain.execute_now(tx(sender, contract, method, **args))
    assert receipt.ok, receipt.error
    return receipt


def fund(chain, escrow, amount):
    chain.publish(escrow)
    now(chain, CAROL, "coin", "approve", spender=escrow.address, amount=amount)
    now(chain, CAROL, escrow.name, "deposit")
    return escrow


def advance_to(simulator, time):
    simulator.schedule_at(time, lambda: None)
    simulator.run()


def routed(chain, items):
    """``(producer, item)`` pairs: a bare item is a transaction for ``chain``."""
    return [item if isinstance(item, tuple) else (chain, item) for item in items]


def outcome(producer, item):
    """A transaction's receipt, or the CBC block that recorded an entry."""
    if isinstance(producer, Chain):
        return producer.receipt_for(item.tx_id)
    return next((block for block in producer.blocks if item in block.entries), None)


def in_blocks(simulator, chain, schedule):
    """Submit each group just before its boundary; one block per producer."""
    outcomes = []
    for boundary, items in schedule:
        pairs = routed(chain, items)
        advance_to(simulator, boundary - 0.5)
        for producer, item in pairs:
            producer.submit(item)
        simulator.run()
        outcomes += [outcome(*pair) for pair in pairs]
    return outcomes


def one_by_one(simulator, chain, schedule):
    """Execute each transaction at its boundary on a cold verdict cache;
    a CBC log produces its block alone there, from a cold cache."""
    outcomes = []
    for boundary, items in schedule:
        pairs = routed(chain, items)
        advance_to(simulator, boundary - 0.5)
        for producer, item in pairs:
            if not isinstance(producer, Chain):
                producer.submit(item)
        schnorr.clear_verification_caches()
        advance_to(simulator, boundary)
        for producer, item in pairs:
            if isinstance(producer, Chain):
                schnorr.clear_verification_caches()
                producer.execute_now(item)
        outcomes += [outcome(*pair) for pair in pairs]
    return outcomes


def observable(result):
    if isinstance(result, Receipt):
        return result.status, result.error, result.gas, result.events
    return result


def assert_twins_agree(build):
    """``build() -> (simulator, chain, schedule)``, called once per twin.

    A scheduled item is a transaction for ``chain`` or a ``(producer,
    item)`` pair naming another chain or a CBC log on the same simulator.
    """
    schnorr.clear_verification_caches()
    sealed = in_blocks(*build())
    replayed = one_by_one(*build())
    assert [observable(r) for r in sealed] == [observable(r) for r in replayed]
    return sealed


# ----------------------------------------------------------------------
# Timelock: path signatures
# ----------------------------------------------------------------------
def timelock_world(plist, registered, simulator=None, chain_id="testchain"):
    simulator, chain = new_chain(registered, simulator, chain_id)
    asset = Asset(asset_id="coins", chain_id=chain_id, token="coin",
                  owner=CAROL.address, amount=300)
    escrow = TimelockEscrow(
        "tl", DEAL, tuple(k.address for k in plist), asset, t0=0.0, delta=DELTA
    )
    fund(chain, escrow, 300)
    return simulator, chain, escrow


def forwarded(voter, *forwarders):
    path = sign_vote(voter, DEAL)
    for forwarder in forwarders:
        path = extend_path_signature(path, forwarder)
    return path


def vote(sender, path):
    return tx(sender, "tl", "commit", path=path)


def sign_flipped_vote(voter, k=12345):
    """A direct vote whose commitment is negated: ``R' = p - g^k`` with
    ``s = k + e'·x``, so ``g^s == -R'·pk^e'``.  A weighted batch sees
    ``R'^w == g^(kw)`` for every even weight (p has cofactor 2), which is
    why verification compares up to sign: one verdict, batched or not."""
    message = vote_message(DEAL, voter.address, "commit")
    commitment = P - generator_pow(k)
    e = schnorr._challenge(commitment, voter.public_key, message)
    response = (k + e * voter.private_key.scalar) % Q
    return PathSignature(
        voter=voter.address, signers=(voter.address,),
        signatures=(schnorr.Signature(commitment, response),),
    )


def test_honest_votes_direct_forwarded_duplicate_and_late():
    parties = (ALICE, BOB, CAROL, DAVE)
    escrows = []

    def build():
        simulator, chain, escrow = timelock_world(parties, parties)
        escrows.append(escrow)
        return simulator, chain, [
            (6.0, [
                vote(ALICE, forwarded(ALICE)),
                vote(BOB, forwarded(CAROL, BOB)),
                vote(ALICE, forwarded(ALICE)),  # duplicate vote
            ]),
            (15.0, [
                vote(BOB, forwarded(BOB)),  # late: |p| = 1 expired at t0 + Δ
                vote(ALICE, forwarded(BOB, ALICE)),
                vote(CAROL, forwarded(CAROL, DAVE, ALICE)),  # duplicate, 3 hops
                vote(BOB, forwarded(DAVE, CAROL, BOB)),  # the last vote: releases
            ]),
        ]

    receipts = assert_twins_agree(build)
    assert [r.ok for r in receipts] == [True, True, False, False, True, False, True]
    assert [r.gas.sig_verify for r in receipts] == [1, 2, 0, 0, 2, 0, 3]
    assert "duplicate vote" in receipts[2].error
    assert "deadline" in receipts[3].error
    assert all(escrow.peek_state() is EscrowState.RELEASED for escrow in escrows)


def test_forged_middle_link_flipped_commitment_and_unknown_signer_revert_alone():
    # Erin is on the plist but has no key in this chain's directory.
    plist = (ALICE, BOB, CAROL, DAVE, ERIN)
    honest_start = forwarded(DAVE)
    forged_middle = PathSignature(
        voter=DAVE.address,
        signers=(DAVE.address, CAROL.address),
        signatures=honest_start.signatures + (CAROL.sign(b"something else"),),
    )
    # Bob honestly countersigns the forged layer: only the middle link is bad.
    bad_path = extend_path_signature(forged_middle, BOB)
    # Two of them: in one merged check their weights' parities can cancel.
    flipped = [sign_flipped_vote(DAVE), sign_flipped_vote(BOB, k=54321)]

    def build():
        simulator, chain, _ = timelock_world(plist, plist[:4])
        return simulator, chain, [
            (6.0, [
                vote(ALICE, forwarded(ALICE)),
                vote(BOB, bad_path),
                vote(ERIN, forwarded(ERIN)),
                vote(ALICE, forwarded(ERIN, ALICE)),
                vote(BOB, forwarded(CAROL, BOB)),
                vote(DAVE, flipped[0]),
                vote(BOB, flipped[1]),
            ]),
        ]

    receipts = assert_twins_agree(build)
    assert [r.ok for r in receipts] == [True, False, False, False, True, True, True]
    assert {r.error for r in receipts[1:4]} == {"invalid signature on path"}
    # Today's gas: Dave's link, then the forged one; an unknown signer is
    # charged at the hop that meets it.
    assert [r.gas.sig_verify for r in receipts] == [1, 2, 1, 1, 2, 1, 1]
    # The forged triple was claimed, and is certified to no one.
    signer, message, signature = bad_path.links(DEAL)[1]
    assert signer == CAROL.address
    assert not schnorr.verify(CAROL.public_key, message, signature)


# ----------------------------------------------------------------------
# CBC: status proofs
# ----------------------------------------------------------------------
def signed(entry, signer):
    return dataclasses.replace(entry, signature=signer.sign(entry.message()))


def cbc_world():
    """A committed three-party CBC deal, reconfigured once after deciding."""
    plist = (ALICE, BOB, CAROL)
    addresses = tuple(k.address for k in plist)
    simulator, chain = new_chain(plist)
    cbc = CertifiedBlockchain(simulator, ValidatorSet.generate(1), chain.wallet)

    def record(keypair, kind, start_hash=b""):
        entry = LogEntry(kind=kind, deal_id=DEAL, party=keypair.address,
                         plist=addresses, start_hash=start_hash)
        cbc.submit(signed(entry, keypair))
        simulator.run()
        return entry.message()

    start_hash = record(ALICE, "startDeal")
    for keypair in plist:
        record(keypair, "commit", start_hash)
    before = cbc.status_certificate(DEAL)
    cbc.reconfigure()
    after = cbc.status_certificate(DEAL)
    asset = Asset(asset_id="coins", chain_id="testchain", token="coin",
                  owner=CAROL.address, amount=100)
    for name, expects in (("fresh", start_hash), ("other-start", b"\x01" * 32),
                          ("thin", start_hash), ("handed-over", start_hash)):
        fund(chain, CbcEscrow(name, DEAL, addresses, asset, expects,
                              cbc.initial_public_keys), 100)
    return simulator, chain, before, after, cbc.handovers, cbc


def test_status_proofs_valid_stale_sub_quorum_and_handed_over():
    def build():
        simulator, chain, before, after, handovers, _ = cbc_world()
        assert (before.epoch, after.epoch, len(handovers)) == (0, 1, 1)
        thin = StatusCertificate(before.deal_id, before.start_hash, before.status,
                                 before.epoch, before.signatures[:2])
        return simulator, chain, [
            (simulator.now + 1.0, [
                tx(BOB, "fresh", "commit", proof=StatusProof(before)),
                tx(BOB, "other-start", "commit", proof=StatusProof(before)),
                tx(BOB, "thin", "commit", proof=StatusProof(thin)),
                tx(BOB, "handed-over", "commit", proof=StatusProof(after, handovers)),
                tx(CAROL, "handed-over", "abort", proof=StatusProof(after, handovers)),
                tx(CAROL, "thin", "commit", proof=StatusProof(after)),  # handover missing
            ]),
        ]

    receipts = assert_twins_agree(build)
    assert [r.ok for r in receipts] == [True, False, False, True, False, False]
    # (k+1)(2f+1) with f = 1: 3 without a handover, 6 with one; a stale
    # start hash is refused before any signature, a thin certificate after 2.
    assert [r.gas.sig_verify for r in receipts] == [3, 0, 2, 6, 0, 0]
    assert receipts[4].error == "already terminated"
    assert {receipts[i].error for i in (1, 2, 5)} == {"invalid proof of commit"}


def test_a_prefetched_status_proof_executes_without_a_multi_exp(monkeypatch):
    """Three quorums in the block, one merged check ahead of it: the
    ``_check_quorum`` batches of execution find every member certified."""
    calls = []
    original = schnorr.multi_pow
    monkeypatch.setattr(
        schnorr, "multi_pow", lambda *args: calls.append(1) or original(*args)
    )
    simulator, chain, before, after, handovers, _ = cbc_world()
    proofs = [("fresh", StatusProof(before)), ("handed-over", StatusProof(after, handovers))]

    schnorr.clear_verification_caches()
    del calls[:]
    sealed = in_blocks(simulator, chain, [
        (simulator.now + 1.0, [tx(BOB, name, "commit", proof=proof) for name, proof in proofs]),
    ])
    assert [r.gas.sig_verify for r in sealed] == [3, 6] and all(r.ok for r in sealed)
    assert len(calls) == 1

    simulator, chain, *_ = cbc_world()
    schnorr.clear_verification_caches()
    del calls[:]
    for name, proof in proofs:
        assert chain.execute_now(tx(BOB, name, "commit", proof=proof)).ok
    assert len(calls) == 3


def test_claims_stop_where_the_method_would():
    simulator, chain, before, after, handovers, _ = cbc_world()
    fresh, other = chain.contract("fresh"), chain.contract("other-start")
    claims = fresh.signature_claims("commit", {"proof": StatusProof(before)})
    assert len(claims) == 3 and all(schnorr.verify(*claim) for claim in claims)
    # A handover past the certificate's epoch is never walked; a proof of
    # another start is refused unread; a settled escrow reads no proof.
    assert fresh.signature_claims("commit", {"proof": StatusProof(before, handovers)}) == claims
    assert len(fresh.signature_claims("abort", {"proof": StatusProof(after, handovers)})) == 6
    assert other.signature_claims("commit", {"proof": StatusProof(before)}) == []
    now(chain, BOB, "fresh", "commit", proof=StatusProof(before))
    assert fresh.signature_claims("commit", {"proof": StatusProof(before)}) == []

    _, chain, escrow = timelock_world((ALICE, BOB, CAROL), (ALICE, BOB, CAROL, DAVE))
    assert len(escrow.signature_claims("commit", {"path": forwarded(ALICE, BOB)})) == 2
    assert escrow.signature_claims("commit", {"path": forwarded(ALICE, DAVE)}) == []
    assert escrow.signature_claims("refund", {"path": forwarded(ALICE)}) == []
    now(chain, ALICE, "tl", "commit", path=forwarded(ALICE))
    assert escrow.signature_claims("commit", {"path": forwarded(ALICE, BOB)}) == []


# ----------------------------------------------------------------------
# Several producers at one instant: one merged prefetch
# ----------------------------------------------------------------------
def test_two_chains_and_a_cbc_log_due_at_one_boundary_refuse_what_each_would_alone():
    """The instant's merged check spans a timelock chain with a forged
    middle link, a CBC-escrow chain with stale and sub-quorum status
    proofs, and the CBC log with a badly signed and an unknown party's
    entry; each is refused, and each sound one accepted, as alone."""
    plist = (ALICE, BOB, CAROL, DAVE, ERIN)
    forged_middle = PathSignature(
        voter=DAVE.address,
        signers=(DAVE.address, CAROL.address),
        signatures=forwarded(DAVE).signatures + (CAROL.sign(b"something else"),),
    )
    bad_path = extend_path_signature(forged_middle, BOB)
    logs = []

    def start(keypair, deal_id):
        return LogEntry(kind="startDeal", deal_id=deal_id, party=keypair.address,
                        plist=(keypair.address,))

    def build():
        simulator, chain, before, _, _, cbc = cbc_world()
        logs.append(cbc)
        _, timelock, _ = timelock_world(plist, plist[:4], simulator, "timelock-chain")
        thin = StatusCertificate(before.deal_id, before.start_hash, before.status,
                                 before.epoch, before.signatures[:2])
        return simulator, chain, [
            (simulator.now + 1.0, [
                tx(BOB, "fresh", "commit", proof=StatusProof(before)),
                tx(BOB, "other-start", "commit", proof=StatusProof(before)),
                tx(BOB, "thin", "commit", proof=StatusProof(thin)),
                (timelock, vote(ALICE, forwarded(ALICE))),
                (timelock, vote(BOB, bad_path)),
                (timelock, vote(BOB, forwarded(CAROL, BOB))),
                (cbc, signed(start(ALICE, b"second deal"), ALICE)),
                (cbc, signed(start(BOB, b"third deal"), CAROL)),  # signed by another
                (cbc, signed(start(DAVE, b"fourth deal"), DAVE)),  # unknown to the log
            ]),
        ]

    outcomes = assert_twins_agree(build)
    receipts, recorded = outcomes[:6], outcomes[6:]
    assert [r.ok for r in receipts] == [True, False, False, True, False, True]
    assert [r.gas.sig_verify for r in receipts] == [3, 0, 2, 1, 2, 2]
    assert receipts[4].error == "invalid signature on path"
    assert recorded[0] is not None and recorded[1:] == [None, None]
    assert logs[0].blocks == logs[1].blocks
