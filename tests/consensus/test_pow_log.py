"""Unit tests for the PoW certified log."""

import pytest

from repro.consensus.bft import DealStatus
from repro.consensus.pow_log import PowCertifiedLog, PowLogEntry
from repro.crypto.keys import KeyPair, Wallet
from repro.sim.simulator import Simulator

DEAL = b"pow-log-deal" + b"\x00" * 20


@pytest.fixture
def setup():
    sim = Simulator()
    wallet = Wallet()
    keys = {label: KeyPair.from_label(label) for label in ("alice", "bob")}
    for keypair in keys.values():
        wallet.register(keypair)
    log = PowCertifiedLog(sim, wallet, min_confirmations=2, block_interval=1.0)
    log.register_deal(DEAL, tuple(kp.address for kp in keys.values()))
    return sim, log, keys


def vote(keypair, kind):
    entry = PowLogEntry(kind=kind, deal_id=DEAL, party=keypair.address)
    return PowLogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
        signature=keypair.sign(entry.payload()),
    )


def test_unknown_deal_status(setup):
    _, log, _ = setup
    assert log.deal_status(b"x" * 32) is DealStatus.UNKNOWN


def test_commit_when_all_vote(setup):
    sim, log, keys = setup
    log.submit(vote(keys["alice"], "commit"))
    sim.run()
    assert log.deal_status(DEAL) is DealStatus.ACTIVE
    log.submit(vote(keys["bob"], "commit"))
    sim.run()
    assert log.deal_status(DEAL) is DealStatus.COMMITTED


def test_abort_first_wins(setup):
    sim, log, keys = setup
    log.submit(vote(keys["alice"], "abort"))
    log.submit(vote(keys["bob"], "commit"))
    sim.run()
    assert log.deal_status(DEAL) is DealStatus.ABORTED


def test_unsigned_or_forged_votes_dropped(setup):
    sim, log, keys = setup
    log.submit(PowLogEntry(kind="commit", deal_id=DEAL, party=keys["alice"].address))
    entry = PowLogEntry(kind="commit", deal_id=DEAL, party=keys["alice"].address)
    log.submit(
        PowLogEntry(
            kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
            signature=keys["bob"].sign(entry.payload()),  # wrong signer
        )
    )
    sim.run()
    assert log.deal_status(DEAL) is DealStatus.ACTIVE


def test_non_plist_votes_dropped(setup):
    sim, log, keys = setup
    stranger = KeyPair.from_label("stranger")
    log.wallet.register(stranger)
    log.submit(vote(stranger, "abort"))
    sim.run()
    assert log.deal_status(DEAL) is DealStatus.ACTIVE


def test_confirmations_accumulate(setup):
    sim, log, keys = setup
    log.submit(vote(keys["alice"], "commit"))
    log.submit(vote(keys["bob"], "commit"))
    sim.run()
    # Empty confirmation blocks were mined after the decisive one.
    assert log.confirmations(DEAL) >= 8


def test_commit_proof_verifies(setup):
    sim, log, keys = setup
    plist = tuple(kp.address for kp in keys.values())
    log.submit(vote(keys["alice"], "commit"))
    sim.run()
    log.submit(vote(keys["bob"], "commit"))
    sim.run()
    proof = log.proof(DEAL)
    assert proof is not None
    assert proof.claimed_status is DealStatus.COMMITTED

    from repro.chain.contracts import CallContext, _TxJournal
    from repro.chain.gas import GasMeter
    from repro.chain.ledger import Chain
    from repro.core.proofs import verify_pow_proof

    ctx = CallContext(Chain("c", Simulator(), Wallet()), plist[0], _TxJournal(GasMeter()), 1)
    assert verify_pow_proof(ctx, proof, DEAL, plist, 2) is DealStatus.COMMITTED


def test_abort_proof_verifies(setup):
    sim, log, keys = setup
    plist = tuple(kp.address for kp in keys.values())
    log.submit(vote(keys["alice"], "abort"))
    sim.run()
    proof = log.proof(DEAL)
    assert proof.claimed_status is DealStatus.ABORTED

    from repro.chain.contracts import CallContext, _TxJournal
    from repro.chain.gas import GasMeter
    from repro.chain.ledger import Chain
    from repro.core.proofs import verify_pow_proof

    ctx = CallContext(Chain("c", Simulator(), Wallet()), plist[0], _TxJournal(GasMeter()), 1)
    assert verify_pow_proof(ctx, proof, DEAL, plist, 2) is DealStatus.ABORTED


def test_no_proof_while_active(setup):
    sim, log, keys = setup
    log.submit(vote(keys["alice"], "commit"))
    sim.run()
    assert log.proof(DEAL) is None


