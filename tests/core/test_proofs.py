"""Unit tests for cross-chain proof verification (§6.2)."""

import pytest

from repro.chain.contracts import CallContext, Contract, _TxJournal
from repro.chain.gas import GasMeter
from repro.chain.ledger import Chain
from repro.consensus.bft import CertifiedBlockchain, DealStatus, LogEntry, StatusCertificate
from repro.consensus.validators import ValidatorSet
from repro.core.proofs import (
    BlockProof,
    PowVoteProof,
    StatusProof,
    encode_pow_vote,
    verify_block_proof,
    verify_pow_proof,
    verify_status_proof,
)
from repro.consensus.pow import PowChain
from repro.crypto.keys import KeyPair, Wallet
from repro.sim.simulator import Simulator

DEAL = b"proof-deal" + b"\x00" * 22


@pytest.fixture
def world():
    sim = Simulator()
    wallet = Wallet()
    keys = {label: KeyPair.from_label(label) for label in ("alice", "bob")}
    for keypair in keys.values():
        wallet.register(keypair)
    validators = ValidatorSet.generate(1)
    cbc = CertifiedBlockchain(sim, validators, wallet)
    chain = Chain("assets", sim, wallet)
    return sim, wallet, cbc, chain, keys


def make_ctx(chain) -> CallContext:
    journal = _TxJournal(GasMeter())
    return CallContext(chain, KeyPair.from_label("caller").address, journal, 1)


def signed(keypair, kind, plist, start_hash=b""):
    entry = LogEntry(kind=kind, deal_id=DEAL, party=keypair.address,
                     plist=plist, start_hash=start_hash)
    return LogEntry(
        kind=entry.kind, deal_id=entry.deal_id, party=entry.party,
        plist=entry.plist, start_hash=entry.start_hash,
        signature=keypair.sign(entry.message()),
    )


def commit_deal(sim, cbc, keys):
    plist = (keys["alice"].address, keys["bob"].address)
    cbc.submit(signed(keys["alice"], "startDeal", plist))
    sim.run()
    start_hash = cbc.definitive_start_hash(DEAL)
    cbc.submit(signed(keys["alice"], "commit", plist, start_hash))
    cbc.submit(signed(keys["bob"], "commit", plist, start_hash))
    sim.run()
    return plist, start_hash


class TestStatusProof:
    def test_valid_commit_certificate(self, world):
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        proof = StatusProof(certificate=cbc.status_certificate(DEAL))
        ctx = make_ctx(chain)
        status = verify_status_proof(ctx, proof, cbc.initial_public_keys, DEAL, start_hash)
        assert status is DealStatus.COMMITTED
        assert ctx.meter.sig_verify_count == cbc.validators.quorum  # 2f+1

    def test_wrong_deal_rejected(self, world):
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        proof = StatusProof(certificate=cbc.status_certificate(DEAL))
        assert verify_status_proof(
            make_ctx(chain), proof, cbc.initial_public_keys, b"x" * 32, start_hash
        ) is None

    def test_wrong_start_hash_rejected(self, world):
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        proof = StatusProof(certificate=cbc.status_certificate(DEAL))
        assert verify_status_proof(
            make_ctx(chain), proof, cbc.initial_public_keys, DEAL, b"bad" * 10
        ) is None

    def test_wrong_validators_rejected(self, world):
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        proof = StatusProof(certificate=cbc.status_certificate(DEAL))
        impostors = ValidatorSet.generate(1, seed="impostors").public_keys()
        assert verify_status_proof(
            make_ctx(chain), proof, impostors, DEAL, start_hash
        ) is None

    def test_forged_status_rejected(self, world):
        # Certificate says COMMITTED but is re-labelled ABORTED.
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        real = cbc.status_certificate(DEAL)
        forged = StatusCertificate(
            deal_id=real.deal_id, start_hash=real.start_hash,
            status=DealStatus.ABORTED, epoch=real.epoch,
            signatures=real.signatures,
        )
        assert verify_status_proof(
            make_ctx(chain), StatusProof(certificate=forged),
            cbc.initial_public_keys, DEAL, start_hash,
        ) is None

    def test_reconfigured_proof_needs_handovers(self, world):
        sim, wallet, cbc, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        cbc.submit(signed(keys["alice"], "startDeal", plist))
        sim.run()
        start_hash = cbc.definitive_start_hash(DEAL)
        cbc.reconfigure()
        cbc.reconfigure()
        cbc.submit(signed(keys["alice"], "commit", plist, start_hash))
        cbc.submit(signed(keys["bob"], "commit", plist, start_hash))
        sim.run()
        certificate = cbc.status_certificate(DEAL)
        assert certificate.epoch == 2
        # Without handovers: rejected.
        assert verify_status_proof(
            make_ctx(chain), StatusProof(certificate=certificate),
            cbc.initial_public_keys, DEAL, start_hash,
        ) is None
        # With handovers: accepted, costing (k+1)(2f+1) verifications.
        ctx = make_ctx(chain)
        status = verify_status_proof(
            ctx, StatusProof(certificate=certificate, handovers=cbc.handovers),
            cbc.initial_public_keys, DEAL, start_hash,
        )
        assert status is DealStatus.COMMITTED
        assert ctx.meter.sig_verify_count == 3 * cbc.validators.quorum


class TestBlockProof:
    def test_valid_block_proof(self, world):
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        proof = BlockProof(blocks=cbc.block_proof(DEAL))
        ctx = make_ctx(chain)
        status = verify_block_proof(
            ctx, proof, cbc.initial_public_keys, DEAL, start_hash, plist
        )
        assert status is DealStatus.COMMITTED
        # One quorum check per block.
        assert ctx.meter.sig_verify_count == len(proof.blocks) * cbc.validators.quorum

    def test_truncated_proof_rejected(self, world):
        # Dropping the decisive block must not prove commit.
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        blocks = cbc.block_proof(DEAL)
        truncated = BlockProof(blocks=blocks[:-1])
        assert verify_block_proof(
            make_ctx(chain), truncated, cbc.initial_public_keys, DEAL, start_hash, plist
        ) is None

    def test_gapped_proof_rejected(self, world):
        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        blocks = cbc.block_proof(DEAL)
        if len(blocks) >= 3:
            gapped = BlockProof(blocks=(blocks[0],) + blocks[2:])
            assert verify_block_proof(
                make_ctx(chain), gapped, cbc.initial_public_keys, DEAL, start_hash, plist
            ) is None

    def test_abort_found_in_blocks(self, world):
        sim, wallet, cbc, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        cbc.submit(signed(keys["alice"], "startDeal", plist))
        sim.run()
        start_hash = cbc.definitive_start_hash(DEAL)
        cbc.submit(signed(keys["bob"], "abort", plist, start_hash))
        sim.run()
        proof = BlockProof(blocks=cbc.block_proof(DEAL))
        status = verify_block_proof(
            make_ctx(chain), proof, cbc.initial_public_keys, DEAL, start_hash, plist
        )
        assert status is DealStatus.ABORTED

    def test_empty_proof_rejected(self, world):
        _, _, cbc, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        assert verify_block_proof(
            make_ctx(chain), BlockProof(blocks=()), cbc.initial_public_keys,
            DEAL, b"h" * 32, plist,
        ) is None


class TestPowProof:
    def test_commit_proof_requires_all_votes(self, world):
        _, _, _, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        pow_chain = PowChain()
        votes = tuple(encode_pow_vote(DEAL, "commit", p.value) for p in plist)
        pow_chain.mine(votes, miner="honest")
        pow_chain.mine((), miner="honest")
        proof = PowVoteProof(
            proof=pow_chain.proof_for(votes[0]), claimed_status=DealStatus.COMMITTED
        )
        assert verify_pow_proof(make_ctx(chain), proof, DEAL, plist, 1) is DealStatus.COMMITTED

    def test_partial_votes_not_a_commit(self, world):
        _, _, _, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        pow_chain = PowChain()
        only_alice = encode_pow_vote(DEAL, "commit", plist[0].value)
        pow_chain.mine((only_alice,), miner="honest")
        pow_chain.mine((), miner="honest")
        proof = PowVoteProof(
            proof=pow_chain.proof_for(only_alice), claimed_status=DealStatus.COMMITTED
        )
        assert verify_pow_proof(make_ctx(chain), proof, DEAL, plist, 1) is None

    def test_insufficient_confirmations_rejected(self, world):
        _, _, _, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        pow_chain = PowChain()
        abort = encode_pow_vote(DEAL, "abort", plist[0].value)
        pow_chain.mine((abort,), miner="honest")
        proof = PowVoteProof(
            proof=pow_chain.proof_for(abort), claimed_status=DealStatus.ABORTED
        )
        assert verify_pow_proof(make_ctx(chain), proof, DEAL, plist, 3) is None

    def test_private_fork_abort_accepted(self, world):
        # The §6.2 vulnerability, asserted as *present* on purpose.
        _, _, _, chain, keys = world
        plist = (keys["alice"].address, keys["bob"].address)
        public = PowChain()
        public.mine(
            tuple(encode_pow_vote(DEAL, "commit", p.value) for p in plist), miner="honest"
        )
        private = PowChain.forked_from(public, height=0)
        abort = encode_pow_vote(DEAL, "abort", plist[0].value)
        private.mine((abort,), miner="attacker")
        private.mine((), miner="attacker")
        fake = PowVoteProof(
            proof=private.proof_for(abort), claimed_status=DealStatus.ABORTED
        )
        assert verify_pow_proof(make_ctx(chain), fake, DEAL, plist, 1) is DealStatus.ABORTED


class TestQuorumGasEquivalence:
    def test_batched_fast_path_charges_same_gas_as_replay(self, world, monkeypatch):
        # The batched wall-clock fast path must charge exactly what the
        # per-signature replay charges: the protocol's gas accounting
        # is unchanged by the crypto engine.
        import repro.core.proofs as proofs_module

        sim, wallet, cbc, chain, keys = world
        plist, start_hash = commit_deal(sim, cbc, keys)
        proof = StatusProof(certificate=cbc.status_certificate(DEAL))

        fast_ctx = make_ctx(chain)
        status = verify_status_proof(
            fast_ctx, proof, cbc.initial_public_keys, DEAL, start_hash
        )
        assert status is DealStatus.COMMITTED

        # Force the sequential replay and re-verify from a cold cache.
        monkeypatch.setattr(
            proofs_module, "batch_verify_quorum", lambda *args, **kwargs: False
        )
        fast_ctx.verify_cache.verdicts.clear()
        slow_ctx = make_ctx(chain)
        status = verify_status_proof(
            slow_ctx, proof, cbc.initial_public_keys, DEAL, start_hash
        )
        assert status is DealStatus.COMMITTED
        assert fast_ctx.meter.snapshot() == slow_ctx.meter.snapshot()
