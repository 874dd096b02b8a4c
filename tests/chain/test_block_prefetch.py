"""Block production batch-verifies declared signatures before executing.

The first block producer to run at an instant hands the pending
``Contract.signature_claims`` of every chain due there — and the CBC
log's entries — to one ``schnorr.batch_verify_many`` call, through the
simulator's ``ledger.VerifyAggregator``.  These
tests pin what that step may and may not do, with a toy contract whose
one method verifies one raw signature: it saves exponentiations, it
never saves a check, and there is no switch — the comparison twin is
``execute_now``, which never prefetches.
"""

import pytest

from repro.chain import ledger
from repro.chain.contracts import Contract
from repro.chain.ledger import Chain
from repro.chain.tx import Transaction
from repro.consensus.bft import CertifiedBlockchain, LogEntry
from repro.consensus.validators import ValidatorSet
from repro.crypto import schnorr
from repro.crypto.fastexp import P, Q, generator_pow
from repro.crypto.hashing import bytes_to_int, tagged_hash
from repro.crypto.keys import KeyPair, Wallet
from repro.errors import UnknownContractError
from repro.sim.simulator import Simulator


class Notary(Contract):
    """``attest`` succeeds iff ``signature`` is ``public_key``'s over ``message``."""

    EXPORTS = ("attest", "ping")

    def signature_claims(self, method, args):
        if method != "attest":
            return []
        return [(args["public_key"], args.get("claimed", args["message"]), args["signature"])]

    def attest(self, ctx, public_key, message, signature, claimed=None):
        ctx.require(
            ctx.verify_raw_signature(public_key, message, signature), "bad attestation"
        )
        return True

    def ping(self, ctx):
        return True


SIGNERS = [KeyPair.from_label(f"notary-signer-{i}") for i in range(5)]


def attestation(index: int, presented: bytes | None = None, **extra) -> Transaction:
    """Signer ``index`` signs ``statement <index>``; the tx may present another."""
    signer = SIGNERS[index]
    signed = f"statement {index}".encode()
    return Transaction(
        sender=signer.address, contract="notary", method="attest",
        args={"public_key": signer.public_key, "message": presented or signed,
              "signature": signer.sign(signed), **extra},
    )


@pytest.fixture
def world():
    schnorr.clear_verification_caches()
    simulator = Simulator()
    chain = Chain("testchain", simulator, Wallet())
    chain.publish(Notary("notary"))
    return simulator, chain


@pytest.fixture
def exponentiations(monkeypatch):
    """Count the calls ``schnorr`` makes into ``fastexp`` by name."""
    calls = {"multi_pow": 0, "base_pow": 0}

    def counted(name):
        original = getattr(schnorr, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(schnorr, name, counted(name))
    return calls


def seal(simulator, chain, txs):
    for tx in txs:
        chain.submit(tx)
    simulator.run()
    return [chain.receipt_for(tx.tx_id) for tx in txs]


def test_one_fresh_signature_is_not_worth_a_multi_exp(world, exponentiations):
    simulator, chain = world
    (receipt,) = seal(simulator, chain, [attestation(0)])
    assert receipt.ok and receipt.gas.sig_verify == 1
    assert exponentiations == {"multi_pow": 0, "base_pow": 1}


def test_a_block_pays_one_multi_exp_where_execute_now_pays_one_pow_each(
    world, exponentiations
):
    simulator, chain = world
    receipts = seal(simulator, chain, [attestation(i) for i in range(3)])
    assert all(r.ok and r.gas.sig_verify == 1 for r in receipts)
    assert exponentiations == {"multi_pow": 1, "base_pow": 0}

    schnorr.clear_verification_caches()
    exponentiations.update(multi_pow=0, base_pow=0)
    receipts = [chain.execute_now(attestation(i)) for i in range(3)]
    assert all(r.ok and r.gas.sig_verify == 1 for r in receipts)
    assert exponentiations == {"multi_pow": 0, "base_pow": 3}


def test_a_triple_claimed_twice_in_a_block_counts_once(world, exponentiations):
    simulator, chain = world
    receipts = seal(simulator, chain, [attestation(0), attestation(0)])
    assert all(r.ok for r in receipts)
    assert exponentiations == {"multi_pow": 0, "base_pow": 1}


def test_a_forged_claim_costs_only_its_own_transaction_the_batch(world, exponentiations):
    simulator, chain = world
    forged = attestation(2, presented=b"not what was signed")
    receipts = seal(simulator, chain, [attestation(0), attestation(1), forged, attestation(3)])
    assert [r.ok for r in receipts] == [True, True, False, True]
    assert receipts[2].error == "bad attestation"
    assert receipts[2].gas.sig_verify == 1
    # Isolation certified the honest three; the forged triple met a cold check.
    assert exponentiations["base_pow"] == 1
    args = forged.args
    assert not schnorr.verify(args["public_key"], args["message"], args["signature"])


def test_a_claim_is_a_fact_to_check_never_a_grant(world):
    """A contract that claims a *different*, valid triple certifies only that."""
    simulator, chain = world
    lying = attestation(1, presented=b"what is presented", claimed=b"statement 1")
    receipts = seal(simulator, chain, [attestation(0), lying])
    assert [r.ok for r in receipts] == [True, False]
    assert receipts[1].error == "bad attestation"


def test_transactions_with_nothing_to_claim_ride_along(world):
    simulator, chain = world
    stray = [
        Transaction(SIGNERS[0].address, "notary", "signature_claims", {}),
        Transaction(SIGNERS[0].address, "notary", "ping", {}),
    ]
    receipts = seal(simulator, chain, stray + [attestation(1)])
    assert [r.ok for r in receipts] == [False, True, True]
    assert "exports no method" in receipts[0].error


def test_an_unknown_contract_still_fails_the_way_it_did(world):
    simulator, chain = world
    with pytest.raises(UnknownContractError):
        seal(simulator, chain, [Transaction(SIGNERS[0].address, "nowhere", "attest", {})])


def test_prefetch_moves_no_verify_counter(world):
    simulator, chain = world
    seal(simulator, chain, [attestation(i) for i in range(3)])
    stats = schnorr.cache_stats()
    # Three executions, three hits; the prefetch itself counted nothing.
    assert (stats["verify_hits"], stats["verify_misses"]) == (3, 0)


def sign_flipped(signer: KeyPair, message: bytes, slip: int = 0) -> schnorr.Signature:
    """Sign with the commitment negated: ``R' = p - g^k``, ``s = k + e'·x``.

    ``g^s == -R'·pk^e'``, and a weighted batch sees ``R'^w == g^(kw)`` for
    every even ``w``: verification compares up to sign so that neither
    the weights nor the neighbours decide (``slip`` spoils the response).
    """
    k = bytes_to_int(tagged_hash("test/nonce", message)) % Q
    commitment = P - generator_pow(k)
    e = schnorr._challenge(commitment, signer.public_key, message)
    return schnorr.Signature(commitment, (k + e * signer.private_key.scalar + slip) % Q)


def test_a_sign_flipped_commitment_has_one_verdict_in_a_block_and_alone(world):
    """Eight blocks, two flipped signatures each — about half of the merged
    checks draw weights whose parities cancel — against cold ``execute_now``."""
    simulator, chain = world
    for block in range(8):
        txs = [attestation(0)]
        for index, slip in ((1, 0), (2, 0), (3, 1)):
            signer, message = SIGNERS[index], f"block {block} claim {index}".encode()
            txs.append(Transaction(
                sender=signer.address, contract="notary", method="attest",
                args={"public_key": signer.public_key, "message": message,
                      "signature": sign_flipped(signer, message, slip)},
            ))
        sealed = seal(simulator, chain, txs)
        alone = []
        for tx in txs:
            schnorr.clear_verification_caches()
            alone.append(chain.execute_now(tx))
        assert [r.ok for r in sealed] == [r.ok for r in alone] == [True, True, True, False]
        assert [r.gas for r in sealed] == [r.gas for r in alone]


def test_a_hook_that_raises_claims_nothing(world):
    """Nor does one that returns a malformed claim: a claim is a hint."""
    class Raising(Notary):
        def signature_claims(self, method, args):
            raise KeyError("malformed")

    class Malformed(Notary):
        def signature_claims(self, method, args):
            return [(args["public_key"], args["message"], "not a signature")]

    simulator, chain = world
    chain.publish(Raising("raising"))
    chain.publish(Malformed("malformed"))
    clumsy = [
        Transaction(tx.sender, name, tx.method, tx.args)
        for name, tx in (("raising", attestation(0)), ("malformed", attestation(3)))
    ]
    receipts = seal(simulator, chain, clumsy + [attestation(1), attestation(2)])
    assert [r.ok for r in receipts] == [True, True, True, True]


# ----------------------------------------------------------------------
# Every producer due at one instant shares one merged check
# ----------------------------------------------------------------------
def notaries(simulator, *intervals):
    """One notary chain per block interval, all on ``simulator``."""
    schnorr.clear_verification_caches()
    chains = []
    for index, interval in enumerate(intervals):
        chain = Chain(f"notary-{index}", simulator, Wallet(), block_interval=interval)
        chain.publish(Notary("notary"))
        chains.append(chain)
    return chains


def seal_one_each(txs):
    """Three chains on one simulator, ``txs[i]`` submitted to the i-th."""
    simulator = Simulator()
    chains = notaries(simulator, 1.0, 1.0, 1.0)
    for chain, tx in zip(chains, txs):
        chain.submit(tx)
    simulator.run()
    return [chain.receipt_for(tx.tx_id) for chain, tx in zip(chains, txs)]


def test_three_chains_due_at_one_boundary_share_one_multi_exp(exponentiations):
    receipts = seal_one_each([attestation(i) for i in range(3)])
    assert all(r.ok and r.gas.sig_verify == 1 for r in receipts)
    # Each block alone holds one fresh signature, not worth a multi-exp:
    # three cold pows where the boundary now pays one merged check.
    assert exponentiations == {"multi_pow": 1, "base_pow": 0}


def test_a_forged_claim_on_one_chain_reverts_only_its_own_transaction(exponentiations):
    receipts = seal_one_each(
        [attestation(0), attestation(1, presented=b"not what was signed"), attestation(2)]
    )
    assert [r.ok for r in receipts] == [True, False, True]
    assert receipts[1].error == "bad attestation" and receipts[1].gas.sig_verify == 1
    # Isolation certified the other chains' claims; only the forgery met
    # a cold check, on its own chain.
    assert exponentiations["base_pow"] == 1


def test_chains_merge_only_at_the_boundaries_they_share(exponentiations, monkeypatch):
    simulator = Simulator()
    every_second, every_three_halves = notaries(simulator, 1.0, 1.5)
    merged_at = []
    counted = schnorr.multi_pow
    monkeypatch.setattr(
        schnorr, "multi_pow", lambda *args: merged_at.append(simulator.now) or counted(*args)
    )
    # Blocks at 1.0, 2.0, 3.0 on one chain and 1.5, 3.0 on the other,
    # one fresh attestation each.
    for at, chain, index in ((0.5, every_second, 0), (1.5, every_second, 1),
                             (2.5, every_second, 2), (0.5, every_three_halves, 3),
                             (2.0, every_three_halves, 4)):
        simulator.schedule_at(at, lambda chain=chain, tx=attestation(index): chain.submit(tx))
    simulator.run(until=2.5)
    due = ledger.VerifyAggregator.of(simulator)._due
    assert list(due) == [3.0] and [len(filed) for filed in due[3.0]] == [2, 0]
    simulator.run()
    assert [chain.height for chain in (every_second, every_three_halves)] == [3, 2]
    assert merged_at == [3.0]
    assert exponentiations == {"multi_pow": 1, "base_pow": 3}
    assert due == {}


def test_a_cbc_log_entry_joins_the_boundary_it_shares_with_a_chain(
    exponentiations, monkeypatch
):
    simulator = Simulator()
    (chain,) = notaries(simulator, 1.0)
    voter = SIGNERS[4]
    wallet = Wallet()
    wallet.register(voter)
    cbc = CertifiedBlockchain(simulator, ValidatorSet.generate(1), wallet)
    unsigned = LogEntry(kind="startDeal", deal_id=b"d" * 32, party=voter.address,
                        plist=(voter.address,))
    entry = LogEntry(kind="startDeal", deal_id=b"d" * 32, party=voter.address,
                     plist=(voter.address,), signature=voter.sign(unsigned.message()))
    inside = []
    verify_pending = CertifiedBlockchain._verify_pending

    def counted(self, entries):
        before = exponentiations["multi_pow"]
        accepted = verify_pending(self, entries)
        inside.append(exponentiations["multi_pow"] - before)
        return accepted

    monkeypatch.setattr(CertifiedBlockchain, "_verify_pending", counted)
    tx = attestation(0)
    cbc.submit(entry)
    chain.submit(tx)
    simulator.run()
    assert cbc.blocks[-1].entries == (entry,) and chain.receipt_for(tx.tx_id).ok
    # The log's own batched check found its entry already certified.
    assert inside == [0]
    assert exponentiations == {"multi_pow": 1, "base_pow": 0}
