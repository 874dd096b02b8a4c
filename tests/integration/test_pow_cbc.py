"""End-to-end tests for the proof-of-work CBC protocol variant."""

import pytest

from repro.adversary.mining import PowFakeProofParty
from repro.analysis.sweep import run_deal
from repro.core.config import ProtocolKind
from repro.core.escrow import EscrowState
from repro.core.executor import DealExecutor, auto_config
from repro.core.outcomes import evaluate_outcome
from repro.core.parties import CompliantParty
from repro.adversary.strategies import NoVoteParty
from repro.workloads.generators import ring_deal
from repro.workloads.scenarios import ticket_broker_deal


def test_all_compliant_pow_run_commits():
    spec, keys = ticket_broker_deal(nonce=b"pow-1")
    result = run_deal(spec, keys, ProtocolKind.CBC_POW)
    assert result.all_committed()
    report = evaluate_outcome(result)
    assert report.safety_ok and report.strong_liveness_ok and report.uniform_outcome


def test_pow_ring_commits():
    spec, keys = ring_deal(n=4)
    result = run_deal(spec, keys, ProtocolKind.CBC_POW)
    assert result.all_committed()


def test_pow_abort_path_refunds():
    spec, keys = ticket_broker_deal(nonce=b"pow-2")
    parties = []
    compliant = set()
    for label, keypair in keys.items():
        cls = NoVoteParty if label == "carol" else CompliantParty
        parties.append(cls(keypair, label))
        if cls is CompliantParty:
            compliant.add(keypair.address)
    config = auto_config(spec, ProtocolKind.CBC_POW)
    result = DealExecutor(spec, parties, config).run()
    assert result.all_refunded()
    report = evaluate_outcome(result, compliant)
    assert report.safety_ok and report.weak_liveness_ok


def test_settlement_waits_for_confirmations():
    spec, keys = ticket_broker_deal(nonce=b"pow-3")
    config = auto_config(spec, ProtocolKind.CBC_POW, pow_confirmations=5)
    result = run_deal(spec, keys, ProtocolKind.CBC_POW, config=config)
    assert result.all_committed()
    assert result.env.cbc.confirmations(spec.deal_id) >= 5


def test_fake_proof_attacker_double_collects():
    """The §6.2 attack, end to end: Bob fakes an abort for his
    outgoing tickets while honestly claiming his incoming coins."""
    spec, keys = ticket_broker_deal(nonce=b"pow-4")
    attacker_cls = PowFakeProofParty.wrap(CompliantParty)
    parties = []
    compliant = set()
    for label, keypair in keys.items():
        if label == "bob":
            parties.append(attacker_cls(keypair, label))
        else:
            parties.append(CompliantParty(keypair, label))
            compliant.add(keypair.address)
    config = auto_config(spec, ProtocolKind.CBC_POW)
    result = DealExecutor(spec, parties, config, seed=11).run()
    # The outcome splits: tickets refunded on the fake proof, coins
    # released on the honest one — the PoW CBC's non-finality bites.
    states = set(result.escrow_states.values())
    if result.escrow_states["bob-tickets"] is EscrowState.REFUNDED:
        bob = keys["bob"].address
        tickets = result.final_holdings[("ticketchain", "tickets")]
        coins = result.final_holdings[("coinchain", "coins")]
        assert tickets[bob] == {"ticket-0", "ticket-1"}
        assert coins[bob] == 100
        # Compliant Carol paid and received nothing: the attack is a
        # genuine safety breach *of the PoW variant* — exactly why the
        # paper recommends BFT certification for the CBC.
        report = evaluate_outcome(result, compliant)
        carol = keys["carol"].address
        assert not report.verdicts[carol].received_all
    else:
        # The honest claim raced in first (scheduling-dependent): the
        # attack window closed and everyone is safe.
        assert result.all_committed()


def test_bft_cbc_immune_to_same_strategy():
    """The identical strategy against the BFT CBC cannot forge a
    proof, so the deal commits normally everywhere."""
    spec, keys = ticket_broker_deal(nonce=b"pow-5")
    attacker_cls = PowFakeProofParty.wrap(CompliantParty)
    parties = [
        (attacker_cls if label == "bob" else CompliantParty)(keypair, label)
        for label, keypair in keys.items()
    ]
    config = auto_config(spec, ProtocolKind.CBC)
    result = DealExecutor(spec, parties, config, validators_f=1).run()
    assert result.all_committed()
    report = evaluate_outcome(result)
    assert report.safety_ok and report.uniform_outcome
