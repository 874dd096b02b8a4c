"""§5.1 vs §6: decentralization, measured.

"A commit protocol is decentralized if there is no single blockchain
accessed by all parties in any execution" (§6).  The timelock protocol
is decentralized — in the §5.1 altcoin example, Bob completes the deal
without ever touching (or knowing about) the altcoin chain.  The CBC
protocol is *necessarily* not: every party must reach the shared log.
These tests measure which endpoints each party actually contacted.
"""

import pytest

from repro.analysis.sweep import run_deal
from repro.core.config import ProtocolKind
from repro.core.outcomes import evaluate_outcome
from repro.workloads.scenarios import altcoin_brokered_deal


def chains_touched(result) -> dict[str, set[str]]:
    """Map party label -> chains its transactions targeted."""
    touched: dict[str, set[str]] = {}
    label_of = {address: result.spec.label(address) for address in result.spec.parties}
    contract_chain = {}
    for chain_id, chain in result.env.chains.items():
        for name in chain._contracts:
            contract_chain[name] = chain_id
    for receipt in result.receipts:
        sender = label_of.get(receipt.tx.sender)
        if sender is None:
            continue
        chain_id = contract_chain.get(receipt.tx.contract)
        if chain_id is not None:
            touched.setdefault(sender, set()).add(chain_id)
    return touched


def test_altcoin_deal_is_well_formed_and_commits():
    spec, keys = altcoin_brokered_deal()
    assert spec.is_well_formed()
    assert spec.chains() == ("altchain", "coinchain", "ticketchain")
    result = run_deal(spec, keys, ProtocolKind.TIMELOCK)
    assert result.all_committed()
    report = evaluate_outcome(result)
    assert report.safety_ok and report.strong_liveness_ok
    # Alice pockets her commission in coins.
    alice = keys["alice"].address
    assert result.final_holdings[("coinchain", "coins")][alice] == 1


def test_timelock_is_decentralized():
    """No single chain is accessed by every party (§5.1)."""
    spec, keys = altcoin_brokered_deal(nonce=b"dec-1")
    result = run_deal(spec, keys, ProtocolKind.TIMELOCK)
    assert result.all_committed()
    touched = chains_touched(result)
    # Bob never interacts with the altcoin chain (nor David with the
    # ticket chain).
    assert "altchain" not in touched["bob"]
    assert "ticketchain" not in touched["david"]
    # And no chain was touched by all four parties.
    for chain_id in spec.chains():
        users = {label for label, chains in touched.items() if chain_id in chains}
        assert users != {"alice", "bob", "carol", "david"}, chain_id


def test_cbc_is_centralized():
    """Every party must access the CBC — the §6 impossibility's price."""
    spec, keys = altcoin_brokered_deal(nonce=b"dec-2")
    result = run_deal(spec, keys, ProtocolKind.CBC, validators_f=1)
    assert result.all_committed()
    # Every party published at least one entry to the shared log.
    for label, stats in result.party_stats.items():
        assert stats.cbc_entries >= 1, f"{label} never touched the CBC"


def test_altcoin_deal_survives_the_gauntlet_roles():
    from repro.adversary.strategies import NoVoteParty
    from repro.analysis.sweep import run_case

    spec, keys = altcoin_brokered_deal(nonce=b"dec-3")
    report, result = run_case(spec, keys, ProtocolKind.TIMELOCK, {"david": NoVoteParty})
    assert report.safety_ok and report.weak_liveness_ok
    assert result.all_refunded()
