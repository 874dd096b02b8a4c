"""Unit/integration tests for the deal executor."""

import pytest

from repro.chain.gas import GasBreakdown
from repro.core.config import ProofKind, ProtocolConfig, ProtocolKind
from repro.core.executor import DealExecutor, auto_config
from repro.core.outcomes import evaluate_outcome
from repro.core.parties import CompliantParty
from repro.errors import ConfigurationError
from repro.workloads.generators import ring_deal
from repro.workloads.scenarios import ticket_broker_deal


def make_parties(keys):
    return [CompliantParty(keypair, label) for label, keypair in keys.items()]


def test_party_list_must_match_plist():
    spec, keys = ticket_broker_deal()
    parties = make_parties(keys)[:2]
    with pytest.raises(ConfigurationError):
        DealExecutor(spec, parties, auto_config(spec, ProtocolKind.TIMELOCK))


def test_auto_config_scales_with_deal():
    small, _ = ring_deal(n=2)
    large, _ = ring_deal(n=8)
    c_small = auto_config(small, ProtocolKind.TIMELOCK)
    c_large = auto_config(large, ProtocolKind.TIMELOCK)
    assert c_large.t0 > c_small.t0
    assert c_large.patience > c_small.patience


def test_run_is_deterministic():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result1 = DealExecutor(spec, make_parties(keys), config, seed=7).run()
    spec2, keys2 = ticket_broker_deal()
    result2 = DealExecutor(spec2, make_parties(keys2), config, seed=7).run()
    assert result1.gas_total() == result2.gas_total()
    assert result1.timeline.settled_at == result2.timeline.settled_at
    assert [r.tx.method for r in result1.receipts] == [r.tx.method for r in result2.receipts]


def test_different_seeds_change_schedules():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result1 = DealExecutor(spec, make_parties(keys), config, seed=1).run()
    spec2, keys2 = ticket_broker_deal()
    result2 = DealExecutor(spec2, make_parties(keys2), config, seed=2).run()
    # Outcomes agree even when message timings differ.
    assert result1.all_committed() and result2.all_committed()


def test_initial_holdings_snapshot():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result = DealExecutor(spec, make_parties(keys), config).run()
    carol = keys["carol"].address
    bob = keys["bob"].address
    assert result.initial_holdings[("coinchain", "coins")][carol] == 101
    assert result.initial_holdings[("ticketchain", "tickets")][bob] == {
        "ticket-0", "ticket-1",
    }


def test_receipts_sorted_by_time():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result = DealExecutor(spec, make_parties(keys), config).run()
    times = [receipt.executed_at for receipt in result.receipts]
    assert times == sorted(times)


def test_gas_by_phase_excludes_reverted_by_default():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result = DealExecutor(spec, make_parties(keys), config).run()
    clean = result.gas_by_phase()
    with_waste = result.gas_by_phase(include_reverted=True)
    total_clean = sum(b.total for b in clean.values())
    total_waste = sum(b.total for b in with_waste.values())
    assert total_waste >= total_clean


def test_gas_total_is_the_sum_of_the_phases():
    # The broker deal reverts benign duplicate forwards; like the swap
    # and 2PC totals E11 prints beside it, the total counts none of them.
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result = DealExecutor(spec, make_parties(keys), config).run()
    assert any(not receipt.ok for receipt in result.receipts)
    phases = result.gas_by_phase().values()
    assert result.gas_total() == sum(phases, GasBreakdown.zero())


def test_timeline_phases_ordered():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result = DealExecutor(spec, make_parties(keys), config).run()
    timeline = result.timeline
    assert timeline.escrow_done is not None
    assert timeline.transfers_done >= timeline.escrow_done
    assert timeline.settled_at >= timeline.transfers_done


def test_party_stats_populated():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    result = DealExecutor(spec, make_parties(keys), config).run()
    for label in ("alice", "bob", "carol"):
        stats = result.party_stats[label]
        assert stats.txs_sent > 0
        assert stats.validated_at is not None


def test_altruistic_votes_commit_faster():
    spec, keys = ring_deal(n=6)
    lazy = auto_config(spec, ProtocolKind.TIMELOCK)
    eager = auto_config(spec, ProtocolKind.TIMELOCK, altruistic_votes=True)
    slow = DealExecutor(spec, make_parties(keys), lazy, seed=3).run()
    spec2, keys2 = ring_deal(n=6)
    fast = DealExecutor(spec2, make_parties(keys2), eager, seed=3).run()
    assert slow.all_committed() and fast.all_committed()
    from repro.analysis.timing import commit_latency_in_delta
    assert commit_latency_in_delta(fast) <= commit_latency_in_delta(slow)


def test_cbc_pow_protocol_runs_end_to_end():
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, ProtocolKind.CBC_POW)
    result = DealExecutor(spec, make_parties(keys), config).run()
    assert result.all_committed()
    report = evaluate_outcome(result)
    assert report.safety_ok and report.strong_liveness_ok
    # Settlement waited for the configured confirmation depth.
    assert result.env.cbc.confirmations(spec.deal_id) >= config.pow_confirmations
