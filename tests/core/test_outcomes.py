"""Unit tests for outcome evaluation (Properties 1-3)."""

import pytest

from repro.analysis.sweep import run_case
from repro.core.config import ProtocolKind
from repro.core.executor import DealExecutor, auto_config
from repro.core.outcomes import evaluate_outcome, expected_commit_holdings
from repro.core.parties import CompliantParty
from repro.adversary.strategies import NoVoteParty, WalkAwayParty
from repro.workloads.scenarios import ticket_broker_deal


def run_broker(strategies=None):
    """The broker deal under timelock: ``(keys, report on the compliant
    rest, result)``."""
    spec, keys = ticket_broker_deal()
    return keys, *run_case(spec, keys, ProtocolKind.TIMELOCK, strategies)


def test_expected_commit_holdings_projection():
    spec, keys = ticket_broker_deal()
    parties = [CompliantParty(kp, label) for label, kp in keys.items()]
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    executor = DealExecutor(spec, parties, config)
    env = executor._build()
    from repro.core.executor import snapshot_holdings

    initial = snapshot_holdings(env, spec)
    expected = expected_commit_holdings(spec, initial)
    alice = keys["alice"].address
    bob = keys["bob"].address
    carol = keys["carol"].address
    assert expected[("coinchain", "coins")][alice] == 1
    assert expected[("coinchain", "coins")][bob] == 100
    assert expected[("coinchain", "coins")][carol] == 0
    assert expected[("ticketchain", "tickets")][carol] == {"ticket-0", "ticket-1"}


def test_all_compliant_run_satisfies_everything():
    _, report, _ = run_broker()
    assert report.safety_ok
    assert report.weak_liveness_ok
    assert report.strong_liveness_ok
    assert report.uniform_outcome
    assert report.violations() == []


def test_no_vote_deviation_aborts_safely():
    _, report, result = run_broker({"bob": NoVoteParty})
    assert {v.label for v in report.verdicts.values() if v.compliant} == {"alice", "carol"}
    assert report.safety_ok
    assert report.weak_liveness_ok
    assert report.strong_liveness_ok is None  # not an all-compliant run
    assert result.all_refunded()


def test_walk_away_deviation_refunds_everyone():
    _, report, _ = run_broker({"carol": WalkAwayParty})
    assert report.safety_ok
    assert report.weak_liveness_ok
    for verdict in report.verdicts.values():
        assert not verdict.relinquished_any


def test_verdict_fields_for_all_commit():
    keys, report, _ = run_broker()
    carol = report.verdicts[keys["carol"].address]
    assert carol.compliant
    assert carol.relinquished_any  # paid 101 coins
    assert carol.received_all  # got the tickets
    assert carol.safety_ok
    bob = report.verdicts[keys["bob"].address]
    assert bob.relinquished_any and bob.received_all


def test_uniformity_flagged_for_mixed_outcomes():
    from repro.adversary.dos import offline_window_scenario

    scenario = offline_window_scenario()
    report = evaluate_outcome(
        scenario.result,
        compliant={
            p for p in scenario.result.spec.parties
            if scenario.result.spec.label(p) == "bob"
        },
    )
    # One escrow released, the other refunded: not uniform (timelock
    # permits this; the CBC forbids it).
    assert not report.uniform_outcome
    # Bob (compliant) is safe; the offline victims are not compliant.
    assert report.safety_ok
