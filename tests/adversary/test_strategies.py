"""Tests for deviation strategies: safety must survive each of them.

Each test runs the ticket-broker deal with one party deviating and
asserts Property 1 for the remaining compliant parties, under both
commit protocols.  This is the unit-sized version of the E7 gauntlet.
"""

import pytest

from repro.adversary.strategies import (
    ALL_STRATEGIES,
    CrashAfterEscrowParty,
    DoubleSpendAttemptParty,
    ImmediateRescinderParty,
    LateVoterParty,
    NoForwardParty,
    NoTransferParty,
    NoVoteParty,
    ShortChangeParty,
    UnsatisfiedParty,
    WalkAwayParty,
)
from repro.analysis.sweep import run_case
from repro.core.config import ProtocolKind
from repro.workloads.scenarios import ticket_broker_deal


def run_with_deviator(deviator_label, strategy, kind):
    """The broker deal with one deviator: ``(report on the rest, result)``."""
    spec, keys = ticket_broker_deal()
    return run_case(spec, keys, kind, {deviator_label: strategy})


PROTOCOLS = [ProtocolKind.TIMELOCK, ProtocolKind.CBC]


@pytest.mark.parametrize("kind", PROTOCOLS)
@pytest.mark.parametrize("deviator", ["alice", "bob", "carol"])
def test_no_vote_safe_everywhere(kind, deviator):
    report, result = run_with_deviator(deviator, NoVoteParty, kind)
    assert report.safety_ok, report.violations()
    assert report.weak_liveness_ok


@pytest.mark.parametrize("kind", PROTOCOLS)
@pytest.mark.parametrize("deviator", ["bob", "carol"])
def test_walk_away_safe(kind, deviator):
    report, result = run_with_deviator(deviator, WalkAwayParty, kind)
    assert report.safety_ok, report.violations()
    assert report.weak_liveness_ok
    assert not result.all_committed()


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_no_transfer_aborts_safely(kind):
    report, result = run_with_deviator("alice", NoTransferParty, kind)
    assert report.safety_ok, report.violations()
    assert report.weak_liveness_ok
    assert not result.all_committed()


def test_no_forward_still_commits_with_other_forwarders():
    # Alice refuses to forward; Bob and Carol cover for her on the
    # contracts they are motivated about, so the deal still commits.
    report, result = run_with_deviator("alice", NoForwardParty, ProtocolKind.TIMELOCK)
    assert report.safety_ok
    assert result.all_committed()


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_unsatisfied_party_forces_abort(kind):
    report, result = run_with_deviator("carol", UnsatisfiedParty, kind)
    assert report.safety_ok, report.violations()
    assert not result.all_committed()
    assert result.all_refunded()


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_crash_after_escrow_safe(kind):
    report, result = run_with_deviator("bob", CrashAfterEscrowParty, kind)
    assert report.safety_ok, report.violations()
    assert report.weak_liveness_ok


def test_late_voter_misses_deadlines():
    report, result = run_with_deviator("carol", LateVoterParty, ProtocolKind.TIMELOCK)
    assert report.safety_ok, report.violations()
    assert not result.all_committed()
    # The late vote was rejected by the contract.
    late_votes = [
        r for r in result.receipts
        if not r.ok and r.tx.method == "commit" and "deadline" in r.error
    ]
    assert late_votes


def test_immediate_rescinder_is_uniform_and_safe():
    report, result = run_with_deviator(
        "alice", ImmediateRescinderParty, ProtocolKind.CBC
    )
    assert report.safety_ok, report.violations()
    # The CBC guarantee: whatever happened, it happened everywhere.
    assert report.uniform_outcome


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_short_change_fails_validation(kind):
    report, result = run_with_deviator("alice", ShortChangeParty, kind)
    assert report.safety_ok, report.violations()
    assert not result.all_committed()


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_double_spend_attempt_rejected_on_chain(kind):
    report, result = run_with_deviator("carol", DoubleSpendAttemptParty, kind)
    assert report.safety_ok, report.violations()
    rejected = [
        r for r in result.receipts
        if not r.ok and r.tx.method == "transfer"
    ]
    assert rejected  # the duplicate spend bounced


def test_strategy_grid_is_complete():
    names = [name for name, _ in ALL_STRATEGIES]
    assert "compliant" in names
    assert len(names) == len(set(names)) == 11
