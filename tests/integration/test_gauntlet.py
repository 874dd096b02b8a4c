"""The E7 safety gauntlet: strategies × roles × protocols.

Theorem 5.1 / §6.1: no compliant party ends up worse off, whatever the
deviators do.  This sweeps every deviation strategy through every role
of the ticket-broker deal (and pairs of deviators), under both
protocols, asserting Property 1 and weak liveness each time.
"""

import pytest

from repro.adversary.strategies import ALL_STRATEGIES
from repro.analysis.sweep import run_case
from repro.core.config import ProtocolKind
from repro.workloads.scenarios import ticket_broker_deal

STRATEGIES = dict(ALL_STRATEGIES)
PROTOCOLS = [ProtocolKind.TIMELOCK, ProtocolKind.CBC, ProtocolKind.CBC_POW]


def run_broker(assignment: dict, kind: ProtocolKind):
    """The broker deal with each label in ``assignment`` playing the
    named strategy: ``(report on the compliant rest, result)``."""
    spec, keys = ticket_broker_deal()
    strategies = {label: STRATEGIES[name] for label, name in assignment.items()}
    return run_case(spec, keys, kind, strategies)


def judged(report) -> int:
    return sum(verdict.compliant for verdict in report.verdicts.values())


@pytest.mark.parametrize("kind", PROTOCOLS)
@pytest.mark.parametrize("strategy", [name for name, _ in ALL_STRATEGIES])
@pytest.mark.parametrize("role", ["alice", "bob", "carol"])
def test_single_deviator_grid(kind, strategy, role):
    report, _ = run_broker({role: strategy}, kind)
    assert report.safety_ok, (
        f"{strategy}@{role} under {kind.value}: {report.violations()}"
    )
    assert report.weak_liveness_ok, f"{strategy}@{role} locked compliant assets"
    if kind in (ProtocolKind.CBC, ProtocolKind.CBC_POW):
        # With honest mining the PoW log is also uniform; only the
        # fake-proof attacker (tested separately) can split it.
        assert report.uniform_outcome, f"{strategy}@{role} split the CBC outcome"


@pytest.mark.parametrize("kind", PROTOCOLS)
@pytest.mark.parametrize(
    "pair",
    [
        ("walk-away", "no-vote"),
        ("no-vote", "no-vote"),
        ("crash-after-escrow", "late-voter"),
        ("short-change", "no-forward"),
        ("double-spend", "immediate-rescinder"),
    ],
)
def test_two_deviators(kind, pair):
    # Two of three parties deviate; the sole compliant party must
    # still be safe — the paper bounds nothing about deviator counts.
    report, _ = run_broker({"bob": pair[0], "carol": pair[1]}, kind)
    assert judged(report) == 1
    assert report.safety_ok, f"{pair} under {kind.value}: {report.violations()}"
    assert report.weak_liveness_ok


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_all_three_deviating_still_converges(kind):
    # Nobody is compliant: nothing to assert about safety, but the
    # run must terminate and no escrow may stay locked forever
    # (timeouts / patience still fire for these strategies).
    report, result = run_broker(
        {"alice": "no-vote", "bob": "late-voter", "carol": "no-forward"}, kind
    )
    assert judged(report) == 0
    assert not result.all_committed()
