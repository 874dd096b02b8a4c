"""``run_case`` judges exactly the parties that play ``CompliantParty``."""

from repro.adversary.mining import PowFakeProofParty
from repro.adversary.strategies import NoVoteParty, WalkAwayParty
from repro.analysis.sweep import run_case
from repro.core.config import ProtocolKind
from repro.core.parties import CompliantParty
from repro.workloads.scenarios import ticket_broker_deal


def judged(strategies, kind=ProtocolKind.TIMELOCK) -> set[str]:
    spec, keys = ticket_broker_deal()
    report, _ = run_case(spec, keys, kind, strategies)
    return {verdict.label for verdict in report.verdicts.values() if verdict.compliant}


def test_two_deviators_leave_one_judged_verdict():
    assert judged({"bob": NoVoteParty, "carol": WalkAwayParty}) == {"alice"}


def test_a_role_cast_as_compliant_by_name_is_judged():
    assert judged({"alice": CompliantParty, "bob": NoVoteParty}) == {"alice", "carol"}


def test_a_wrapped_compliant_subclass_is_not_judged():
    attacker = PowFakeProofParty.wrap(CompliantParty)
    assert judged({"bob": attacker}, ProtocolKind.CBC_POW) == {"alice", "carol"}
