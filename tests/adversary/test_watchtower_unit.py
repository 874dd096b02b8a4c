"""Unit tests for the watchtower (beyond the E9 integration path)."""

from repro.adversary.watchtower import Watchtower
from repro.core.config import ProtocolKind
from repro.core.executor import DealExecutor, auto_config
from repro.core.parties import CompliantParty
from repro.workloads.scenarios import ticket_broker_deal


def build_with_watchtower(client_label: str):
    spec, keys = ticket_broker_deal(nonce=b"wt-unit")
    parties = [CompliantParty(kp, label) for label, kp in keys.items()]
    config = auto_config(spec, ProtocolKind.TIMELOCK)
    executor = DealExecutor(spec, parties, config)
    towers = {}
    original_build = executor._build

    def build():
        env = original_build()
        client = next(p for p in parties if p.label == client_label)
        tower = Watchtower(client)
        tower.attach(env, spec, config)
        towers[client_label] = tower
        return env

    executor._build = build
    return executor, towers, keys


def test_watchtower_watches_client_role_sets():
    executor, towers, keys = build_with_watchtower("carol")
    executor.run()
    tower = towers["carol"]
    # Carol gives coins (outgoing) and receives tickets (incoming).
    assert tower.client.outgoing_asset_ids() == ["carol-coins"]
    assert tower.client.incoming_asset_ids() == ["bob-tickets"]


def test_watchtower_idle_when_client_healthy():
    # A healthy client forwards its own votes; the watchtower may
    # still race it, but the deal commits either way and duplicate
    # forwards are bounced by the contract, not double-counted.
    executor, towers, _ = build_with_watchtower("carol")
    result = executor.run()
    assert result.all_committed()


def test_watchtower_does_not_forward_clients_own_vote():
    executor, towers, keys = build_with_watchtower("carol")
    executor.run()
    tower = towers["carol"]
    carol = keys["carol"].address
    assert all(voter != carol for (_, voter) in tower._forwarded)
