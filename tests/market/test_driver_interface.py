"""All three commit protocols sit behind the one ``DealDriver`` interface.

The coordinator admits, routes each receipt to its deal's driver and
reports; it has no per-protocol phase logic.  These tests pin that
shape — every admitted deal has a driver, the driver table is the
whole hierarchy, the bus vocabulary is six payload types — and that
the two ways a deal unwinds (a withheld vote, an escrow conflict) end
the same way under every protocol, through the same hooks.
"""

from __future__ import annotations

import pytest

from market_test_utils import run_hand, two_party_swap
from repro.core.deal import PROTOCOLS, Asset, DealSpec
from repro.market import DealPhase, MarketConfig, MarketCoordinator, messages
from repro.market.order import sign_order
from repro.market.protocols import DRIVERS, DealDriver
from repro.workloads.market import MarketProfile, MarketWorkload


def _leaves(cls):
    subclasses = cls.__subclasses__()
    if not subclasses:
        return {cls}
    return set().union(*(_leaves(sub) for sub in subclasses))


def test_driver_table_is_the_whole_hierarchy():
    assert tuple(DRIVERS) == PROTOCOLS
    assert _leaves(DealDriver) == set(DRIVERS.values())
    assert len(set(DRIVERS.values())) == 3


def test_bus_vocabulary_is_six_payload_types():
    assert messages.__all__ == [
        "SubmitOrder", "PublishEscrow", "SubmitStep",
        "BlockReceipts", "DeltaShipment", "DeltaAck",
    ]


def test_every_admitted_deal_has_its_protocols_driver():
    scheduler = MarketCoordinator(MarketWorkload(MarketProfile.mixed_smoke()))
    report = scheduler.run()
    assert report.invariant_violations == ()
    used = set()
    for run in scheduler.runs.values():
        if run.reason == "malformed":
            assert run.driver is None and run.phase is DealPhase.REJECTED
            continue
        assert type(run.driver) is DRIVERS[run.protocol]
        used.add(run.protocol)
    assert used == set(PROTOCOLS)


def test_malformed_order_is_the_only_driverless_run():
    def orders(wl):
        party = wl.labels[0]
        spec = DealSpec(
            parties=(party,),
            assets=(Asset(asset_id="a", chain_id=wl.chain_ids[0],
                          token="no-such-token", owner=party, amount=1),),
            steps=(), nonce=b"malformed",
        )
        return [sign_order(spec, wl.accounts, arrival=0.5, index=0),
                two_party_swap(wl, index=1)]

    scheduler, report = run_hand(orders)
    assert (report.rejected, report.committed) == (1, 1)
    bad, good = sorted(scheduler.runs.values(), key=lambda r: r.order.index)
    assert bad.driver is None and bad.reason == "malformed"
    assert bad.phase is DealPhase.REJECTED and bad.patience_handle is None
    assert good.driver is not None


@pytest.fixture
def hook_calls(monkeypatch):
    """Count coordinator → driver hook calls per driver class."""
    calls = {}
    for cls in DRIVERS.values():
        for hook in ("on_registered", "on_escrow_receipt"):
            original = getattr(cls, hook)

            def counted(self, *args, _original=original, _key=(cls, hook)):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(cls, hook, counted)
    return calls


def _holdings(scheduler, chain_id, party):
    """A party's wallet balance plus its free book balance."""
    token = scheduler.tokens[chain_id]
    return token.peek_balance(party) + scheduler.books[chain_id].peek_account(
        party, token.name
    )


def _assert_unwound(scheduler, run, balance):
    assert run.phase is DealPhase.ABORTED and run.decided == "abort"
    assert run.driver.settlement_disagreements() == {}
    for chain_id in scheduler.workload.chain_ids:
        for party in run.order.spec.parties:
            assert _holdings(scheduler, chain_id, party) == balance


_CONFIG = MarketConfig(patience=40.0, check_invariants_per_block=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_withheld_vote_aborts_and_refunds(protocol, hook_calls):
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(wl, protocol=protocol,
                           withhold_votes=frozenset({wl.labels[0]}))
        ],
        book_fund_fraction=0.5,
        config=_CONFIG,
    )
    assert (report.committed, report.aborted) == (0, 1)
    assert report.invariant_violations == ()
    run = next(iter(scheduler.runs.values()))
    _assert_unwound(scheduler, run, 1_000)
    # Registration and every later receipt reached this driver class
    # through the coordinator's one routing path — and no other class.
    cls = DRIVERS[protocol]
    assert hook_calls[(cls, "on_registered")] == 1
    assert hook_calls[(cls, "on_escrow_receipt")] > 0
    assert {key[0] for key in hook_calls} == {cls}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_escrow_conflict_aborts_the_loser_and_refunds(protocol, hook_calls):
    # Both deals draw on all of p0's funds on the first chain (half in
    # the book for unanimity, half in the wallet for timelock/CBC).
    scheduler, report = run_hand(
        lambda wl: [
            two_party_swap(wl, index=0, arrival=0.5, a=0, b=1, amount=50,
                           protocol=protocol),
            two_party_swap(wl, index=1, arrival=0.6, a=0, b=2, amount=50,
                           protocol=protocol),
        ],
        balance=100,
        book_fund_fraction=0.5,
        config=_CONFIG,
    )
    assert (report.committed, report.aborted) == (1, 1)
    assert report.conflicts == 1
    assert report.invariant_violations == ()
    winner, loser = sorted(scheduler.runs.values(), key=lambda r: r.order.index)
    assert winner.phase is DealPhase.COMMITTED
    assert loser.conflict
    # The loser's counterparty escrowed successfully and got it back.
    wl = scheduler.workload
    assert loser.phase is DealPhase.ABORTED and loser.decided == "abort"
    assert loser.driver.settlement_disagreements() == {}
    for chain_id in wl.chain_ids:
        assert _holdings(scheduler, chain_id, wl.labels[2]) == 100
    assert hook_calls[(DRIVERS[protocol], "on_registered")] == 2
    assert {key[0] for key in hook_calls} == {DRIVERS[protocol]}
