"""Regression tests for the market's message plane bookkeeping.

The receiving half of at-least-once delivery is one
:class:`~repro.sim.network.DedupWindow` per recipient inside
:class:`~repro.sim.network.ChaosBus` (suppression is counted by the
bus itself, next to the chaos counters — see ``tests/sim``).  Pinned
here is the window's documented stuck-floor behaviour: a permanently
missing low ``msg_id`` pins the floor and lets the sparse set grow one
entry per later id — bounded by the sender's in-flight window — until
the gap fills and the whole set collapses back into the floor.

And a congestion-path bug fixed in the fee-market PR: the shard
runtime counted ``defer_abandoned`` (a causally-deferred escrow op
that hit the retry cap) but the report never rendered it, so
abandonment was invisible in every E18 table.
"""

from __future__ import annotations

from market_test_utils import HandWorkload, two_party_swap
from repro.market import MarketConfig, MarketCoordinator
from repro.sim.network import DedupWindow


def test_dedup_ignores_exact_transport_traffic():
    window = DedupWindow()
    # msg_id 0 marks exact-transport traffic: never deduplicated.
    assert not window.duplicate("coord", 0)
    assert not window.duplicate("coord", 0)


def test_dedup_windows_are_per_sender():
    window = DedupWindow()
    assert not window.duplicate("a", 1)
    assert not window.duplicate("b", 1)
    assert window.duplicate("a", 1)


def test_dedup_floor_advances_and_absorbs_in_order_traffic():
    window = DedupWindow()
    for msg_id in range(1, 11):
        assert not window.duplicate("coord", msg_id)
    # Gap-free delivery: the contiguous floor absorbs every id and the
    # sparse set stays empty.
    assert window._floor["coord"] == 10
    assert window._seen["coord"] == set()
    assert window.duplicate("coord", 3)  # below the floor


def test_dedup_stuck_floor_growth_is_bounded_and_heals():
    window = DedupWindow()
    # msg_id 1 never arrives: the floor pins at 0 and the sparse set
    # grows one entry per admitted later id (the documented bound —
    # the sender's in-flight window under at-least-once delivery).
    for msg_id in range(2, 50):
        assert not window.duplicate("coord", msg_id)
    assert window._floor["coord"] == 0
    assert len(window._seen["coord"]) == 48
    # Duplicates above the stuck floor are still suppressed.
    assert window.duplicate("coord", 25)
    # The straggler finally lands: the floor sweeps the whole set.
    assert not window.duplicate("coord", 1)
    assert window._floor["coord"] == 49
    assert window._seen["coord"] == set()


def test_defer_abandonment_is_counted_and_rendered():
    workload = HandWorkload(lambda wl: [two_party_swap(wl)])
    scheduler = MarketCoordinator(
        workload, MarketConfig(patience=30.0)
    )
    runtime = scheduler.runtimes[0]
    # Force one causal deferral past the retry cap: the runtime must
    # count the abandonment (the deal then resolves via its patience
    # timeout; here the message is synthetic so only the counter
    # matters).
    runtime._defer(object(), runtime._DEFER_LIMIT)
    report = scheduler.run()
    assert dict(report.bus_stats)["defer_abandoned"] == 1
    rendered = report.render()
    assert "escrow ops abandoned (defer cap)" in rendered
    assert "escrow ops deferred (causal)" in rendered


def test_in_order_runs_render_no_defer_rows():
    workload = HandWorkload(lambda wl: [two_party_swap(wl)])
    scheduler = MarketCoordinator(workload, MarketConfig(patience=30.0))
    report = scheduler.run()
    # Byte-neutrality: the defer rows only appear once a runtime
    # actually deferred, so in-order reports keep their exact bytes.
    assert "defer_abandoned" not in dict(report.bus_stats)
    assert "escrow ops" not in report.render()


def test_defer_cap_exhausts_for_a_never_published_contract():
    from repro.chain.tx import Transaction
    from repro.market.messages import SubmitStep
    from repro.market.shard import COORDINATOR_ENDPOINT, shard_endpoint

    workload = HandWorkload(lambda wl: [two_party_swap(wl)])
    scheduler = MarketCoordinator(workload, MarketConfig(patience=30.0))
    runtime = scheduler.runtimes[0]
    simulator = scheduler.simulator
    deferrals = []
    schedule = simulator.schedule

    def spy(delay, callback, label=""):
        if label == "shard0/defer":
            deferrals.append(simulator.now)
        return schedule(delay, callback, label)

    simulator.schedule = spy
    # A step whose escrow contract is never published: the runtime
    # parks and retries it until the cap, then gives up for good.
    scheduler.bus.post(
        COORDINATOR_ENDPOINT, shard_endpoint(0), 0,
        SubmitStep(
            deal_id=b"orphan",
            chain_id=runtime.home_chain_id,
            tx=Transaction(
                sender=scheduler.coordinator.address,
                contract="never-published",
                method="transfer",
                args={},
                phase="market/escrow-open",
            ),
        ),
    )
    report = scheduler.run()
    stats = dict(report.bus_stats)
    assert stats["deferred"] == runtime._DEFER_LIMIT == 200
    assert stats["defer_abandoned"] == 1
    # One retry per cap slot, none after the abandonment, and the
    # simulator drained.
    assert len(deferrals) == 200
    assert simulator.pending == 0
    rows = [line for line in report.render().splitlines()
            if "escrow ops abandoned (defer cap)" in line]
    assert len(rows) == 1 and rows[0].split()[-1] == "1"
