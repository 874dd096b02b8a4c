"""Regression tests for the receiving half of the market's message plane.

:class:`~repro.sim.network.ChaosBus` keeps one
:class:`~repro.sim.network.ReceiveWindow`: it releases each (sender,
recipient, chain) stream to its handler once and in ``msg_id`` order,
holding whatever arrives ahead of a gap until the gap fills.
Suppression is counted by the bus itself, next to the chaos counters
(see ``tests/sim``).
"""

from __future__ import annotations

from repro.sim.network import Envelope, ReceiveWindow

STREAM = ("coord", "shard-0", "chain-0")


def _envelope(msg_id: int) -> Envelope:
    return Envelope(
        sender="coord", chain_id="chain-0", tick=0.0, payload=msg_id,
        msg_id=msg_id,
    )


def _offer(window: ReceiveWindow, msg_id: int, stream=STREAM) -> list[int] | None:
    """Admit one copy: None for a duplicate, else the released ids."""
    if not window.admit(stream, _envelope(msg_id)):
        return None
    return [envelope.msg_id for envelope in window.release(stream)]


def test_dedup_floor_advances_and_absorbs_in_order_traffic():
    window = ReceiveWindow()
    for msg_id in range(1, 11):
        assert _offer(window, msg_id) == [msg_id]
    # Gap-free delivery: the floor absorbs every id and nothing is held.
    assert window._floor[STREAM] == 10
    assert window._held[STREAM] == {}


def test_dedup_stuck_floor_growth_is_bounded_and_heals():
    window = ReceiveWindow()
    # msg_id 1 is late: everything after it is held, not released.
    for msg_id in range(2, 50):
        assert _offer(window, msg_id) == []
    assert window._floor.get(STREAM, 0) == 0
    assert sorted(window._held[STREAM]) == list(range(2, 50))
    # The straggler lands: the whole run goes out behind it, in order.
    assert _offer(window, 1) == list(range(1, 50))
    assert window._floor[STREAM] == 49
    assert window._held[STREAM] == {}


def test_dedup_suppresses_copies_below_and_above_the_floor():
    window = ReceiveWindow()
    assert _offer(window, 1) == [1]
    assert _offer(window, 3) == []
    assert _offer(window, 1) is None  # at the floor: released already
    assert _offer(window, 3) is None  # above the floor: held already
    assert _offer(window, 2) == [2, 3]
    assert _offer(window, 3) is None
    assert _offer(window, 4) == [4]


def test_dedup_streams_are_independent_per_sender_and_chain():
    window = ReceiveWindow()
    other_chain = ("coord", "shard-0", "chain-2")
    other_sender = ("shard-1", "shard-0", "chain-0")
    # A gap on one stream holds back nothing on another.
    assert _offer(window, 2) == []
    assert _offer(window, 1, other_chain) == [1]
    assert _offer(window, 1, other_sender) == [1]
    assert _offer(window, 1, other_chain) is None
    assert _offer(window, 1) == [1, 2]


def test_dedup_release_stays_ordered_under_reentrant_delivery():
    window = ReceiveWindow()
    for msg_id in (2, 3):
        assert window.admit(STREAM, _envelope(msg_id))
    assert window.admit(STREAM, _envelope(1))
    seen = []
    for envelope in window.release(STREAM):
        seen.append(envelope.msg_id)
        if envelope.msg_id == 1:
            # A handler's side effect delivers the next id on the same
            # stream: the nested release drains the run in order, and
            # the outer one finds nothing left.
            assert window.admit(STREAM, _envelope(4))
            seen += [inner.msg_id for inner in window.release(STREAM)]
    assert seen == [1, 2, 3, 4]
