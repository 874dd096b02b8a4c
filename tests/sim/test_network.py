"""Unit tests for network timing models."""

import pytest

from repro.errors import NetworkError
from repro.sim.network import (
    DropMessage,
    EventuallySynchronousNetwork,
    SynchronousNetwork,
)
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator


def make_sync(delta=2.0, seed=0):
    sim = Simulator()
    net = SynchronousNetwork(sim, delta=delta, rng=DeterministicRng(seed))
    return sim, net


def test_synchronous_delivery_within_delta():
    sim, net = make_sync(delta=2.0)
    arrivals = []
    net.register("b", lambda message: arrivals.append(sim.now))
    for _ in range(50):
        net.send("a", "b", "ping")
    sim.run()
    assert len(arrivals) == 50
    assert all(t <= 2.0 + 1e-6 for t in arrivals)


def test_fifo_per_pair():
    sim, net = make_sync(delta=5.0, seed=3)
    order = []
    net.register("b", lambda message: order.append(message.payload))
    for index in range(20):
        net.send("a", "b", index)
    sim.run()
    assert order == list(range(20))


def test_fifo_does_not_apply_across_pairs():
    # Messages from different senders may interleave arbitrarily.
    sim, net = make_sync(delta=5.0, seed=1)
    order = []
    net.register("c", lambda message: order.append(message.sender))
    net.send("a", "c", 1)
    net.send("b", "c", 2)
    sim.run()
    assert sorted(order) == ["a", "b"]


def test_unknown_recipient_dropped():
    sim, net = make_sync()
    net.send("a", "ghost", "boo")
    sim.run()
    assert net.stats["dropped"] == 1
    assert net.stats["delivered"] == 0


def test_duplicate_registration_rejected():
    _, net = make_sync()
    net.register("x", lambda message: None)
    with pytest.raises(NetworkError):
        net.register("x", lambda message: None)


def test_invalid_delta_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        SynchronousNetwork(sim, delta=0)


def test_eventually_synchronous_holds_messages_until_gst():
    sim = Simulator()
    net = EventuallySynchronousNetwork(
        sim, delta=1.0, gst=100.0, rng=DeterministicRng(0)
    )
    arrivals = []
    net.register("b", lambda message: arrivals.append(sim.now))
    for _ in range(20):
        net.send("a", "b", "early")
    sim.run()
    assert len(arrivals) == 20
    # Default adversarial schedule: nothing delivered before GST.
    assert all(t >= 100.0 for t in arrivals)
    assert all(t <= 101.0 + 1e-6 for t in arrivals)


def test_eventually_synchronous_fast_after_gst():
    sim = Simulator()
    net = EventuallySynchronousNetwork(
        sim, delta=1.0, gst=10.0, rng=DeterministicRng(0)
    )
    arrivals = []
    net.register("b", lambda message: arrivals.append(sim.now))
    sim.schedule(20.0, lambda: net.send("a", "b", "late"))
    sim.run()
    assert len(arrivals) == 1
    assert 20.0 <= arrivals[0] <= 21.0 + 1e-6


def test_stats_count_filter_drops_and_delays():
    sim, net = make_sync(delta=1.0)
    arrivals = []
    net.register("b", lambda message: arrivals.append(sim.now))

    def fn(message):
        if message.payload == "drop":
            raise DropMessage
        if message.payload == "slow":
            return 10.0
        return None

    net.add_filter(fn)
    net.send("a", "b", "clean")
    net.send("a", "b", "drop")
    net.send("a", "b", "slow")
    sim.run()
    assert len(arrivals) == 2
    assert max(arrivals) >= 10.0  # the slowed message arrived late
    stats = net.stats
    assert stats["delivered"] == 2
    assert stats["filter_dropped"] == 1
    assert stats["filter_delayed"] == 1
    # dropped includes filter drops (plus any unknown recipients).
    assert stats["dropped"] == 1


def test_filter_zero_extra_delay_is_not_counted_as_delayed():
    sim, net = make_sync(delta=1.0)
    net.register("b", lambda message: None)
    net.add_filter(lambda message: 0.0)
    net.send("a", "b", "x")
    sim.run()
    assert net.stats["filter_delayed"] == 0
    assert net.stats["delivered"] == 1


# ----------------------------------------------------------------------
# Duplicate-delivery filters (the MessageStorm hazard's transport)
# ----------------------------------------------------------------------
def test_filter_duplicate_delivers_twice_fifo_clamped():
    from repro.sim.network import DuplicateMessage

    sim, net = make_sync(delta=1.0, seed=2)
    arrivals = []
    net.register("b", lambda message: arrivals.append(message.payload))

    def fn(message):
        if message.payload == "twin":
            raise DuplicateMessage
        return None

    net.add_filter(fn)
    net.send("a", "b", "first")
    net.send("a", "b", "twin")
    net.send("a", "b", "last")
    sim.run()
    # The duplicated copy rides the same FIFO channel: it lands right
    # behind the original, ahead of every later send.
    assert arrivals == ["first", "twin", "twin", "last"]
    assert net.stats["filter_duplicated"] == 1
    assert net.stats["delivered"] == 4


# ----------------------------------------------------------------------
# ChaosBus: seeded hazards + at-least-once delivery
# ----------------------------------------------------------------------
from repro.sim.chaos import ChaosPlan, ChaosPolicy  # noqa: E402
from repro.sim.network import ChaosBus, LocalBus  # noqa: E402


def make_chaos(policy, seed=0, **knobs):
    sim = Simulator()
    bus = ChaosBus(sim, ChaosPlan(market=policy, **knobs), seed=seed)
    return sim, bus


def test_chaos_bus_zero_policy_is_synchronous_and_event_free():
    sim, bus = make_chaos(ChaosPolicy())
    received = []
    bus.register("b", lambda envelope: received.append(envelope.payload))
    for index in range(20):
        bus.post("a", "b", 0, index)
    # Every copy delivered and acked inside post(): nothing pending,
    # nothing scheduled — the zero-chaos path costs zero events.
    assert received == list(range(20))
    assert bus.in_flight == 0
    assert sim.pending == 0
    sim.run()
    assert sim.events_processed == 0
    assert bus.stats["resends"] == 0
    assert bus.stats["chaos_dropped"] == 0


def test_chaos_bus_stamps_monotonic_msg_ids_per_pair():
    sim, bus = make_chaos(ChaosPolicy())
    ids = []
    bus.register("b", lambda envelope: ids.append(
        (envelope.sender, envelope.msg_id)))
    bus.register("c", lambda envelope: ids.append(
        (envelope.sender, envelope.msg_id)))
    bus.post("a", "b", 0, "x")
    bus.post("a", "b", 0, "y")
    bus.post("z", "b", 0, "x")
    bus.post("a", "c", 0, "x")
    bus.post("a", "b", 1, "x")
    # Sequences are per (sender, recipient, chain) stream, from 1.
    assert ids == [("a", 1), ("a", 2), ("z", 1), ("a", 1), ("a", 1)]


def test_chaos_bus_drops_heal_via_resend():
    sim, bus = make_chaos(
        ChaosPolicy(drop_rate=0.4), seed=7, ack_timeout=0.5, backoff_cap=2.0
    )
    received = []
    bus.register("b", lambda envelope: received.append(envelope.payload))
    for index in range(30):
        bus.post("a", "b", 0, index)
    sim.run(until=500.0)
    # At-least-once in, exactly-once and in order out: every payload
    # arrives despite 40% transmission loss, a retransmission whose
    # original (or whose ack) was merely late is suppressed, and
    # nothing overtakes a dropped predecessor.
    assert received == list(range(30))
    assert bus.in_flight == 0
    assert bus.stats["chaos_dropped"] > 0
    assert bus.stats["resends"] > 0


def test_chaos_bus_duplicates_every_message_exactly_twice():
    sim, bus = make_chaos(ChaosPolicy(dup_rate=1.0), seed=3)
    received = []
    bus.register("b", lambda envelope: received.append(envelope.msg_id))
    for index in range(10):
        bus.post("a", "b", 0, index)
    sim.run()
    assert bus.stats["chaos_duplicated"] >= 10
    # Each data envelope is transmitted exactly twice (original + twin)
    # and handed to the handler once: the bus's per-recipient window
    # suppresses the twin, counts it, and still acks it.  Acks are
    # intercepted by the bus and never reach the handler.
    assert sorted(received) == list(range(1, 11))
    assert bus.stats["delivered"] == 20
    assert bus.stats["dup_suppressed"] == 10
    assert bus.in_flight == 0


def test_chaos_bus_delay_and_reorder_hold_messages():
    sim, bus = make_chaos(
        ChaosPolicy(delay_rate=1.0, reorder_rate=1.0, delay_min=0.2,
                    delay_max=0.6, reorder_max=0.4),
        seed=5,
    )
    arrivals = []
    payloads = []
    bus.register("b", lambda envelope: (
        arrivals.append(sim.now), payloads.append(envelope.payload)))
    for index in range(12):
        bus.post("a", "b", 0, index)
    # Every copy held: nothing delivered synchronously.
    assert arrivals == []
    sim.run()
    assert len(arrivals) == 12
    assert all(t >= 0.2 for t in arrivals)
    # Held copies overtake each other in flight, but the handler still
    # sees the stream in send order.
    assert payloads == list(range(12))
    assert bus.stats["chaos_delayed"] == bus.stats["chaos_reordered"] >= 12
    assert bus.in_flight == 0


def test_chaos_bus_abandons_unregistered_recipient():
    sim, bus = make_chaos(ChaosPolicy())
    bus.post("a", "ghost", 0, "boo")
    # Retrying a void endpoint forever would pin the event loop: the
    # pending entry is abandoned on the undeliverable attempt.
    assert bus.in_flight == 0
    assert bus.stats["dropped"] == 1
    sim.run()
    assert sim.events_processed == 0


def test_chaos_bus_schedule_is_seed_deterministic():
    def run(seed):
        sim, bus = make_chaos(
            ChaosPolicy.at(0.3), seed=seed, ack_timeout=0.5, backoff_cap=2.0
        )
        received = []
        bus.register("b", lambda envelope: received.append(
            (envelope.msg_id, sim.now)))
        for index in range(40):
            bus.post("a", "b", 0, index)
        sim.run(until=500.0)
        return received, dict(bus.stats)

    first_received, first_stats = run(11)
    second_received, second_stats = run(11)
    assert first_received == second_received
    assert first_stats == second_stats


def test_local_bus_never_stamps_msg_ids():
    sim = Simulator()
    bus = LocalBus(sim)
    ids = []
    bus.register("b", lambda envelope: ids.append(envelope.msg_id))
    bus.post("a", "b", 0, "x")
    bus.post("a", "b", 0, "y")
    # Exact transport: msg_id stays 0 — nothing to ack or deduplicate,
    # and the bus never needs chaos counters.
    assert ids == [0, 0]
    assert "chaos_dropped" not in bus.stats
