"""Unit tests for the shared retransmitter (sender half of at-least-once).

Both message planes — :class:`~repro.sim.network.ChaosBus` and the
replication layer — heal loss through this one class, so its contract
is pinned here once: capped exponential backoff, ack cancels, a newer
send supersedes, and an exhausted limit is counted exactly once.
"""

from repro.sim.network import Retransmitter
from repro.sim.simulator import Simulator


def make(ack_timeout=1.0, backoff_cap=5.0, limit=None):
    sim = Simulator()
    return sim, Retransmitter(sim, ack_timeout, backoff_cap, limit=limit)


def test_backoff_doubles_from_the_ack_timeout_up_to_the_cap():
    sim, resender = make(ack_timeout=1.0, backoff_cap=5.0)
    sent = []
    resender.send("k", lambda attempt: sent.append((attempt, sim.now)), "retry")
    sim.run(until=22.0)
    # Gaps 1, 2, 4, then the cap: 5, 5, 5.
    assert sent == [
        (0, 0.0), (1, 1.0), (2, 3.0), (3, 7.0), (4, 12.0), (5, 17.0), (6, 22.0),
    ]
    assert len(resender) == 1  # no limit: retried until acked


def test_ack_cancels_the_timer():
    sim, resender = make()
    sent = []
    resender.send("k", sent.append, "retry")
    assert resender.ack("k") is True
    assert resender.ack("k") is False  # no longer outstanding
    assert len(resender) == 0
    assert sim.pending == 0
    sim.run()
    assert sent == [0]
    assert sim.events_processed == 0


def test_ack_inside_the_first_transmission_schedules_nothing():
    sim, resender = make()

    def transmit(attempt):
        resender.ack("k")  # a synchronous transport acks before we return

    resender.send("k", transmit, "retry")
    assert len(resender) == 0
    assert sim.pending == 0


def test_resending_a_key_supersedes_the_old_timer():
    sim, resender = make(ack_timeout=1.0, backoff_cap=8.0)
    sent = []
    resender.send("k", lambda attempt: sent.append(("old", attempt)), "retry")
    sim.run(until=1.5)  # the old message has backed off to a 2-tick gap
    resender.send("k", lambda attempt: sent.append(("new", attempt)), "retry")
    assert len(resender) == 1
    assert sim.pending == 1  # the old timer is cancelled, not left to fire
    sim.run(until=2.6)
    # Only the new message is retried, and its backoff restarted at 1.
    assert sent == [("old", 0), ("old", 1), ("new", 0), ("new", 1)]


def test_limit_abandons_the_key_and_counts_it_once():
    sim, resender = make(ack_timeout=1.0, backoff_cap=2.0, limit=3)
    sent = []
    resender.send("k", sent.append, "retry")
    sim.run()  # terminates: an abandoned key schedules nothing further
    # One transmission, `limit` retransmissions, then the give-up.
    assert sent == [0, 1, 2, 3]
    assert resender.abandoned == 1
    assert len(resender) == 0
    assert resender.ack("k") is False
    assert resender.abandoned == 1


def test_transmit_may_ack_its_own_key_to_stop():
    sim, resender = make(limit=5)
    sent = []

    def transmit(attempt):
        sent.append(attempt)
        if attempt == 2:  # the resend has become moot
            resender.ack("k")

    resender.send("k", transmit, "retry")
    sim.run()
    assert sent == [0, 1, 2]
    assert resender.abandoned == 0
    assert sim.pending == 0
