"""Unit tests for fault injection."""

from repro.sim.chaos import ChaosPolicy
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    OfflineWindow,
    Partition,
    ReplicaCrash,
    ReplicaRecover,
    TargetedDelay,
)
from repro.sim.network import SynchronousNetwork
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator


def make_net(delta=1.0):
    sim = Simulator()
    net = SynchronousNetwork(sim, delta=delta, rng=DeterministicRng(0))
    return sim, net


def test_crash_fault_silences_endpoint():
    sim, net = make_net()
    received = []
    net.register("victim", lambda message: received.append(sim.now))
    net.register("other", lambda message: received.append(("other", sim.now)))
    CrashFault(endpoint="victim", at_time=5.0).install(net)
    net.send("a", "victim", "before")  # sent at t=0: delivered
    sim.schedule(6.0, lambda: net.send("a", "victim", "after"))
    sim.schedule(6.0, lambda: net.send("victim", "other", "outbound"))
    sim.run()
    assert len(received) == 1


def test_offline_window_delays_inbound_and_drops_outbound():
    sim, net = make_net()
    inbound = []
    outbound = []
    net.register("victim", lambda message: inbound.append(sim.now))
    net.register("peer", lambda message: outbound.append(sim.now))
    window = OfflineWindow(endpoint="victim", start=5.0, end=20.0)
    window.install(net)
    sim.schedule(10.0, lambda: net.send("peer", "victim", "inbound"))
    sim.schedule(10.0, lambda: net.send("victim", "peer", "outbound"))
    sim.run()
    assert outbound == []  # dropped
    assert len(inbound) == 1 and inbound[0] >= 20.0  # delayed to window end
    assert window.dropped == 1
    assert window.delayed == 1


def test_offline_window_covers():
    window = OfflineWindow(endpoint="v", start=5.0, end=10.0)
    assert window.covers(5.0)
    assert window.covers(9.9)
    assert not window.covers(10.0)
    assert not window.covers(4.9)


def test_partition_blocks_cross_group_traffic():
    sim, net = make_net()
    received = []
    for name in ("a", "b", "c"):
        net.register(name, lambda message, name=name: received.append(name))
    Partition(groups=[{"a", "b"}, {"c"}], start=0.0, end=100.0).install(net)
    net.send("a", "b", "same-group")
    net.send("a", "c", "cross-group")
    sim.run()
    assert received == ["b"]


def test_partition_ignores_unlisted_endpoints():
    sim, net = make_net()
    received = []
    net.register("x", lambda message: received.append("x"))
    Partition(groups=[{"a"}, {"b"}], start=0.0, end=100.0).install(net)
    net.send("a", "x", "to-unlisted")
    sim.run()
    assert received == ["x"]


def test_partition_heals_after_window():
    sim, net = make_net()
    received = []
    net.register("c", lambda message: received.append(sim.now))
    Partition(groups=[{"a"}, {"c"}], start=0.0, end=5.0).install(net)
    net.send("a", "c", "during")
    sim.schedule(6.0, lambda: net.send("a", "c", "after"))
    sim.run()
    assert len(received) == 1 and received[0] >= 6.0


def test_targeted_delay_slows_but_delivers():
    sim, net = make_net(delta=1.0)
    received = []
    net.register("victim", lambda message: received.append(sim.now))
    TargetedDelay(endpoint="victim", extra_delay=50.0).install(net)
    net.send("a", "victim", "slowed")
    sim.run()
    assert len(received) == 1
    assert received[0] >= 50.0


def test_fault_plan_installs_all():
    sim, net = make_net()
    received = []
    net.register("v1", lambda message: received.append("v1"))
    net.register("v2", lambda message: received.append("v2"))
    plan = FaultPlan()
    plan.add(CrashFault(endpoint="v1", at_time=0.0))
    plan.add(CrashFault(endpoint="v2", at_time=0.0))
    plan.install(net)
    net.send("a", "v1", "x")
    net.send("a", "v2", "x")
    sim.run()
    assert received == []


def test_crash_fault_recover_at_restores_delivery():
    sim, net = make_net()
    received = []
    net.register("victim", lambda message: received.append(sim.now))
    fault = CrashFault(endpoint="victim", at_time=5.0, recover_at=10.0)
    fault.install(net)
    net.send("a", "victim", "before")          # t=0: delivered
    sim.schedule(6.0, lambda: net.send("a", "victim", "while-dead"))
    sim.schedule(11.0, lambda: net.send("a", "victim", "after"))
    sim.run()
    assert len(received) == 2
    assert received[-1] >= 11.0
    assert fault.dropped == 1
    assert fault.counters() == {"dropped": 1}


class _FakeHost:
    """Minimal install_processes host: records crash/recover calls."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.calls = []

    def crash_replica(self, name):
        self.calls.append(("crash", name, self.simulator.now))

    def recover_replica(self, name):
        self.calls.append(("recover", name, self.simulator.now))


def test_replica_crash_fires_process_hooks_and_silences_endpoint():
    sim, net = make_net()
    received = []
    net.register("s0/r1", lambda message: received.append(sim.now))
    host = _FakeHost(sim)
    fault = ReplicaCrash(replica="s0/r1", at_time=5.0, recover_at=9.0)
    plan = FaultPlan().add(fault)
    plan.install(net)
    plan.install_processes(host)
    net.send("peer", "s0/r1", "before")
    sim.schedule(6.0, lambda: net.send("peer", "s0/r1", "while-dead"))
    sim.schedule(10.0, lambda: net.send("peer", "s0/r1", "after"))
    sim.run()
    assert host.calls == [
        ("crash", "s0/r1", 5.0),
        ("recover", "s0/r1", 9.0),
    ]
    assert len(received) == 2  # dead-window shipment lost
    assert fault.crashes_fired == 1 and fault.recoveries_fired == 1
    assert fault.dropped == 1


def test_replica_recover_is_process_only():
    sim, net = make_net()
    host = _FakeHost(sim)
    fault = ReplicaRecover(replica="s1/r0", at_time=4.0)
    plan = FaultPlan().add(fault)
    # install() must skip it: there is no message-level behaviour.
    plan.install(net)
    assert net._filters == []
    plan.install_processes(host)
    sim.run()
    assert host.calls == [("recover", "s1/r0", 4.0)]
    assert fault.counters() == {"recoveries": 1}


def test_fault_plan_stats_rows_cover_every_kind():
    sim, net = make_net()
    net.register("victim", lambda message: None)
    host = _FakeHost(sim)
    crash = CrashFault(endpoint="victim", at_time=0.0)
    window = OfflineWindow(endpoint="victim", start=0.0, end=50.0)
    split = Partition(groups=[{"a"}, {"victim"}], start=0.0, end=50.0)
    slow = TargetedDelay(endpoint="victim", extra_delay=3.0)
    process = ReplicaCrash(replica="s0/r0", at_time=2.0, recover_at=4.0)
    plan = FaultPlan()
    for fault in (crash, window, split, slow, process):
        plan.add(fault)
    plan.install(net)
    plan.install_processes(host)
    net.send("a", "victim", "x")  # eaten by the CrashFault filter
    sim.run()
    rows = plan.stats()
    assert [row["kind"] for row in rows] == [
        "CrashFault", "OfflineWindow", "Partition", "TargetedDelay",
        "ReplicaCrash",
    ]
    assert rows[0] == {"kind": "CrashFault", "target": "victim", "dropped": 1}
    assert rows[1]["target"] == "victim" and "delayed" in rows[1]
    assert rows[2]["target"] == "a|victim"
    assert rows[3] == {"kind": "TargetedDelay", "target": "victim",
                       "delayed": 0}
    assert rows[4]["target"] == "s0/r0"
    assert rows[4]["crashes"] == 1 and rows[4]["recoveries"] == 1


# ----------------------------------------------------------------------
# MessageStorm: seeded lossy weather over a plane (PR 9)
# ----------------------------------------------------------------------
def test_message_storm_counters_cover_every_hazard():
    from repro.sim.faults import MessageStorm

    sim, net = make_net(delta=1.0)
    received = []
    net.register("b", lambda message: received.append(sim.now))
    storm = MessageStorm(
        policy=ChaosPolicy(drop_rate=0.3, dup_rate=0.3, delay_rate=0.3), seed=4
    )
    storm.install(net)
    for index in range(200):
        net.send("a", "b", index)
    sim.run()
    assert storm.dropped > 0 and storm.duplicated > 0 and storm.delayed > 0
    # Drop wins over duplicate wins over delay: one hazard per message.
    assert storm.dropped + storm.duplicated + storm.delayed <= 200
    assert len(received) == 200 - storm.dropped + storm.duplicated
    assert storm.counters() == {
        "dropped": storm.dropped,
        "duplicated": storm.duplicated,
        "delayed": storm.delayed,
    }
    assert net.stats["filter_duplicated"] == storm.duplicated


def test_message_storm_respects_window_and_endpoint():
    from repro.sim.faults import MessageStorm

    sim, net = make_net(delta=1.0)
    received = []
    net.register("victim", lambda message: received.append("victim"))
    net.register("bystander", lambda message: received.append("bystander"))
    storm = MessageStorm(
        policy=ChaosPolicy(drop_rate=1.0), endpoint="victim",
        start=5.0, end=10.0, seed=0,
    )
    storm.install(net)
    net.send("a", "victim", "before-window")       # t=0: clean
    net.send("a", "bystander", "never-stormed")
    sim.schedule(6.0, lambda: net.send("a", "victim", "in-window"))
    sim.schedule(6.0, lambda: net.send("a", "bystander", "in-window"))
    sim.schedule(11.0, lambda: net.send("a", "victim", "after-window"))
    sim.run()
    assert storm.dropped == 1
    assert received.count("victim") == 2
    assert received.count("bystander") == 2


def test_message_storm_schedule_is_seed_deterministic():
    from repro.sim.faults import MessageStorm

    def run(seed):
        sim, net = make_net(delta=1.0)
        arrivals = []
        net.register("b", lambda message: arrivals.append(
            (message.payload, sim.now)))
        storm = MessageStorm(
            policy=ChaosPolicy(drop_rate=0.2, dup_rate=0.2, delay_rate=0.2),
            seed=seed,
        )
        storm.install(net)
        for index in range(100):
            net.send("a", "b", index)
        sim.run()
        return arrivals, storm.counters()

    assert run("gale") == run("gale")


# ----------------------------------------------------------------------
# WorkerKill: verify-pool worker faults
# ----------------------------------------------------------------------
class _FakeWorkerHost:
    """Minimal install_workers host: records kills of workers it has."""

    def __init__(self, simulator, workers=0):
        self.simulator = simulator
        self.workers = workers  # 0 models the inline coordinator
        self.kills = []

    def kill_worker(self, worker, mode):
        if worker < self.workers:
            self.kills.append((worker, mode, self.simulator.now))


def test_worker_kill_fires_only_in_the_matching_worker():
    from repro.sim.faults import FaultPlan, WorkerKill

    sim = Simulator()
    inline = _FakeWorkerHost(sim, workers=0)
    small = _FakeWorkerHost(sim, workers=1)
    pooled = _FakeWorkerHost(sim, workers=2)
    fault = WorkerKill(worker=1, at_time=5.0)
    plan = FaultPlan().add(fault)
    for host in (inline, small, pooled):
        plan.install_workers(host)
    sim.run()
    # The fault is scheduled on every host (identical event heaps
    # across backends) but acts only where worker 1 exists.
    assert inline.kills == []
    assert small.kills == []
    assert pooled.kills == [(1, "kill", 5.0)]
    # ``kills`` counts firings of the schedule, host by host.
    assert fault.counters() == {"kills": 3}


def test_worker_kill_hang_mode_passes_through():
    from repro.sim.faults import WorkerKill

    sim = Simulator()
    host = _FakeWorkerHost(sim, workers=1)
    WorkerKill(worker=0, at_time=3.0, mode="hang").install_worker(host)
    sim.run()
    assert host.kills == [(0, "hang", 3.0)]


def test_fault_plan_stats_name_storm_and_worker_targets():
    from repro.sim.faults import FaultPlan, MessageStorm, WorkerKill

    sim, net = make_net()
    host = _FakeWorkerHost(sim, workers=3)
    plan = FaultPlan()
    plan.add(MessageStorm(policy=ChaosPolicy(drop_rate=0.5), seed=1))
    plan.add(MessageStorm(policy=ChaosPolicy(drop_rate=1.0), endpoint="s0/r1"))
    plan.add(WorkerKill(worker=2, at_time=1.0))
    plan.install(net)
    plan.install_workers(host)
    net.register("b", lambda message: None)
    for _ in range(20):
        net.send("a", "b", "x")
    sim.run()
    rows = plan.stats()
    assert [row["kind"] for row in rows] == [
        "MessageStorm", "MessageStorm", "WorkerKill",
    ]
    assert rows[0]["target"] == "*"          # whole-plane storm
    assert rows[0]["dropped"] > 0
    assert rows[1]["target"] == "s0/r1"      # endpoint-narrowed storm
    assert rows[2] == {"kind": "WorkerKill", "target": "worker-2", "kills": 1}
