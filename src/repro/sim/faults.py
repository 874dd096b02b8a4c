"""Fault injection: crashes, offline windows, partitions, DoS.

The paper's adversary can crash parties, drive them offline at the
wrong moment (§5.3's denial-of-service window), or partition the
network.  These injectors install delivery filters on a
:class:`~repro.sim.network.Network`; they affect only message
*delivery* — a party's local computation is suppressed by the party
strategies in :mod:`repro.adversary`.

Two faults go further than message filters.  :class:`ReplicaCrash`
and :class:`ReplicaRecover` are **process-level** faults: in addition
to silencing the endpoint's traffic, they kill and revive a replica
of the market's replication layer (:mod:`repro.market.replication`)
— a crashed replica stops applying state, a crashed *leader* forces a
failover, and a recovering replica catches up from its latest
snapshot plus block replay.  Process faults are delivered through
:meth:`FaultPlan.install_processes`, which hands them a *host*
exposing ``simulator``, ``crash_replica`` and ``recover_replica``.

Every fault keeps per-fault drop/delay counters, surfaced through
:meth:`FaultPlan.stats`, so composed schedules are observable in
reports instead of silently eating messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.chaos import ChaosPolicy
from repro.sim.network import DropMessage, DuplicateMessage, Message, Network
from repro.sim.rng import DeterministicRng


@dataclass
class CrashFault:
    """Silence an endpoint from ``at_time`` onwards.

    Messages to or from the crashed endpoint are dropped.  With
    ``recover_at`` set the crash is transient: delivery resumes once
    the clock reaches it, so crash/recover schedules compose
    declaratively instead of through hand-rolled filters.
    """

    endpoint: str
    at_time: float
    recover_at: float | None = None
    dropped: int = 0

    def _dead(self, now: float) -> bool:
        if now < self.at_time:
            return False
        return self.recover_at is None or now < self.recover_at

    def install(self, network: Network) -> None:
        """Attach this fault's delivery filter to ``network``."""
        def fn(message: Message) -> float | None:
            now = network.simulator.now
            if self._dead(now) and self.endpoint in (
                message.sender,
                message.recipient,
            ):
                self.dropped += 1
                raise DropMessage
            return None

        network.add_filter(fn)

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {"dropped": self.dropped}


@dataclass
class OfflineWindow:
    """Silence an endpoint during ``[start, end)`` — the §5.3 DoS window.

    Inbound messages during the window are *delayed* until the window
    ends (the party reconnects and catches up); outbound messages are
    dropped (the party could not have produced them while offline).
    """

    endpoint: str
    start: float
    end: float
    delayed: int = 0
    dropped: int = 0

    def install(self, network: Network) -> None:
        """Attach this fault's delivery filter to ``network``."""
        def fn(message: Message) -> float | None:
            now = network.simulator.now
            if not self.start <= now < self.end:
                return None
            if message.sender == self.endpoint:
                self.dropped += 1
                raise DropMessage
            if message.recipient == self.endpoint:
                self.delayed += 1
                return self.end - now
            return None

        network.add_filter(fn)

    def covers(self, time: float) -> bool:
        """Whether ``time`` falls inside the offline window."""
        return self.start <= time < self.end

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {"dropped": self.dropped, "delayed": self.delayed}


@dataclass
class Partition:
    """Split endpoints into groups; cross-group messages drop in a window."""

    groups: list[set[str]]
    start: float
    end: float
    dropped: int = 0

    def _group_of(self, endpoint: str) -> int | None:
        for index, group in enumerate(self.groups):
            if endpoint in group:
                return index
        return None

    def install(self, network: Network) -> None:
        """Attach this fault's delivery filter to ``network``."""
        def fn(message: Message) -> float | None:
            now = network.simulator.now
            if not self.start <= now < self.end:
                return None
            sender_group = self._group_of(message.sender)
            recipient_group = self._group_of(message.recipient)
            if (
                sender_group is not None
                and recipient_group is not None
                and sender_group != recipient_group
            ):
                self.dropped += 1
                raise DropMessage
            return None

        network.add_filter(fn)

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {"dropped": self.dropped}


@dataclass
class TargetedDelay:
    """Add a fixed extra delay to messages touching an endpoint.

    Models a sustained DoS attack that slows (but does not sever) a
    victim's connectivity — e.g. delaying the CBC itself (§9).
    """

    endpoint: str
    extra_delay: float
    start: float = 0.0
    end: float = float("inf")
    affected: int = 0

    def install(self, network: Network) -> None:
        """Attach this fault's delivery filter to ``network``."""
        def fn(message: Message) -> float | None:
            now = network.simulator.now
            if not self.start <= now < self.end:
                return None
            if self.endpoint in (message.sender, message.recipient):
                self.affected += 1
                return self.extra_delay
            return None

        network.add_filter(fn)

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {"delayed": self.affected}


@dataclass
class MessageStorm:
    """Seeded lossy weather over a network: drop, duplicate, delay.

    The chaos hazard of the *replication* plane.  Each message in the
    ``[start, end)`` window takes one
    :meth:`~repro.sim.chaos.ChaosPolicy.roll` of ``policy`` — the same
    fixed-draw roll :class:`~repro.sim.network.ChaosBus` takes per
    transmission — and the FIFO network applies what it can: drop wins
    over duplicate wins over delay, so one message suffers one hazard,
    and the reorder hold has no meaning on an ordered channel.
    Duplicates are requested by raising
    :class:`~repro.sim.network.DuplicateMessage`, which the network
    delivers as a second FIFO-clamped copy right behind the original;
    the replication layer's sequence-numbered apply must absorb it.
    ``endpoint`` narrows the storm to messages touching one endpoint;
    ``None`` storms all traffic.
    """

    policy: ChaosPolicy
    endpoint: str | None = None
    start: float = 0.0
    end: float = float("inf")
    seed: int | str = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    def install(self, network: Network) -> None:
        """Attach the storm's delivery filter to ``network``."""
        rng = DeterministicRng(f"message-storm/{self.seed}")
        stream = rng.stream("storm")

        def fn(message: Message) -> float | None:
            now = network.simulator.now
            if not self.start <= now < self.end:
                return None
            if self.endpoint is not None and self.endpoint not in (
                message.sender,
                message.recipient,
            ):
                return None
            hazards = self.policy.roll(stream)
            if hazards.drop:
                self.dropped += 1
                raise DropMessage
            if hazards.duplicate:
                self.duplicated += 1
                raise DuplicateMessage
            if hazards.delay is not None:
                self.delayed += 1
                return hazards.delay
            return None

        network.add_filter(fn)

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }


@dataclass
class WorkerKill:
    """Kill (or hang) one worker of the ``processes`` backend mid-run.

    Worker level: the fault is scheduled on the coordinator's
    simulator whatever the backend — so the event heap is identical
    inline and pooled — and acts through the host's ``kill_worker``,
    which is inert when there is no such worker (every inline run).
    ``mode "kill"`` SIGKILLs the verify-pool worker; ``"hang"``
    SIGSTOPs it, exercising the pool's stall timeout instead of its
    EOF path.  ``kills`` counts firings of the schedule, not deaths,
    so the report stays backend-invariant; the backend's
    ``workers_lost`` / ``inline_batches`` stats say what the kill did.
    """

    worker: int
    at_time: float
    mode: str = "kill"
    kills_fired: int = 0

    def install_worker(self, host) -> None:
        """Schedule the kill on the host's simulator."""
        def fire() -> None:
            self.kills_fired += 1
            host.kill_worker(self.worker, self.mode)

        host.simulator.schedule_at(self.at_time, fire, label="fault/worker-kill")

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {"kills": self.kills_fired}


@dataclass
class ReplicaCrash:
    """Kill a replication-layer replica at ``at_time``; optionally revive it.

    Process level: the host's ``crash_replica`` is invoked (state
    application stops; if the replica led its shard, the group fails
    over) and, with ``recover_at`` set, ``recover_replica`` brings it
    back through snapshot + block-replay catch-up.  Message level: the
    replica's endpoint is silenced for the dead window, so in-flight
    replication traffic is lost exactly as a real crash would lose it.
    """

    replica: str
    at_time: float
    recover_at: float | None = None
    dropped: int = 0
    crashes_fired: int = 0
    recoveries_fired: int = 0

    def _dead(self, now: float) -> bool:
        if now < self.at_time:
            return False
        return self.recover_at is None or now < self.recover_at

    def install(self, network: Network) -> None:
        """Silence the replica's endpoint while it is down."""
        def fn(message: Message) -> float | None:
            now = network.simulator.now
            if self._dead(now) and self.replica in (
                message.sender,
                message.recipient,
            ):
                self.dropped += 1
                raise DropMessage
            return None

        network.add_filter(fn)

    def install_process(self, host) -> None:
        """Schedule the kill (and revival) on the host's simulator."""
        def crash() -> None:
            self.crashes_fired += 1
            host.crash_replica(self.replica)

        host.simulator.schedule_at(
            self.at_time, crash, label="fault/replica-crash"
        )
        if self.recover_at is not None:
            def recover() -> None:
                self.recoveries_fired += 1
                host.recover_replica(self.replica)

            host.simulator.schedule_at(
                self.recover_at, recover, label="fault/replica-recover"
            )

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {
            "dropped": self.dropped,
            "crashes": self.crashes_fired,
            "recoveries": self.recoveries_fired,
        }


@dataclass
class ReplicaRecover:
    """Revive a previously crashed replica at ``at_time``.

    Standalone revival for schedules whose crash and recovery are
    authored separately (recover-then-recrash compositions); a
    :class:`ReplicaCrash` with ``recover_at`` covers the common case.
    """

    replica: str
    at_time: float
    recoveries_fired: int = 0

    def install_process(self, host) -> None:
        """Schedule the revival on the host's simulator."""
        def recover() -> None:
            self.recoveries_fired += 1
            host.recover_replica(self.replica)

        host.simulator.schedule_at(
            self.at_time, recover, label="fault/replica-recover"
        )

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {"recoveries": self.recoveries_fired}


@dataclass
class FaultPlan:
    """A collection of faults installed together (one experiment's plan)."""

    faults: list = field(default_factory=list)

    def add(self, fault) -> "FaultPlan":
        """Append ``fault`` and return self (builder style)."""
        self.faults.append(fault)
        return self

    def install(self, network: Network) -> None:
        """Install every message-level fault in the plan on ``network``."""
        for fault in self.faults:
            if hasattr(fault, "install"):
                fault.install(network)

    def install_processes(self, host) -> None:
        """Install every process-level fault on ``host``.

        The host must expose ``simulator``, ``crash_replica`` and
        ``recover_replica`` (the market's
        :class:`~repro.market.replication.ReplicationLayer` does).
        Message-only faults are skipped.
        """
        for fault in self.faults:
            if hasattr(fault, "install_process"):
                fault.install_process(host)

    def install_workers(self, host) -> None:
        """Install every worker-level fault on ``host``.

        The host must expose ``simulator`` and ``kill_worker(worker,
        mode)`` (the market coordinator does).  Other faults are
        skipped.
        """
        for fault in self.faults:
            if hasattr(fault, "install_worker"):
                fault.install_worker(host)

    def stats(self) -> list[dict]:
        """Per-fault effect counters, in plan order.

        Each row names the fault kind and target plus whatever the
        fault counted (drops, delays, crash/recovery firings), so a
        composed schedule's effects are observable in reports.
        """
        rows = []
        for fault in self.faults:
            row: dict = {"kind": type(fault).__name__}
            target = getattr(fault, "endpoint", None)
            if target is None:
                target = getattr(fault, "replica", None)
            if target is None:
                worker = getattr(fault, "worker", None)
                if worker is not None:
                    target = f"worker-{worker}"
            if target is None:
                groups = getattr(fault, "groups", None)
                if groups is not None:
                    target = "|".join(
                        ",".join(sorted(group)) for group in groups
                    )
            if target is None and isinstance(fault, MessageStorm):
                target = "*"
            row["target"] = target or ""
            if hasattr(fault, "counters"):
                row.update(fault.counters())
            rows.append(row)
        return rows
