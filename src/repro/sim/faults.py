"""Fault injection: crashes, offline windows, message storms, DoS.

The paper's adversary crashes parties, drives them offline at the
wrong moment (§5.3), delays the CBC (§9) or storms the network;
the market adds replica crashes and verify-pool worker kills.  Every
kind is a :class:`Fault`: a ``[start, end)`` window on a named
``target`` with declared counters and a *message effect* (a delivery
filter body behind the one window check), *host actions* (callbacks
scheduled on ``host.simulator``), or both.  :class:`ReplicaCrash` is
:class:`CrashFault`'s filter on a replica plus crash and recover
actions; :class:`ReplicaRecover` is the recover action alone.

``FaultPlan.install(network, host=None)`` installs a plan in plan
order.  Without a host (the per-deal executor) only message effects
install.  A host exposes ``simulator`` plus what the actions call:
``replication.crash_replica`` / ``recover_replica`` and
``kill_worker(worker, mode)`` — the market coordinator has all three.
:meth:`FaultPlan.stats` reports each fault's kind, target and
counters, so composed schedules never silently eat messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar

from repro.sim.chaos import ChaosPolicy
from repro.sim.network import DropMessage, DuplicateMessage, Message, Network
from repro.sim.rng import DeterministicRng

INF = float("inf")

# A host action: (time, event label, fn(host)).
Action = tuple[float, str, Callable[[object], None]]


class Fault:
    """One injected fault: a window on a named target.

    Subclasses are dataclasses.  ``target`` defaults to their
    ``endpoint`` field and ``window`` to their ``start``/``end`` fields;
    ``COUNTERS`` maps each reported counter name to the attribute that
    holds it.  They define ``effect(message, now)`` — returning an
    extra delay or None, or raising ``DropMessage`` /
    ``DuplicateMessage`` — and/or override :meth:`actions`.
    """

    COUNTERS: ClassVar[dict[str, str]] = {}
    effect = None  # no message effect

    @property
    def kind(self) -> str:
        """The fault kind :meth:`FaultPlan.stats` reports."""
        return type(self).__name__

    @property
    def target(self) -> str:
        """What the fault hits, as :meth:`FaultPlan.stats` names it."""
        return self.endpoint

    @property
    def window(self) -> tuple[float, float]:
        """``[start, end)``: when the message effect applies."""
        return self.start, self.end

    def covers(self, time: float) -> bool:
        """Whether ``time`` falls inside the fault's window."""
        start, end = self.window
        return start <= time < end

    def actions(self) -> list[Action]:
        """The host actions to schedule, in scheduling order."""
        return []

    def counters(self) -> dict[str, int]:
        """This fault's observable effect so far."""
        return {name: getattr(self, attr) for name, attr in self.COUNTERS.items()}

    def install(self, network: Network, host=None) -> None:
        """Filter ``network`` through the effect; schedule actions on ``host``."""
        if self.effect is not None:
            simulator = network.simulator

            def fn(message: Message) -> float | None:
                now = simulator.now
                return self.effect(message, now) if self.covers(now) else None

            network.add_filter(fn)
        if host is not None:
            for time, label, action in self.actions():
                host.simulator.schedule_at(time, partial(action, host), label=label)


def _recover(fault: Fault, at: float) -> Action:
    """The action that revives ``fault.replica`` through the host."""
    def recover(host) -> None:
        fault.recoveries_fired += 1
        host.replication.recover_replica(fault.replica)

    return at, "fault/replica-recover", recover


@dataclass
class CrashFault(Fault):
    """Silence an endpoint from ``at_time`` (until ``recover_at``, if set).

    Messages to or from the crashed endpoint are dropped.
    """

    endpoint: str
    at_time: float
    recover_at: float | None = None
    dropped: int = 0

    COUNTERS = {"dropped": "dropped"}

    @property
    def window(self) -> tuple[float, float]:
        return self.at_time, INF if self.recover_at is None else self.recover_at

    def effect(self, message: Message, now: float) -> None:
        if self.target in (message.sender, message.recipient):
            self.dropped += 1
            raise DropMessage


@dataclass
class OfflineWindow(Fault):
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

    COUNTERS = {"dropped": "dropped", "delayed": "delayed"}

    def effect(self, message: Message, now: float) -> float | None:
        if message.sender == self.endpoint:
            self.dropped += 1
            raise DropMessage
        if message.recipient == self.endpoint:
            self.delayed += 1
            return self.end - now
        return None


@dataclass
class TargetedDelay(Fault):
    """Add a fixed extra delay to messages touching an endpoint.

    Models a sustained DoS attack that slows (but does not sever) a
    victim's connectivity — e.g. delaying the CBC itself (§9).
    """

    endpoint: str
    extra_delay: float
    start: float = 0.0
    end: float = INF
    affected: int = 0

    COUNTERS = {"delayed": "affected"}

    def effect(self, message: Message, now: float) -> float | None:
        if self.endpoint in (message.sender, message.recipient):
            self.affected += 1
            return self.extra_delay
        return None


@dataclass
class MessageStorm(Fault):
    """Seeded lossy weather over a network: drop, duplicate, delay.

    The replication plane's chaos hazard: each message in the window
    takes one :meth:`~repro.sim.chaos.ChaosPolicy.roll` of ``policy``
    from its own seeded stream.  Drop wins over duplicate wins over
    delay (no reorder on a FIFO channel); a duplicate is a second copy
    right behind the original.  ``endpoint`` narrows the storm to
    messages touching one endpoint; ``None`` storms all traffic.
    """

    policy: ChaosPolicy
    endpoint: str | None = None
    start: float = 0.0
    end: float = INF
    seed: int | str = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    COUNTERS = {"dropped": "dropped", "duplicated": "duplicated", "delayed": "delayed"}

    @property
    def target(self) -> str:
        return "*" if self.endpoint is None else self.endpoint

    def __post_init__(self) -> None:
        self._stream = DeterministicRng(f"message-storm/{self.seed}").stream("storm")

    def effect(self, message: Message, now: float) -> float | None:
        if self.endpoint not in (None, message.sender, message.recipient):
            return None
        hazards = self.policy.roll(self._stream)
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


@dataclass
class WorkerKill(Fault):
    """Kill (or hang) one worker of the ``processes`` backend mid-run.

    Scheduled whatever the backend, so the event heap is identical
    inline and pooled; ``kill_worker`` is inert without such a worker.
    ``mode "kill"`` SIGKILLs it, ``"hang"`` SIGSTOPs it.  ``kills``
    counts firings, not deaths, so the report is backend-invariant.
    """

    worker: int
    at_time: float
    mode: str = "kill"
    kills_fired: int = 0

    COUNTERS = {"kills": "kills_fired"}

    @property
    def target(self) -> str:
        return f"worker-{self.worker}"

    def actions(self) -> list[Action]:
        def kill(host) -> None:
            self.kills_fired += 1
            host.kill_worker(self.worker, self.mode)

        return [(self.at_time, "fault/worker-kill", kill)]


@dataclass
class ReplicaCrash(Fault):
    """Kill a replication-layer replica at ``at_time``; optionally revive it.

    A crashed replica stops applying state (a crashed *leader* forces a
    failover); recovery restores its snapshot and replays blocks.  The
    crash filter loses its in-flight traffic meanwhile.
    """

    replica: str
    at_time: float
    recover_at: float | None = None
    dropped: int = 0
    crashes_fired: int = 0
    recoveries_fired: int = 0

    COUNTERS = {"dropped": "dropped", "crashes": "crashes_fired",
                "recoveries": "recoveries_fired"}

    # CrashFault's window and filter, on the replica's endpoint.
    window = CrashFault.window
    effect = CrashFault.effect

    @property
    def target(self) -> str:
        return self.replica

    def actions(self) -> list[Action]:
        def crash(host) -> None:
            self.crashes_fired += 1
            host.replication.crash_replica(self.replica)

        actions = [(self.at_time, "fault/replica-crash", crash)]
        if self.recover_at is not None:
            actions.append(_recover(self, self.recover_at))
        return actions


@dataclass
class ReplicaRecover(Fault):
    """Revive a previously crashed replica at ``at_time``.

    For crashes and recoveries authored separately; a
    :class:`ReplicaCrash` with ``recover_at`` covers the common case.
    """

    replica: str
    at_time: float
    recoveries_fired: int = 0

    COUNTERS = {"recoveries": "recoveries_fired"}

    @property
    def target(self) -> str:
        return self.replica

    def actions(self) -> list[Action]:
        return [_recover(self, self.at_time)]


@dataclass
class FaultPlan:
    """A collection of faults installed together (one experiment's plan)."""

    faults: list[Fault] = field(default_factory=list)

    def add(self, fault: Fault) -> "FaultPlan":
        """Append ``fault`` and return self (builder style)."""
        self.faults.append(fault)
        return self

    def install(self, network: Network, host=None) -> None:
        """Install every fault, in plan order (see the module docstring)."""
        for fault in self.faults:
            fault.install(network, host)

    def stats(self) -> list[dict]:
        """One row per fault, in plan order: kind, target, counters."""
        return [
            {"kind": fault.kind, "target": fault.target, **fault.counters()}
            for fault in self.faults
        ]
