"""Network timing models: synchronous and eventually synchronous.

Endpoints register by name and receive messages via a callback.  The
network decides *when* a sent message is delivered:

* :class:`SynchronousNetwork` delivers within a known bound Δ — the
  model the timelock protocol (§5) requires;
* :class:`EventuallySynchronousNetwork` delivers with arbitrary
  (adversary-controllable) delay before the global stabilization time
  (GST) and within Δ after it — the model the CBC protocol (§6)
  tolerates.

Fault injectors (see :mod:`repro.sim.faults`) can drop, delay or
duplicate messages for specific endpoints to model crashes, offline
windows, and denial-of-service attacks.

The market's in-process message plane lives here too: :class:`LocalBus`
delivers typed :class:`Envelope`\\ s synchronously, and
:class:`ChaosBus` adds seeded hazards (:meth:`repro.sim.chaos.ChaosPolicy.roll`)
and at-least-once delivery.  The two halves of that delivery are
defined here and nowhere else: a sending :class:`Retransmitter`, which
the replication plane (:mod:`repro.market.replication`) uses as well,
and — because at-least-once means duplicates — a receiving
:class:`DedupWindow`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.errors import NetworkError
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class Message:
    """An application message in flight between two endpoints."""

    sender: str
    recipient: str
    payload: object
    sent_at: float


@dataclass(frozen=True)
class Envelope:
    """The one typed wrapper every market message plane shares.

    Replication delta shipping and the shard runtime messages
    (:mod:`repro.market.messages`) both travel as an ``Envelope``: who
    sent it, which shard it concerns, the simulated tick it was posted
    at, and a frozen payload.  On the replication plane's
    :class:`Network`, filter/drop/delay stats — and the fault
    injectors behind them — key on endpoint names and never need to
    know which payload a message carries; the bus (:class:`LocalBus`,
    :class:`ChaosBus`) has no filters, and its hazards are the
    :class:`~repro.sim.chaos.ChaosPolicy` rolls.  Either way a
    payload-typed consumer can ``isinstance`` its way through the
    traffic.

    ``msg_id`` is the at-least-once delivery tag: a per-(sender,
    recipient) monotonic sequence number stamped by :class:`ChaosBus`.
    ``msg_id == 0`` marks exact-transport traffic (the plain
    :class:`LocalBus`, acks) that is neither acked nor deduplicated —
    the trailing default keeps chaos-free construction byte-identical.
    """

    sender: str
    shard: int
    tick: float
    payload: object
    msg_id: int = 0


@dataclass(frozen=True)
class BusAck:
    """Transport-level receipt for a reliable :class:`Envelope`.

    Emitted by :class:`ChaosBus` when a reliable envelope reaches its
    handler; consumed inside the bus (never delivered to endpoint
    handlers).  ``origin`` names the acking recipient, ``msg_id`` the
    sequence number being acknowledged.  Acks themselves ride the
    chaotic channel: a lost ack is healed by the sender's resend, whose
    duplicate delivery is suppressed and re-acked.
    """

    origin: str
    msg_id: int


Handler = Callable[[Message], None]


class Network:
    """Base network: registration, delivery, fault hooks.

    Subclasses implement :meth:`latency` to realize a timing model.
    A *delivery filter* may veto or postpone deliveries; fault
    injectors install these.
    """

    def __init__(self, simulator: Simulator, rng: DeterministicRng | None = None):
        self.simulator = simulator
        self.rng = rng or DeterministicRng(0)
        self._handlers: dict[str, Handler] = {}
        self._filters: list[Callable[[Message], float | None]] = []
        self._delivered = 0
        self._dropped = 0
        self._filter_dropped = 0
        self._filter_delayed = 0
        self._filter_duplicated = 0
        self._last_delivery: dict[tuple[str, str], float] = {}

    def register(self, name: str, handler: Handler) -> None:
        """Attach an endpoint; messages to ``name`` invoke ``handler``."""
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def deregister(self, name: str) -> None:
        """Detach an endpoint; future messages to it are dropped."""
        self._handlers.pop(name, None)

    def add_filter(self, fn: Callable[[Message], float | None]) -> None:
        """Install a delivery filter.

        For each message the filter returns ``None`` to leave it alone,
        a non-negative float to add that much extra delay, or raises
        :class:`DropMessage` to drop it.
        """
        self._filters.append(fn)

    def latency(self, message: Message) -> float:
        """The base delivery delay for ``message`` (timing model)."""
        raise NotImplementedError

    @property
    def stats(self) -> dict[str, int]:
        """Delivery counters, including fault-injector effects.

        ``filter_dropped``/``filter_delayed`` count what the installed
        delivery filters did (``dropped`` also includes filter drops),
        so injected faults are observable rather than silent.
        """
        return {
            "delivered": self._delivered,
            "dropped": self._dropped,
            "filter_dropped": self._filter_dropped,
            "filter_delayed": self._filter_delayed,
            "filter_duplicated": self._filter_duplicated,
        }

    def send(self, sender: str, recipient: str, payload: object) -> None:
        """Send ``payload``; delivery is scheduled per the timing model."""
        message = Message(sender, recipient, payload, self.simulator.now)
        delay = self.latency(message)
        duplicated = False
        try:
            for fn in self._filters:
                extra = fn(message)
                if extra is not None:
                    delay += extra
                    if extra > 0:
                        self._filter_delayed += 1
        except DropMessage:
            self._dropped += 1
            self._filter_dropped += 1
            return
        except DuplicateMessage:
            self._filter_duplicated += 1
            duplicated = True
        # FIFO per ordered pair (a TCP-like channel): a later send is
        # never delivered before an earlier one.  The clamp can only
        # push delivery later, and never past the Δ bound, because the
        # earlier message already respected it at an earlier send time.
        self._schedule_delivery(message, delay)
        if duplicated:
            # The duplicated copy rides the same FIFO channel, so it
            # lands right *after* the original — idempotent apply
            # absorbs it.
            self._schedule_delivery(message, delay)

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        pair = (message.sender, message.recipient)
        deliver_at = self.simulator.now + delay
        floor = self._last_delivery.get(pair)
        if floor is not None and deliver_at <= floor:
            deliver_at = floor + 1e-9
        self._last_delivery[pair] = deliver_at
        self.simulator.schedule_at(
            deliver_at,
            lambda: self._deliver(message),
            label=f"deliver->{message.recipient}",
        )

    def broadcast(self, sender: str, payload: object) -> None:
        """Send ``payload`` to every registered endpoint except ``sender``."""
        for name in sorted(self._handlers):
            if name != sender:
                self.send(sender, name, payload)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._dropped += 1
            return
        self._delivered += 1
        handler(message)


class DropMessage(Exception):
    """Raised by a delivery filter to drop the message entirely."""


class DuplicateMessage(Exception):
    """Raised by a delivery filter to deliver the message *twice*.

    The second copy is FIFO-clamped right behind the original.  Fault
    injectors raise this to exercise idempotent apply paths.
    """


class Retransmitter:
    """Transmit, and retransmit on capped exponential backoff until acked.

    :meth:`send` performs the first transmission itself, so an ack
    arriving *inside* it (a synchronous bus, no hazard fired) finds the
    key registered and no timer is ever armed.  ``transmit`` gets the
    attempt number (0 first, n for the n-th retransmission) and may
    :meth:`ack` its own key to stop a resend that has become moot.
    Sending a still-unacked key *supersedes* it: the old timer is
    cancelled and the backoff restarts.  With ``limit`` set, a key
    whose ``limit``-th retransmission also times out is dropped and
    counted once in :attr:`abandoned`; otherwise it is retried forever.
    """

    def __init__(
        self,
        simulator: Simulator,
        ack_timeout: float,
        backoff_cap: float,
        limit: int | None = None,
    ):
        self.simulator = simulator
        self.ack_timeout = ack_timeout
        self.backoff_cap = backoff_cap
        self.limit = limit
        self.abandoned = 0
        # key -> [transmit, label, attempt, timer]
        self._unacked: dict[Hashable, list] = {}

    def __len__(self) -> int:
        """Keys sent but not yet acknowledged (or abandoned)."""
        return len(self._unacked)

    def send(self, key: Hashable, transmit: Callable[[int], None], label: str) -> None:
        """Transmit now, and again on every timeout until ``ack(key)``."""
        self.ack(key)
        entry = [transmit, label, 0, None]
        self._unacked[key] = entry
        transmit(0)
        self._arm(key, entry)

    def ack(self, key: Hashable) -> bool:
        """Stop retransmitting ``key``; False if it was not outstanding."""
        entry = self._unacked.pop(key, None)
        if entry is None:
            return False
        if entry[3] is not None:
            entry[3].cancel()
        return True

    def _arm(self, key: Hashable, entry: list) -> None:
        if self._unacked.get(key) is not entry:
            return  # acknowledged (or superseded) inside the transmission
        delay = min(self.ack_timeout * 2.0 ** entry[2], self.backoff_cap)
        entry[3] = self.simulator.schedule(
            delay, lambda: self._timeout(key, entry), label=entry[1]
        )

    def _timeout(self, key: Hashable, entry: list) -> None:
        if self.limit is not None and entry[2] >= self.limit:
            del self._unacked[key]
            self.abandoned += 1
            return
        entry[2] += 1
        entry[0](entry[2])
        self._arm(key, entry)


class DedupWindow:
    """Admit each (sender, msg_id) once at one receiving endpoint.

    Tracks, per sender, a contiguous *floor* (every ``msg_id`` at or
    below it has been admitted) plus the sparse set of admitted ids
    above it.  Because :class:`ChaosBus` stamps ``msg_id`` per
    (sender, recipient) pair, the ids arriving at one endpoint from
    one sender are gap-free once delivery settles, so the floor
    advances and the set stays small.  A *permanently*
    missing low id (possible only if the transport gave up resending —
    the ChaosBus never does) would pin the floor below the gap and let
    ``_seen`` grow with one entry per later id until the gap fills;
    that growth is bounded by the sender's in-flight window under
    at-least-once delivery, and the regression tests document the
    stuck-floor behaviour explicitly.  ``msg_id == 0`` marks
    exact-transport traffic and is never a duplicate.
    """

    def __init__(self):
        self._floor: dict[str, int] = {}
        self._seen: dict[str, set[int]] = {}

    def duplicate(self, sender: str, msg_id: int) -> bool:
        """Admit ``(sender, msg_id)`` once; True if already admitted."""
        if not msg_id:
            return False
        floor = self._floor.get(sender, 0)
        seen = self._seen.setdefault(sender, set())
        if msg_id <= floor or msg_id in seen:
            return True
        seen.add(msg_id)
        while floor + 1 in seen:
            floor += 1
            seen.discard(floor)
        self._floor[sender] = floor
        return False


class LocalBus:
    """Zero-latency, synchronous :class:`Envelope` delivery.

    The in-process message plane of the market's shard runtimes: a
    ``post`` builds an :class:`Envelope` stamped with the current
    simulated tick and hands it to the recipient's handler *in the
    same call* — no simulator event is scheduled, so wiring the bus
    into an existing event order perturbs nothing.  That synchronous
    delivery is also the degenerate (and trivially correct) form of
    the simulated-time barrier protocol: every message for tick *t*
    is delivered before anything advances past *t*, because nothing
    advances at all until the handler returns.

    ``stats`` counts envelopes delivered and envelopes dropped for want
    of a registered recipient.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self._handlers: dict[str, Callable[[Envelope], None]] = {}
        self.stats = {"delivered": 0, "dropped": 0}

    def register(self, name: str, handler: Callable[[Envelope], None]) -> None:
        """Attach an endpoint; envelopes posted to ``name`` invoke it."""
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def post(self, sender: str, recipient: str, shard: int, payload: object) -> None:
        """Deliver ``payload`` to ``recipient`` at this very instant."""
        envelope = Envelope(
            sender=sender, shard=shard, tick=self.simulator.now, payload=payload
        )
        self._deliver(recipient, envelope)

    def _deliver(self, recipient: str, envelope: Envelope) -> None:
        handler = self._handlers.get(recipient)
        if handler is None:
            self.stats["dropped"] += 1
            return
        self.stats["delivered"] += 1
        handler(envelope)


class ChaosBus(LocalBus):
    """A :class:`LocalBus` with seeded chaos and at-least-once delivery.

    Every ``post`` stamps the envelope with a per-(sender, recipient)
    monotonic ``msg_id`` and sends it through the bus's
    :class:`Retransmitter`.  Each physical
    transmission rolls the plan's market policy on the dedicated
    ``chaos/bus`` stream: drop (the copy vanishes), duplicate (a second
    copy is dispatched), delay and reorder (the copy is held and
    re-enters via the simulator, behind same-instant traffic).  A
    delivered envelope is acked with a :class:`BusAck` that rides the
    same chaotic channel and is intercepted by the bus.  One
    :class:`DedupWindow` per recipient admits each
    (sender, msg_id) once, so no handler sees a duplicate — a
    suppressed copy is counted and *still* re-acked, which is what
    heals a lost ack.

    Determinism: a fixed number of draws per transmission from one
    labelled stream, so a (seed, policy, workload) triple replays the
    identical chaos schedule in any process layout.  An envelope whose
    recipient turns out to be unregistered is abandoned (retrying a
    void endpoint forever would keep the event loop alive); everything
    else is retried until acked.
    """

    def __init__(self, simulator: Simulator, plan, seed: int | str = 0):
        super().__init__(simulator)
        self.policy = plan.market
        self._stream = DeterministicRng(f"chaos-bus/{seed}").stream("chaos/bus")
        self._resender = Retransmitter(simulator, plan.ack_timeout, plan.backoff_cap)
        self._next_seq: dict[tuple[str, str], int] = {}
        self._windows: defaultdict[str, DedupWindow] = defaultdict(DedupWindow)
        self.stats.update(
            {
                "chaos_dropped": 0,
                "chaos_duplicated": 0,
                "chaos_delayed": 0,
                "chaos_reordered": 0,
                "resends": 0,
                "acks_delivered": 0,
                "dup_suppressed": 0,
            }
        )

    @property
    def in_flight(self) -> int:
        """Reliable envelopes posted but not yet acknowledged."""
        return len(self._resender)

    def post(self, sender: str, recipient: str, shard: int, payload: object) -> None:
        """Reliably deliver ``payload`` (at-least-once, acked)."""
        pair = (sender, recipient)
        seq = self._next_seq.get(pair, 0) + 1
        self._next_seq[pair] = seq
        envelope = Envelope(
            sender=sender,
            shard=shard,
            tick=self.simulator.now,
            payload=payload,
            msg_id=seq,
        )

        def transmit(attempt: int) -> None:
            if attempt:
                self.stats["resends"] += 1
            self._transmit(recipient, envelope)

        # The zero-chaos path is acked inside the first transmission,
        # so it arms no timer and schedules no events.
        key = (sender, recipient, seq)
        self._resender.send(key, transmit, f"bus-retry->{recipient}")

    def _transmit(self, recipient: str, envelope: Envelope) -> None:
        """One physical transmission attempt: roll hazards, dispatch."""
        hazards = self.policy.roll(self._stream)
        if hazards.drop:
            self.stats["chaos_dropped"] += 1
            return
        hold = 0.0
        if hazards.delay is not None:
            hold += hazards.delay
            self.stats["chaos_delayed"] += 1
        if hazards.reorder is not None:
            hold += hazards.reorder
            self.stats["chaos_reordered"] += 1
        if hazards.duplicate:
            self.stats["chaos_duplicated"] += 1
            self._dispatch(recipient, envelope, hold + hazards.twin_gap)
        self._dispatch(recipient, envelope, hold)

    def _dispatch(self, recipient: str, envelope: Envelope, hold: float) -> None:
        if hold > 0:
            self.simulator.schedule(
                hold,
                lambda: self._deliver(recipient, envelope),
                label=f"chaos->{recipient}",
            )
            return
        self._deliver(recipient, envelope)

    def _deliver(self, recipient: str, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, BusAck):
            if self._resender.ack((recipient, payload.origin, payload.msg_id)):
                self.stats["acks_delivered"] += 1
            return
        handler = self._handlers.get(recipient)
        if handler is None:
            self.stats["dropped"] += 1
            self._resender.ack((envelope.sender, recipient, envelope.msg_id))
            return
        self.stats["delivered"] += 1
        if self._windows[recipient].duplicate(envelope.sender, envelope.msg_id):
            self.stats["dup_suppressed"] += 1
        else:
            handler(envelope)
        if envelope.msg_id:
            ack = Envelope(
                sender=recipient,
                shard=envelope.shard,
                tick=self.simulator.now,
                payload=BusAck(origin=recipient, msg_id=envelope.msg_id),
            )
            self._transmit(envelope.sender, ack)


class SynchronousNetwork(Network):
    """Delivery within a known bound Δ (paper §5's model).

    Latency is drawn uniformly from ``[min_latency, delta]`` so that
    message orderings vary across seeds while respecting the bound.
    """

    def __init__(
        self,
        simulator: Simulator,
        delta: float,
        rng: DeterministicRng | None = None,
        min_latency: float = 0.0,
    ):
        super().__init__(simulator, rng)
        if delta <= 0:
            raise NetworkError("delta must be positive")
        if not 0 <= min_latency <= delta:
            raise NetworkError("min_latency must lie in [0, delta]")
        self.delta = delta
        self.min_latency = min_latency

    def latency(self, message: Message) -> float:
        return self.rng.uniform("net/latency", self.min_latency, self.delta)


class EventuallySynchronousNetwork(Network):
    """Unbounded delays before GST, bounded by Δ after (paper §6's model).

    Before the global stabilization time, each message is delayed by a
    draw from ``[0, pre_gst_max]`` (default: until shortly after GST),
    modelling the adversary's pre-GST scheduling power.  After GST the
    network behaves synchronously with bound Δ.
    """

    def __init__(
        self,
        simulator: Simulator,
        delta: float,
        gst: float,
        rng: DeterministicRng | None = None,
        pre_gst_max: float | None = None,
    ):
        super().__init__(simulator, rng)
        if delta <= 0:
            raise NetworkError("delta must be positive")
        if gst < 0:
            raise NetworkError("gst must be non-negative")
        self.delta = delta
        self.gst = gst
        self.pre_gst_max = pre_gst_max

    def latency(self, message: Message) -> float:
        now = self.simulator.now
        if now >= self.gst:
            return self.rng.uniform("net/latency", 0.0, self.delta)
        # Pre-GST: adversarial delay.  By default, hold the message
        # until a uniformly random point after GST (but within Δ of it),
        # the worst schedule the model permits.
        if self.pre_gst_max is not None:
            return self.rng.uniform("net/pre-gst", 0.0, self.pre_gst_max)
        release = self.gst + self.rng.uniform("net/pre-gst", 0.0, self.delta)
        return max(0.0, release - now)


@dataclass
class RecordingNetwork:
    """Wrap a network, recording every send for assertions in tests."""

    inner: Network
    log: list[Message] = field(default_factory=list)

    @property
    def simulator(self) -> Simulator:
        return self.inner.simulator

    @property
    def stats(self) -> dict[str, int]:
        """The wrapped network's counters (filter effects included)."""
        return self.inner.stats

    def register(self, name: str, handler: Handler) -> None:
        self.inner.register(name, handler)

    def deregister(self, name: str) -> None:
        self.inner.deregister(name)

    def add_filter(self, fn: Callable[[Message], float | None]) -> None:
        self.inner.add_filter(fn)

    def send(self, sender: str, recipient: str, payload: object) -> None:
        self.log.append(
            Message(sender, recipient, payload, self.inner.simulator.now)
        )
        self.inner.send(sender, recipient, payload)

    def broadcast(self, sender: str, payload: object) -> None:
        for name in sorted(self.inner._handlers):
            if name != sender:
                self.send(sender, name, payload)
