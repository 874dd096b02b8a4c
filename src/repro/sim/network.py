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
and — because at-least-once means duplicates and chaos means
reordering — a receiving :class:`ReceiveWindow` that hands each
stream over once and in order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.errors import NetworkError
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator


@dataclass(frozen=True, slots=True)
class Message:
    """An application message in flight between two endpoints."""

    sender: str
    recipient: str
    payload: object
    sent_at: float


@dataclass(frozen=True, slots=True)
class Envelope:
    """The typed wrapper of the market's shard bus.

    The shard runtime messages (:mod:`repro.market.messages`) travel
    the bus (:class:`LocalBus`, :class:`ChaosBus`) as an ``Envelope``:
    who sent it, the chain whose stream it rides, the simulated tick
    it was posted at, and a frozen payload a consumer can
    ``isinstance`` its way through.  The bus has no filters; its
    hazards are the :class:`~repro.sim.chaos.ChaosPolicy` rolls.  (Replication deltas
    ride a :class:`Network` as bare payloads: its filter/drop/delay
    stats, and the fault injectors behind them, key on endpoint names.)

    ``msg_id`` is the at-least-once delivery tag: a per-(sender,
    recipient, chain) monotonic sequence number stamped by
    :class:`ChaosBus`.  ``msg_id == 0`` marks exact-transport traffic
    (the plain :class:`LocalBus`, acks) that is neither acked nor
    windowed — the trailing default keeps chaos-free construction
    byte-identical.
    """

    sender: str
    chain_id: Hashable
    tick: float
    payload: object
    msg_id: int = 0


@dataclass(frozen=True, slots=True)
class BusAck:
    """Transport-level receipt for a reliable :class:`Envelope`.

    Emitted by :class:`ChaosBus` when a reliable envelope reaches its
    recipient; consumed inside the bus (never delivered to endpoint
    handlers).  ``origin`` names the acking recipient, ``msg_id`` the
    sequence number being acknowledged, and the ack's envelope carries
    the acknowledged one's chain.  Acks themselves ride the
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


class ReceiveWindow:
    """Release each stream to its recipient once, in ``msg_id`` order.

    A stream is one (sender, recipient, chain) triple of
    :class:`ChaosBus` traffic, numbered from ``msg_id`` 1.  Per stream
    the window keeps a *floor* (every ``msg_id`` at or below it has
    been released) and the envelopes that arrived above it.  A copy at
    or below the floor, or already held, is a duplicate.  The window
    is bounded by the sender's unacked envelopes, because the bus
    never abandons a registered recipient: a stream's held envelopes
    all sit behind one still unacked, whose resends close the gap.

    ``stats`` counts the cost of that ordering: ``held``, the
    envelopes admitted behind a gap in their stream, and
    ``held_ticks``, the simulated time they waited there, summed from
    each one's arrival to its release.
    """

    def __init__(self, stats: dict):
        self.stats = stats
        stats["held"] = 0
        stats["held_ticks"] = 0.0
        self._floor: dict[Hashable, int] = {}
        # stream -> msg_id -> (envelope, arrival tick)
        self._held: defaultdict[Hashable, dict[int, tuple]] = defaultdict(dict)

    def admit(self, stream: Hashable, envelope: Envelope, now: float) -> bool:
        """Hold ``envelope``, arrived at ``now``, for release; False if
        it is a duplicate."""
        held = self._held[stream]
        msg_id = envelope.msg_id
        floor = self._floor.get(stream, 0)
        if msg_id <= floor or msg_id in held:
            return False
        if msg_id > floor + 1:
            self.stats["held"] += 1
        held[msg_id] = (envelope, now)
        return True

    def release(self, stream: Hashable, now: float):
        """Yield the held run above the floor at ``now``, advancing the
        floor one by one.

        The floor moves before each envelope is yielded, so a handler
        that causes a re-entrant delivery on the same stream releases
        the rest of the run itself, still in order.
        """
        held = self._held[stream]
        while (msg_id := self._floor.get(stream, 0) + 1) in held:
            self._floor[stream] = msg_id
            envelope, arrived = held.pop(msg_id)
            self.stats["held_ticks"] += now - arrived
            yield envelope


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

    def post(
        self, sender: str, recipient: str, chain_id: Hashable, payload: object
    ) -> None:
        """Deliver ``payload`` to ``recipient`` at this very instant."""
        envelope = Envelope(
            sender=sender, chain_id=chain_id, tick=self.simulator.now,
            payload=payload,
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
    """A :class:`LocalBus` with seeded chaos and exactly-once, in-order
    delivery per (sender, recipient, chain) stream.

    Every ``post`` stamps the envelope with its stream's next
    ``msg_id`` and sends it through the bus's :class:`Retransmitter`.  Each physical transmission rolls the
    plan's market policy on the dedicated ``chaos/bus`` stream: drop
    (the copy vanishes), duplicate (a second copy is dispatched), delay
    and reorder (the copy is held and re-enters via the simulator,
    behind same-instant traffic).  An arriving envelope is acked with a
    :class:`BusAck` that rides the same chaotic channel and is
    intercepted by the bus.  One :class:`ReceiveWindow` releases each
    stream to its handler in ``msg_id`` order, once — a duplicate is
    counted and *still* re-acked, which is what heals a lost ack; one
    that waited behind a gap is counted in ``held``, and its wait in
    ``held_ticks``.  Streams are per chain, as each chain orders a party's
    transactions, not per pair: a dropped envelope holds back only its
    own chain's traffic.

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
        self._next_seq: dict[tuple, int] = {}
        self._window = ReceiveWindow(self.stats)
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

    def post(
        self, sender: str, recipient: str, chain_id: Hashable, payload: object
    ) -> None:
        """Reliably deliver ``payload`` (at-least-once, acked)."""
        stream = (sender, recipient, chain_id)
        seq = self._next_seq.get(stream, 0) + 1
        self._next_seq[stream] = seq
        envelope = Envelope(
            sender=sender,
            chain_id=chain_id,
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
        self._resender.send((*stream, seq), transmit, f"bus-retry->{recipient}")

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
            key = (recipient, payload.origin, envelope.chain_id, payload.msg_id)
            if self._resender.ack(key):
                self.stats["acks_delivered"] += 1
            return
        stream = (envelope.sender, recipient, envelope.chain_id)
        handler = self._handlers.get(recipient)
        if handler is None:
            self.stats["dropped"] += 1
            self._resender.ack((*stream, envelope.msg_id))
            return
        self.stats["delivered"] += 1
        now = self.simulator.now
        if self._window.admit(stream, envelope, now):
            for ready in self._window.release(stream, now):
                handler(ready)
        else:
            self.stats["dup_suppressed"] += 1
        ack = Envelope(
            sender=recipient,
            chain_id=envelope.chain_id,
            tick=self.simulator.now,
            payload=BusAck(origin=recipient, msg_id=envelope.msg_id),
        )
        self._transmit(envelope.sender, ack)


class SynchronousNetwork(Network):
    """Delivery within a known bound Δ (paper §5's model).

    Latency is drawn uniformly from ``[0, delta]`` so that message
    orderings vary across seeds while respecting the bound.
    """

    def __init__(
        self,
        simulator: Simulator,
        delta: float,
        rng: DeterministicRng | None = None,
    ):
        super().__init__(simulator, rng)
        if delta <= 0:
            raise NetworkError("delta must be positive")
        self.delta = delta

    def latency(self, message: Message) -> float:
        return self.rng.uniform("net/latency", 0.0, self.delta)


class EventuallySynchronousNetwork(Network):
    """Unbounded delays before GST, bounded by Δ after (paper §6's model).

    Before the global stabilization time, each message is held until a
    uniformly drawn point within Δ after GST, modelling the adversary's
    pre-GST scheduling power.  After GST the network behaves
    synchronously with bound Δ.
    """

    def __init__(
        self,
        simulator: Simulator,
        delta: float,
        gst: float,
        rng: DeterministicRng | None = None,
    ):
        super().__init__(simulator, rng)
        if delta <= 0:
            raise NetworkError("delta must be positive")
        if gst < 0:
            raise NetworkError("gst must be non-negative")
        self.delta = delta
        self.gst = gst

    def latency(self, message: Message) -> float:
        now = self.simulator.now
        if now >= self.gst:
            return self.rng.uniform("net/latency", 0.0, self.delta)
        # Pre-GST: adversarial delay.  Hold the message until a
        # uniformly random point after GST (but within Δ of it), the
        # worst schedule the model permits.
        release = self.gst + self.rng.uniform("net/pre-gst", 0.0, self.delta)
        return max(0.0, release - now)

