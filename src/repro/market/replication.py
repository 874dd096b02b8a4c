"""Per-shard replication and crash recovery for the sharded market.

Every shard of the :class:`~repro.market.runtime.MarketCoordinator`
becomes a small **replica group** (configurable factor ``r``): ``r``
processes that each hold a full image of *that shard's chains only* —
the home chain with its :class:`~repro.market.commitlog.MarketCommitLog`
plus the shard's asset chains with their
:class:`~repro.market.book.MarketEscrowBook`s.  This is partial
replication in the sense of Sutra & Shapiro: no replica holds the
whole market, and a cross-shard deal touches exactly the replica
groups its assets name.

**Replication unit.**  The sealed block is the unit of replication.
When a chain flushes a block's committed write-set (a *delta*, see
:data:`repro.chain.ledger.StateDelta`), the delta is appended to the
group's durable log, applied synchronously by the shard **leader**
(co-located with the authoritative chain), and shipped to the
followers over a dedicated
:class:`~repro.sim.network.SynchronousNetwork`.  Followers apply
deltas in sequence order and acknowledge back to the leader on
simulated time, so the whole exchange is deterministic and visible in
``Network.stats()``.  A follower that observes a sequence gap (a
dropped or reordered shipment) heals itself by replaying the missing
range from the group log — anti-entropy, not an error.

**Crash and recovery.**  :class:`~repro.sim.faults.ReplicaCrash` kills
a replica: its in-memory image is discarded, a crash-time durable
snapshot (what it had applied — sealed blocks are persisted before
they are acknowledged) is retained, and its endpoint goes silent.  If
the crashed replica led the shard, sealing on every one of the shard's
mempools is **gated closed**: orders queue but no block seals, which
is a liveness loss, never a safety loss, because the authoritative
chain and the group log retain every committed block.  After a
detection timeout the group **fails over** to the lowest-indexed live
replica, which catches up from the group log and reopens the gates
(the mempools are kicked, never polled).  Recovery restores the
crash-time snapshot, replays the group log across the dead window,
and then proves itself: the recovered image's canonical digest
(:func:`repro.chain.ledger.digest_state`) must equal the authoritative
chain's — a mismatch is reported as an invariant violation.

**Determinism.**  The replication network draws latencies from its own
seeded stream, so enabling replication (or changing ``r``) perturbs no
market randomness; with no crash faults the seal gates never close,
and the market's outcome log — hence its fingerprint — is
byte-identical to an unreplicated run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.ledger import Chain, StateDelta, digest_state
from repro.market.messages import DeltaAck, DeltaShipment
from repro.sim.faults import MessageStorm
from repro.sim.network import Retransmitter, SynchronousNetwork
from repro.sim.rng import DeterministicRng

# Resends of one watched shipment before the leader gives up on it
# (counted in ``deltas_abandoned``).
_RESEND_LIMIT = 6

def copy_image(state: dict) -> dict:
    """Deep-enough copy of a contract-state image (values are immutable)."""
    return {
        chain_id: {
            contract: {name: dict(data) for name, data in storages.items()}
            for contract, storages in chains.items()
        }
        for chain_id, chains in state.items()
    }


# Replica endpoint names are "s<shard>/r<index>" on the replication
# network; fault schedules target them by this name.
def replica_name(shard: int, index: int) -> str:
    """The canonical endpoint name of one replica."""
    return f"s{shard}/r{index}"


@dataclass
class Replica:
    """One process of a shard's replica group.

    ``state`` maps each of the shard's chain ids to a contract-state
    image (``{contract: {storage: {key: value}}}``); ``applied`` is
    the per-chain sequence number of the last delta applied.  ``disk``
    holds the crash-time durable snapshot a recovery restores from.
    """

    name: str
    shard: int
    index: int
    alive: bool = True
    state: dict = field(default_factory=dict)
    applied: dict = field(default_factory=dict)
    disk: tuple | None = None  # (state_copy, applied_copy) at crash

    def image_of(self, chain_id: str) -> dict:
        """The replica's contract-state image of one chain."""
        return self.state.setdefault(chain_id, {})


@dataclass
class ShardReplicaGroup:
    """One shard's replicas, durable delta log, and leadership state."""

    shard: int
    chain_ids: tuple[str, ...]
    replicas: list[Replica] = field(default_factory=list)
    # Durable per-chain delta log (the chain is the log; this is its
    # replication-facing index).  logs[chain_id][seq - 1] is delta seq.
    logs: dict[str, list[StateDelta]] = field(default_factory=dict)
    leader: str | None = None
    election_pending: bool = False
    down_since: float | None = None
    downtime: float = 0.0
    # Backref to the owning ReplicationLayer (set at construction).
    layer: object | None = None

    def apply_delta(
        self, replica: Replica, chain_id: str, seq: int, delta
    ) -> str:
        """Apply one shipped delta to ``replica``, idempotently.

        Returns ``"duplicate"`` (seq already applied — replayed or
        duplicated shipment, a no-op), ``"applied"`` (seq was next, one
        apply), or ``"healed"`` (seq exposed a gap; the missing range
        was replayed from the group log first).  This is the public
        idempotency seam the chaos property tests replay against.
        """
        return self.layer._apply_shipment(replica, chain_id, seq, delta)

    def alive_replicas(self) -> list[Replica]:
        return [replica for replica in self.replicas if replica.alive]

    def leader_replica(self) -> Replica | None:
        if self.leader is None:
            return None
        for replica in self.replicas:
            if replica.name == self.leader:
                return replica
        return None

    @property
    def sealing_open(self) -> bool:
        """Whether this shard currently has a live leader sealing blocks."""
        replica = self.leader_replica()
        return replica is not None and replica.alive


class ReplicationLayer:
    """Replica groups, delta shipping, failover, and recovery."""

    def __init__(
        self,
        scheduler,
        factor: int,
        delta: float = 0.4,
        failover_timeout: float = 2.0,
        chaos=None,
    ):
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.scheduler = scheduler
        self.simulator = scheduler.simulator
        self.factor = factor
        self.failover_timeout = failover_timeout
        # Telemetry hook: crash/recover/failover spans and delta-ship
        # events ride the run's tracer.  Observational only.
        self.telemetry = scheduler.telemetry
        # A dedicated network with its own seeded stream: replication
        # traffic must not perturb the market's latency draws.
        self.network = SynchronousNetwork(
            self.simulator,
            delta,
            rng=DeterministicRng(f"market-replication/{scheduler.workload.seed}"),
        )
        # Acknowledged shipping (an active replication chaos policy
        # only): the policy storms the delta network, and the leader
        # resends its highest shipped seq per (follower, chain) until
        # acked or out of patience.  The first timeout is never shorter
        # than the network's round trip, so an ack merely in flight
        # triggers no resend.  Absent by default — the timers are
        # simulator events, and a chaos-free run must schedule none.
        self.resender: Retransmitter | None = None
        # (follower name, chain_id) -> highest seq shipped to it
        self._shipped: dict[tuple[str, str], int] = {}
        if chaos is not None and chaos.replication_active:
            self.resender = Retransmitter(
                self.simulator,
                max(chaos.ack_timeout, 2 * self.network.delta),
                chaos.backoff_cap,
                limit=_RESEND_LIMIT,
            )
            MessageStorm(
                policy=chaos.replication,
                seed=f"{scheduler.workload.seed}/{chaos.seed}",
            ).install(self.network)
        self.groups: dict[int, ShardReplicaGroup] = {}
        self.replicas: dict[str, Replica] = {}
        self.violations: list[str] = []
        self.counters = {
            "deltas_logged": 0,
            "deltas_shipped": 0,
            "deltas_applied": 0,
            "deltas_replayed": 0,
            "acks_received": 0,
            "crashes": 0,
            "recoveries": 0,
            "failovers": 0,
            "snapshots_taken": 0,
            "snapshots_restored": 0,
            "hash_checks": 0,
            "hash_mismatches": 0,
            "dropped_while_dead": 0,
        }
        if self.resender is not None:
            self.counters["deltas_resent"] = 0

        shard_chains: dict[int, list[str]] = {}
        for chain_id, shard in scheduler.chain_shard.items():
            shard_chains.setdefault(shard, []).append(chain_id)
        for shard in range(scheduler.shards):
            chain_ids = tuple(shard_chains.get(shard, ()))
            group = ShardReplicaGroup(
                shard=shard,
                chain_ids=chain_ids,
                logs={chain_id: [] for chain_id in chain_ids},
                layer=self,
            )
            for index in range(factor):
                replica = Replica(
                    name=replica_name(shard, index), shard=shard, index=index
                )
                # Bootstrap from the post-funding chain snapshot, so
                # every replica starts byte-identical to its group.
                for chain_id in chain_ids:
                    replica.state[chain_id] = scheduler.chains[chain_id].snapshot()
                    replica.applied[chain_id] = 0
                group.replicas.append(replica)
                self.replicas[replica.name] = replica
                self.network.register(
                    replica.name,
                    lambda message, replica=replica: self._on_message(
                        replica, message
                    ),
                )
            group.leader = group.replicas[0].name
            self.groups[shard] = group
        # Hook the authoritative chains and gate the mempools.
        for chain_id, chain in scheduler.chains.items():
            chain.delta_observer = self._on_chain_delta
            shard = scheduler.chain_shard[chain_id]
            scheduler.mempools[chain_id].seal_gate = (
                lambda shard=shard: self.groups[shard].sealing_open
            )

    # ------------------------------------------------------------------
    # Delta intake and shipping
    # ------------------------------------------------------------------
    def _on_chain_delta(self, chain: Chain, delta: StateDelta) -> None:
        shard = self.scheduler.chain_shard[chain.chain_id]
        group = self.groups[shard]
        log = group.logs[chain.chain_id]
        log.append(delta)
        seq = len(log)
        self.counters["deltas_logged"] += 1
        leader = group.leader_replica()
        if leader is not None and leader.alive:
            # The leader is co-located with the authoritative chain:
            # it applies the sealed block synchronously.
            self._apply_to(leader, chain.chain_id, seq, delta)
            for replica in group.replicas:
                if replica is leader or not replica.alive:
                    continue
                self._ship(group, replica.name, chain.chain_id, seq)
                self.counters["deltas_shipped"] += 1
                if self.telemetry is not None:
                    self.telemetry.delta_shipped(shard, chain.chain_id, seq)
        # With no live leader nothing ships: followers heal from the
        # group log at failover/recovery time (anti-entropy).

    def _ship(
        self, group: ShardReplicaGroup, follower: str, chain_id: str, seq: int
    ) -> None:
        """Ship delta ``seq`` to one follower — until acked, under chaos.

        A newer shipment supersedes the resend guarantee of an older
        one (the follower's gap-heal replays anything older from the
        log, so only the newest seq needs it).
        """
        key = (follower, chain_id)
        self._shipped[key] = seq

        def transmit(attempt: int) -> None:
            leader = group.leader_replica()
            if attempt:
                replica = self.replicas[follower]
                if leader is None or leader is replica or not replica.alive:
                    # Moot: leaderless shard, dead follower, or the
                    # follower now leads (failover caught it up).
                    self.resender.ack(key)
                    return
                self.counters["deltas_resent"] += 1
            self.network.send(
                leader.name,
                follower,
                DeltaShipment(
                    chain_id=chain_id, seq=seq, delta=group.logs[chain_id][seq - 1]
                ),
            )

        if self.resender is None:
            transmit(0)
        else:
            # Abandoned at the limit, finish()'s anti-entropy backstops.
            self.resender.send(key, transmit, f"replication/resend-{follower}")

    def _apply_to(
        self, replica: Replica, chain_id: str, seq: int, delta: StateDelta
    ) -> None:
        """Apply one delta to a replica image (``seq`` must be next)."""
        image = replica.image_of(chain_id)
        if delta["kind"] == "init":
            image[delta["contract"]] = {
                name: dict(data) for name, data in delta["state"].items()
            }
        else:
            for contract, storage, key, value in delta["writes"]:
                image.setdefault(contract, {}).setdefault(storage, {})[key] = value
            for contract, storage, key in delta["deletes"]:
                image.get(contract, {}).get(storage, {}).pop(key, None)
        replica.applied[chain_id] = seq
        self.counters["deltas_applied"] += 1

    def _apply_shipment(
        self, replica: Replica, chain_id: str, seq: int, delta: StateDelta
    ) -> str:
        """Idempotent shipment intake (the body of group.apply_delta)."""
        applied = replica.applied.get(chain_id, 0)
        if seq <= applied:
            return "duplicate"  # already applied or replayed — no-op
        if seq == applied + 1:
            self._apply_to(replica, chain_id, seq, delta)
            return "applied"
        # Gap (an earlier shipment was dropped): heal from the log.
        self._replay(replica, chain_id, seq)
        return "healed"

    def _catch_up(self, replica: Replica) -> int:
        """Replay every group-log delta the replica is missing."""
        group = self.groups[replica.shard]
        return sum(
            self._replay(replica, chain_id, len(group.logs[chain_id]))
            for chain_id in group.chain_ids
        )

    def _replay(self, replica: Replica, chain_id: str, upto: int) -> int:
        """Apply the logged deltas after the replica's last through seq
        ``upto`` (at most the log's end); returns how many it applied."""
        log = self.groups[replica.shard].logs[chain_id]
        applied = replica.applied.get(chain_id, 0)
        upto = min(upto, len(log))
        for seq in range(applied + 1, upto + 1):
            self._apply_to(replica, chain_id, seq, log[seq - 1])
        replayed = upto - applied
        self.counters["deltas_replayed"] += replayed
        return replayed

    def _on_message(self, replica: Replica, message) -> None:
        payload = message.payload
        if not replica.alive:
            # A shipment or ack racing a crash: the dead process sees
            # nothing.
            self.counters["dropped_while_dead"] += 1
            return
        if isinstance(payload, DeltaAck):
            self.counters["acks_received"] += 1
            key = (payload.follower, payload.chain_id)
            if self.resender is not None and payload.seq >= self._shipped[key]:
                self.resender.ack(key)
            return
        chain_id = payload.chain_id
        self._apply_shipment(replica, chain_id, payload.seq, payload.delta)
        # Acknowledge on simulated time so the leader's view of
        # replication lag is an observable quantity.
        target = self.groups[replica.shard].leader
        if target is not None and target != replica.name:
            self.network.send(
                replica.name,
                target,
                DeltaAck(
                    follower=replica.name,
                    chain_id=chain_id,
                    seq=replica.applied.get(chain_id, 0),
                ),
            )

    # ------------------------------------------------------------------
    # Replica faults (ReplicaCrash / ReplicaRecover actions call these)
    # ------------------------------------------------------------------
    def crash_replica(self, name: str) -> None:
        """Kill a replica: persist its crash-time image, lose memory."""
        replica = self.replicas.get(name)
        if replica is None or not replica.alive:
            return
        replica.alive = False
        self.counters["crashes"] += 1
        if self.telemetry is not None:
            self.telemetry.replica_crashed(name, replica.shard)
        # Sealed blocks are persisted before acknowledgement, so the
        # durable snapshot is exactly what the replica had applied.
        replica.disk = (copy_image(replica.state), dict(replica.applied))
        self.counters["snapshots_taken"] += 1
        replica.state = {}
        replica.applied = {}
        group = self.groups[replica.shard]
        if group.leader == name:
            self._on_leader_lost(group)

    def recover_replica(self, name: str) -> None:
        """Revive a replica: restore snapshot, replay, prove the hash."""
        replica = self.replicas.get(name)
        if replica is None or replica.alive:
            return
        self.counters["recoveries"] += 1
        if replica.disk is not None:
            state, applied = replica.disk
            replica.state = copy_image(state)
            replica.applied = dict(applied)
            self.counters["snapshots_restored"] += 1
        replica.alive = True
        replayed = self._catch_up(replica)
        if self.telemetry is not None:
            self.telemetry.replica_recovered(name, replica.shard, replayed)
        self._verify_replica(replica, context="post-recovery")
        group = self.groups[replica.shard]
        if not group.sealing_open and not group.election_pending:
            # The shard was fully down: the recovered replica takes
            # over immediately (no detection delay — the revival *is*
            # the detection).
            self._elect(group)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _on_leader_lost(self, group: ShardReplicaGroup) -> None:
        group.leader = None
        if group.down_since is None:
            group.down_since = self.simulator.now
            if self.telemetry is not None:
                self.telemetry.leader_lost(group.shard)
        if not group.election_pending:
            group.election_pending = True
            self.simulator.schedule(
                self.failover_timeout,
                lambda: self._run_election(group),
                label=f"replication/failover-s{group.shard}",
            )

    def _run_election(self, group: ShardReplicaGroup) -> None:
        group.election_pending = False
        self._elect(group)

    def _elect(self, group: ShardReplicaGroup) -> None:
        """Promote the lowest-indexed live replica and resume sealing."""
        candidate = None
        for replica in group.replicas:
            if replica.alive:
                candidate = replica
                break
        if candidate is None:
            return  # fully down; the next recovery re-elects
        group.leader = candidate.name
        self.counters["failovers"] += 1
        if self.telemetry is not None:
            self.telemetry.leader_elected(group.shard, candidate.name)
        # The new leader must own every sealed block before it seals
        # new ones on top.
        self._catch_up(candidate)
        if group.down_since is not None:
            group.downtime += self.simulator.now - group.down_since
            group.down_since = None
        for chain_id in group.chain_ids:
            self.scheduler.mempools[chain_id].kick()

    # ------------------------------------------------------------------
    # Verification and reporting
    # ------------------------------------------------------------------
    def _divergences(self, replica: Replica):
        """Yield ``(chain_id, actual, expected)`` for each of the
        replica's chains whose image digest differs from the chain's."""
        for chain_id in self.groups[replica.shard].chain_ids:
            expected = self.scheduler.chains[chain_id].state_hash()
            actual = digest_state(replica.image_of(chain_id))
            if actual != expected:
                yield chain_id, actual, expected

    def _verify_replica(self, replica: Replica, context: str) -> None:
        """Digest-compare a replica against its authoritative chains."""
        self.counters["hash_checks"] += len(self.groups[replica.shard].chain_ids)
        mismatches = list(self._divergences(replica))
        self.counters["hash_mismatches"] += len(mismatches)
        for chain_id, actual, expected in mismatches:
            self.violations.append(
                f"replication: {replica.name} diverges from {chain_id} "
                f"({context}): {actual.hex()[:16]} != {expected.hex()[:16]}"
            )

    def check_invariants(self, strict: bool = False) -> list[str]:
        """Replication invariant sweep.

        Accumulated recovery-time mismatches plus a live sweep: every
        *caught-up* live replica must digest-match its chains.  With
        ``strict`` (after :meth:`finish`), every live replica must be
        caught up and match — lag is only legitimate mid-run, while
        shipments are in flight.
        """
        found = list(self.violations)
        for group in self.groups.values():
            for replica in group.alive_replicas():
                caught_up = all(
                    replica.applied.get(chain_id, 0) == len(group.logs[chain_id])
                    for chain_id in group.chain_ids
                )
                if not caught_up:
                    if strict:
                        found.append(
                            f"replication: {replica.name} lagging after "
                            "quiescence"
                        )
                    continue
                for chain_id, actual, expected in self._divergences(replica):
                    found.append(
                        f"replication: {replica.name} diverges from "
                        f"{chain_id}: {actual.hex()[:16]} != "
                        f"{expected.hex()[:16]}"
                    )
        return found

    def finish(self, end_time: float) -> None:
        """Close downtime windows and run final anti-entropy.

        Every live replica replays whatever log suffix it is still
        missing (shipments dropped by message faults included), so the
        post-run invariant sweep can demand byte-identity.
        """
        for group in self.groups.values():
            if group.down_since is not None:
                group.downtime += max(0.0, end_time - group.down_since)
                group.down_since = None
            for replica in group.alive_replicas():
                self._catch_up(replica)

    def availability(self, end_time: float) -> float:
        """Fraction of shard-time with a live leader sealing blocks."""
        if end_time <= 0 or not self.groups:
            return 1.0
        total_down = sum(group.downtime for group in self.groups.values())
        return max(0.0, 1.0 - total_down / (end_time * len(self.groups)))

    def report_fields(self, end_time: float) -> dict:
        """This layer's :class:`~repro.market.report.MarketReport` fields."""
        return {
            "replication_factor": self.factor,
            "faults_injected": self.counters["crashes"],
            "recoveries": self.counters["recoveries"],
            "failovers": self.counters["failovers"],
            "availability": self.availability(end_time),
            "replication_stats": tuple(sorted(self.stats().items())),
            "network_stats": tuple(sorted(self.network.stats.items())),
        }

    def stats(self) -> dict[str, float]:
        """The layer's counters (deterministic simulation quantities)."""
        stats = dict(self.counters)
        stats["replication_factor"] = self.factor
        if self.resender is not None:
            stats["deltas_abandoned"] = self.resender.abandoned
        return stats
