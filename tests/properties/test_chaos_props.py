"""Chaos idempotency properties (PR 9).

The chaos plane's safety story rests on two replay guarantees:

* **Handler idempotency** — the shard runtimes, the coordinator's
  decision intake, and the verify service suppress duplicated
  reliable envelopes with a :class:`~repro.market.messages.DedupWindow`,
  so a market whose every message is delivered *twice* settles to the
  byte-identical outcome log and chain state as a clean run;
* **Delta idempotency** — :meth:`ShardReplicaGroup.apply_delta` is a
  sequence-gated intake: duplicated shipments no-op, gapped shipments
  heal from the group log, and any adversarial interleaving of the
  shipment stream converges a fresh replica to the authoritative
  chain digest.

On top of replay, the byte-neutrality contract: a chaos plan whose
every rate is zero is *structurally* no plan at all — the market
builds its plain :class:`~repro.sim.network.LocalBus` and renders the
byte-identical report a chaos-free build renders.

These are seeded exhaustive replays rather than hypothesis
strategies: every case is a full market simulation, so a fixed
deterministic grid beats shrinking — failures replay exactly from the
seed in the assertion message.
"""

from __future__ import annotations

from repro.chain.ledger import digest_state
from repro.market import MarketConfig, MarketCoordinator
from repro.market.replication import Replica
from repro.sim.chaos import ChaosPlan, ChaosPolicy
from repro.sim.network import ChaosBus, LocalBus
from repro.sim.rng import DeterministicRng
from repro.workloads.market import MarketProfile, MarketWorkload


def _run(profile: MarketProfile, **config_overrides):
    config = MarketConfig(**config_overrides) if config_overrides else None
    scheduler = MarketCoordinator(MarketWorkload(profile), config)
    return scheduler, scheduler.run()


# ----------------------------------------------------------------------
# Handler idempotency: duplicated delivery is outcome-invisible
# ----------------------------------------------------------------------
def test_duplicate_only_chaos_is_outcome_invisible():
    profile = MarketProfile.sharded_smoke(seed=13)
    clean_scheduler, clean = _run(profile)
    plan = ChaosPlan(market=ChaosPolicy(dup_rate=1.0))
    chaotic_scheduler, chaotic = _run(profile, chaos=plan)
    # Every envelope was transmitted twice and the second admission
    # suppressed — not silently dropped by the transport.
    stats = chaotic_scheduler.bus.stats
    assert isinstance(chaotic_scheduler.bus, ChaosBus)
    assert stats["chaos_duplicated"] > 0
    assert stats["dup_suppressed"] > 0
    assert chaotic_scheduler.bus.in_flight == 0
    # Same outcome log, byte for byte, and the same final chain state.
    assert chaotic.fingerprint() == clean.fingerprint()
    assert chaotic.invariant_violations == ()
    for chain_id, chain in clean_scheduler.chains.items():
        assert (
            chaotic_scheduler.chains[chain_id].state_hash()
            == chain.state_hash()
        ), chain_id


def test_reordered_delivery_preserves_conservation_and_settles():
    # Reorder + delay + duplicate (no drops): nothing is lost, so
    # every deal must still settle — possibly on a different path
    # (late votes abort) but never violating conservation, and never
    # leaving a deferred escrow op abandoned.
    profile = MarketProfile.sharded_smoke(seed=17)
    plan = ChaosPlan(
        market=ChaosPolicy(
            dup_rate=0.3, delay_rate=0.5, reorder_rate=0.6, reorder_max=1.5
        ),
        seed=2,
    )
    scheduler, report = _run(profile, chaos=plan)
    stats = scheduler.bus.stats
    assert stats["chaos_reordered"] > 0 and stats["chaos_delayed"] > 0
    assert stats["dup_suppressed"] > 0
    assert report.invariant_violations == ()
    assert report.committed + report.aborted + report.rejected == report.deals
    assert scheduler.bus.in_flight == 0
    assert stats.get("defer_abandoned", 0) == 0


def test_chaotic_market_is_seed_deterministic():
    profile = MarketProfile.sharded_smoke(seed=19)
    plan = ChaosPlan.at(0.15, seed=5)

    def run():
        scheduler, report = _run(profile, chaos=plan)
        return report.fingerprint(), report.render(), dict(scheduler.bus.stats)

    assert run() == run()


# ----------------------------------------------------------------------
# Byte-neutrality: an inactive plan is structurally no plan at all
# ----------------------------------------------------------------------
def test_inactive_chaos_plans_are_byte_identical_to_chaos_free():
    profile = MarketProfile.sharded_smoke(seed=23)
    _, baseline = _run(profile)
    none_scheduler, explicit_none = _run(profile, chaos=None)
    zero_scheduler, zero_plan = _run(profile, chaos=ChaosPlan.at(0.0))
    # Zero rates never build a ChaosBus: the plain LocalBus carries
    # no chaos counters, so even the report's stats rows are bytes
    # the chaos-free build already rendered.
    assert type(none_scheduler.bus) is LocalBus
    assert type(zero_scheduler.bus) is LocalBus
    assert explicit_none.render() == baseline.render()
    assert zero_plan.render() == baseline.render()
    assert explicit_none.fingerprint() == baseline.fingerprint()
    assert zero_plan.fingerprint() == baseline.fingerprint()


# ----------------------------------------------------------------------
# Delta idempotency: adversarial shipment replay converges replicas
# ----------------------------------------------------------------------
def _fresh_replica(group, bootstrap, label: str) -> Replica:
    replica = Replica(name=f"s{group.shard}/{label}", shard=group.shard, index=99)
    replica.state = {
        chain_id: {
            contract: {name: dict(data) for name, data in storages.items()}
            for contract, storages in chains.items()
        }
        for chain_id, chains in bootstrap.items()
    }
    replica.applied = {chain_id: 0 for chain_id in group.chain_ids}
    return replica


def test_replaying_shuffled_duplicated_deltas_converges_replica():
    profile = MarketProfile.sharded_smoke(seed=29)
    scheduler = MarketCoordinator(
        MarketWorkload(profile), MarketConfig(replication_factor=2)
    )
    group = scheduler.replication.groups[0]
    # The bootstrap image every replica starts from (pre-run).
    bootstrap = group.replicas[-1].copy_state()
    report = scheduler.run()
    assert report.invariant_violations == ()

    clean = _fresh_replica(group, bootstrap, "clean")
    adversarial = _fresh_replica(group, bootstrap, "adversarial")
    rng = DeterministicRng("chaos-props/delta-replay")
    saw = {"duplicate": 0, "healed": 0, "applied": 0}
    for chain_id in group.chain_ids:
        log = group.logs[chain_id]
        assert log, "the run must have sealed blocks to replay"
        # Clean replay: strictly in order, every shipment fresh.
        for seq, delta in enumerate(log, start=1):
            assert group.apply_delta(clean, chain_id, seq, delta) == "applied"
        # Adversarial replay: the same stream shuffled and delivered
        # twice — gaps heal from the group log, duplicates no-op.
        stream = rng.stream(f"shuffle/{chain_id}")
        shipments = [(seq, delta) for seq, delta in enumerate(log, start=1)]
        shipments = shipments + shipments
        for index in range(len(shipments) - 1, 0, -1):
            other = stream.randint(0, index)
            shipments[index], shipments[other] = (
                shipments[other], shipments[index],
            )
        for seq, delta in shipments:
            saw[group.apply_delta(adversarial, chain_id, seq, delta)] += 1
    assert saw["duplicate"] > 0, "the doubled stream must hit the no-op path"
    # Both replicas digest byte-identical to the authoritative chains.
    for chain_id in group.chain_ids:
        expected = scheduler.chains[chain_id].state_hash()
        assert digest_state(clean.image_of(chain_id)) == expected, chain_id
        assert digest_state(adversarial.image_of(chain_id)) == expected, chain_id


def test_delta_replay_heals_gaps_from_the_group_log():
    profile = MarketProfile.sharded_smoke(seed=31)
    scheduler = MarketCoordinator(
        MarketWorkload(profile), MarketConfig(replication_factor=2)
    )
    group = scheduler.replication.groups[0]
    bootstrap = group.replicas[-1].copy_state()
    report = scheduler.run()
    assert report.invariant_violations == ()
    chain_id = group.chain_ids[0]
    log = group.logs[chain_id]
    assert len(log) >= 2, "need at least two sealed deltas for a gap"
    replica = _fresh_replica(group, bootstrap, "gapped")
    # Deliver only the *last* shipment: the whole prefix is a gap and
    # must be replayed from the log before seq applies.
    verdict = group.apply_delta(replica, chain_id, len(log), log[-1])
    assert verdict == "healed"
    assert replica.applied[chain_id] == len(log)
    assert (
        digest_state(replica.image_of(chain_id))
        == scheduler.chains[chain_id].state_hash()
    )
    # Replaying the entire stream afterwards is pure no-op.
    for seq, delta in enumerate(log, start=1):
        assert group.apply_delta(replica, chain_id, seq, delta) == "duplicate"


def test_acks_merely_in_flight_trigger_no_resends():
    # A drop-free delta plane (duplicates only) with the aggressive
    # 0.25-tick ack timeout: the first resend timer is never shorter
    # than the delta network's 2Δ round trip, so no shipment is resent
    # just because its ack has not landed yet.
    plan = ChaosPlan(
        replication=ChaosPolicy(dup_rate=0.3), ack_timeout=0.25, backoff_cap=2.0
    )
    _, report = _run(
        MarketProfile.sharded_smoke(seed=29), chaos=plan, replication_factor=3
    )
    stats = dict(report.replication_stats)
    assert dict(report.network_stats)["filter_duplicated"] > 0
    assert stats["deltas_shipped"] > 0
    assert stats["acks_received"] >= stats["deltas_shipped"]
    assert stats["deltas_resent"] == 0
    assert stats["deltas_abandoned"] == 0
    assert report.invariant_violations == ()


def test_unreachable_followers_exhaust_resends_loudly():
    # Every delta and every resend dropped: the leader gives up on
    # each chain's last watched shipment at the resend limit and says
    # so; finish()'s anti-entropy still converges the followers.
    plan = ChaosPlan(replication=ChaosPolicy(drop_rate=1.0))
    _, report = _run(
        MarketProfile.sharded_smoke(seed=29), chaos=plan, replication_factor=2
    )
    stats = dict(report.replication_stats)
    assert stats["acks_received"] == 0
    assert stats["deltas_abandoned"] == 4  # one per chain
    assert stats["deltas_resent"] >= 6 * stats["deltas_abandoned"]
    assert stats["deltas_replayed"] == stats["deltas_logged"]
    assert report.invariant_violations == ()
