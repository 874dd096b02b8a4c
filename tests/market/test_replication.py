"""Adversarial conformance tests for replicated shards (PR 6).

Every shard of the market can now run as a replica group
(:mod:`repro.market.replication`): sealed blocks replicate as
write-deltas to followers, a crashed leader's shard fails over, and a
recovered replica restores its crash-time snapshot, replays the group
log, and must digest byte-identical to the authoritative chains.
These tests pin the recovery machinery under exactly the
interleavings crash faults make newly possible:

* the home-shard leader killed **between escrow open and vote
  fan-in** — sealing gates close mid-deal, failover reopens them, and
  the deal still commits with every invariant intact;
* a leader crashed **during CBC proof assembly** — the status-vote /
  proof pipeline stalls on the gated mempools and completes after the
  handoff, never forking the deal's outcome;
* a follower that was dead across a **stale-proof replay attack** —
  it recovers, replays the blocks containing the rejected forgery,
  and its post-replay hash check still matches the group;
* a **full shard outage** at replication factor 1 — pure liveness
  loss: orders queue against closed gates and clear after recovery;
* snapshot / restore round-trips on the ledger, the commit log, and
  the escrow book;
* fingerprint invariance — replication with no faults is
  byte-invisible to the market's outcome log.

Every run executes with per-block invariant checking on, so the
replica-convergence sweep runs at every block of every scenario.
"""

from __future__ import annotations

from market_test_utils import HandWorkload, on_shard, run_hand, two_party_swap
from repro.chain.tx import Transaction
from repro.consensus.bft import DealStatus, StatusCertificate
from repro.core.proofs import StatusProof
from repro.market.messages import DeltaAck
from repro.market.replication import replica_name
from repro.market import DealPhase, MarketConfig, MarketCoordinator
from repro.sim.faults import FaultPlan, ReplicaCrash, ReplicaRecover


def _config(**overrides) -> MarketConfig:
    base = dict(patience=40.0, check_invariants_per_block=True)
    base.update(overrides)
    return MarketConfig(**base)


def _plan(*faults) -> FaultPlan:
    plan = FaultPlan()
    for fault in faults:
        plan.add(fault)
    return plan


# ----------------------------------------------------------------------
# Snapshot / restore units
# ----------------------------------------------------------------------
def test_chain_snapshot_restore_roundtrip():
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=0.2)]

    scheduler, report = run_hand(orders, book_fund_fraction=0.5)
    assert report.committed == 1
    chain = scheduler.chains[scheduler.workload.chain_ids[0]]
    image = chain.snapshot()
    digest = chain.state_hash()
    # Mutate real contract state through the chain, then restore.
    token = scheduler.tokens[scheduler.workload.chain_ids[0]]
    holder = scheduler.workload.labels[0]
    before = token.peek_balance(holder)
    receipt = chain.execute_now(Transaction(
        sender=holder,
        contract=token.name,
        method="transfer",
        args={"to": scheduler.workload.labels[1], "amount": 5},
        phase="test/mutate",
    ))
    assert receipt.ok
    assert token.peek_balance(holder) == before - 5
    assert chain.state_hash() != digest
    chain.restore(image)
    assert token.peek_balance(holder) == before
    assert chain.state_hash() == digest
    assert chain.snapshot() == image


def test_commitlog_and_book_snapshot_restore():
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=0.2)]

    workload = HandWorkload(orders, shards=1)
    scheduler = MarketCoordinator(workload, _config())
    log = scheduler.commit_logs[0]
    book = scheduler.books[scheduler.workload.chain_ids[0]]
    log_image, book_image = log.snapshot_state(), book.snapshot_state()
    report = scheduler.run()
    assert report.committed == 1
    deal_id = next(iter(scheduler.runs))
    assert log.peek_status(deal_id) == "committed"
    # Restoring rewinds both contracts to the pre-run image.
    log.restore_state(log_image)
    book.restore_state(book_image)
    assert log.peek_status(deal_id) is None
    assert log.peek_registered() == {}
    assert book.peek_deal_state(deal_id) is None


# ----------------------------------------------------------------------
# Fingerprint invariance (fault-free replication is byte-invisible)
# ----------------------------------------------------------------------
def test_fault_free_replication_keeps_fingerprint_and_converges():
    def orders(wl):
        return [
            on_shard(lambda salt, i=i: two_party_swap(
                wl, index=i, arrival=0.2 + 0.3 * i, a=i % 2, b=2 + (i % 2),
                salt=salt), i % 2, 2)
            for i in range(6)
        ]

    _, baseline = run_hand(orders, shards=2, accounts=4)
    scheduler, replicated = run_hand(
        orders, shards=2, accounts=4,
        config=_config(replication_factor=3),
    )
    assert replicated.fingerprint() == baseline.fingerprint()
    assert replicated.outcome_log == baseline.outcome_log
    assert baseline.replication_factor == 1
    assert replicated.replication_factor == 3
    assert replicated.availability == 1.0
    assert replicated.invariant_violations == ()
    stats = dict(replicated.replication_stats)
    assert stats["deltas_shipped"] > 0
    assert stats["acks_received"] > 0
    assert stats["hash_mismatches"] == 0
    # Post-quiescence every replica must be caught up AND identical.
    assert scheduler.replication.check_invariants(strict=True) == []
    for group in scheduler.replication.groups.values():
        for replica in group.replicas:
            for chain_id in group.chain_ids:
                assert replica.applied[chain_id] == len(group.logs[chain_id])


def test_unreplicated_run_constructs_no_layer():
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=0.2)]

    scheduler, report = run_hand(orders)
    assert scheduler.replication is None
    assert report.replication_factor == 1
    assert report.replication_stats == ()
    assert report.availability == 1.0


# ----------------------------------------------------------------------
# Leader killed between escrow open and vote fan-in
# ----------------------------------------------------------------------
def test_leader_kill_between_escrow_open_and_vote_fanin():
    probe = {}

    def orders(wl):
        # Cross-shard timelock deal homed on shard 1: escrows open on
        # both shards' books, votes fan in through shard 1's mempool.
        return [on_shard(
            lambda salt: two_party_swap(
                wl, index=0, arrival=0.2, protocol="timelock", salt=salt
            ),
            1, 2,
        )]

    workload = HandWorkload(orders, shards=2, book_fund_fraction=0.5)
    crash_at = 2.6
    plan = _plan(ReplicaCrash(
        replica=replica_name(1, 0), at_time=crash_at, recover_at=12.0,
    ))
    scheduler = MarketCoordinator(
        workload,
        _config(replication_factor=3, fault_plan=plan,
                timelock_delta=20.0),
    )

    def snapshot_phase() -> None:
        run = next(iter(scheduler.runs.values()))
        probe["terminal_at_crash"] = run.terminal
        probe["escrows_open"] = bool(run.driver and run.driver.escrow_names)

    # Probe just before the crash fires: the deal must genuinely be
    # mid-flight (escrows exist, outcome undecided).
    scheduler.simulator.schedule_at(crash_at - 0.05, snapshot_phase,
                                    label="test/probe")
    report = scheduler.run()
    assert probe == {"terminal_at_crash": False, "escrows_open": True}
    run = next(iter(scheduler.runs.values()))
    assert run.phase is DealPhase.COMMITTED
    assert report.committed == 1
    assert report.faults_injected == 1
    assert report.failovers >= 1
    assert report.recoveries == 1
    assert report.availability < 1.0
    assert report.invariant_violations == ()
    stats = dict(report.replication_stats)
    assert stats["hash_checks"] > 0 and stats["hash_mismatches"] == 0
    # The shard-1 gates really closed: sealing deferred at least once.
    home_mempool = scheduler.mempools[scheduler.shard_home_chain[1]]
    assert home_mempool.stats.get("seals_deferred", 0) >= 1
    # Leadership moved off the crashed replica and stayed there.
    group = scheduler.replication.groups[1]
    assert group.leader == replica_name(1, 1)
    assert scheduler.replication.replicas[replica_name(1, 0)].alive


# ----------------------------------------------------------------------
# Crash during CBC proof assembly
# ----------------------------------------------------------------------
def test_crash_during_cbc_proof_assembly():
    probe = {}

    def orders(wl):
        return [on_shard(
            lambda salt: two_party_swap(
                wl, index=0, arrival=0.2, protocol="cbc", salt=salt
            ),
            0, 2,
        )]

    workload = HandWorkload(orders, shards=2, book_fund_fraction=0.5)
    crash_at = 3.6
    plan = _plan(ReplicaCrash(
        replica=replica_name(0, 0), at_time=crash_at, recover_at=14.0,
    ))
    scheduler = MarketCoordinator(
        workload, _config(replication_factor=2, fault_plan=plan),
    )

    def snapshot_phase() -> None:
        run = next(iter(scheduler.runs.values()))
        driver = run.driver
        probe["terminal_at_crash"] = run.terminal
        # Proof assembly underway: the CBC run started (start hash
        # fixed) but no decision landed yet.
        probe["assembling"] = bool(
            driver is not None
            and driver.start_hash is not None
            and run.decided is None
        )

    scheduler.simulator.schedule_at(crash_at - 0.05, snapshot_phase,
                                    label="test/probe")
    report = scheduler.run()
    assert probe == {"terminal_at_crash": False, "assembling": True}
    run = next(iter(scheduler.runs.values()))
    assert run.phase is DealPhase.COMMITTED
    assert report.committed == 1
    assert report.failovers >= 1 and report.recoveries == 1
    assert report.invariant_violations == ()
    assert not scheduler.protocol_violations
    stats = dict(report.replication_stats)
    assert stats["hash_mismatches"] == 0


# ----------------------------------------------------------------------
# Recover into a stale-proof replay
# ----------------------------------------------------------------------
def test_recovered_replica_replays_through_stale_proof_attack():
    injected = []

    def orders(wl):
        deal_a = on_shard(
            lambda salt: two_party_swap(wl, index=0, arrival=0.2,
                                        a=0, b=1, protocol="cbc", salt=salt),
            0, 2,
        )
        deal_b = on_shard(
            lambda salt: two_party_swap(wl, index=1, arrival=0.2,
                                        a=2, b=3, protocol="cbc", salt=salt),
            1, 2,
        )
        return [deal_a, deal_b]

    workload = HandWorkload(orders, shards=2, book_fund_fraction=0.5)
    # Follower s0/r1 is dead across the replay attack below; it must
    # recover, replay the block holding the rejected forgery, and
    # still hash-match its group.
    plan = _plan(ReplicaCrash(
        replica=replica_name(0, 1), at_time=1.0, recover_at=20.0,
    ))
    scheduler = MarketCoordinator(
        workload, _config(replication_factor=2, fault_plan=plan),
    )

    def inject() -> None:
        target = next(
            run for run in scheduler.runs.values()
            if run.home_shard == 1 and run.protocol == "cbc"
        )
        driver = target.driver
        if (
            target.terminal
            or driver.start_hash is None
            or not driver.escrow_names
            or 0 not in scheduler.cbcs
        ):
            scheduler.simulator.schedule(1.0, inject, label="test/replay")
            return
        wrong_validators = scheduler.cbcs[0].validators
        message = StatusCertificate.message(
            target.order.deal_id, driver.start_hash,
            DealStatus.COMMITTED, wrong_validators.epoch,
        )
        proof = StatusProof(certificate=StatusCertificate(
            deal_id=target.order.deal_id,
            start_hash=driver.start_hash,
            status=DealStatus.COMMITTED,
            epoch=wrong_validators.epoch,
            signatures=wrong_validators.quorum_sign(message),
        ))
        asset = target.order.spec.assets[0]
        scheduler.mempools[asset.chain_id].submit(
            Transaction(
                sender=target.order.spec.parties[0],
                contract=driver.escrow_names[asset.asset_id],
                method="commit",
                args={"proof": proof},
                phase="market/stale-proof",
            ),
            target.order.deal_id,
        )
        injected.append(scheduler.simulator.now)

    scheduler.simulator.schedule_at(2.6, inject, label="test/replay")
    report = scheduler.run()
    assert injected and injected[0] < 20.0, "replay must precede recovery"
    assert report.stale_proofs_rejected == 1
    assert report.committed == 2
    assert report.recoveries == 1
    assert report.invariant_violations == ()
    stats = dict(report.replication_stats)
    assert stats["snapshots_restored"] == 1
    assert stats["deltas_replayed"] > 0
    assert stats["hash_checks"] > 0 and stats["hash_mismatches"] == 0
    # The dead follower never forced a failover: s0/r0 still leads.
    assert scheduler.replication.groups[0].leader == replica_name(0, 0)


# ----------------------------------------------------------------------
# Full shard outage at factor 1 (liveness loss, never safety loss)
# ----------------------------------------------------------------------
def test_factor_one_outage_queues_orders_until_recovery():
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=3.0)]

    workload = HandWorkload(orders, shards=1)
    # The only replica dies before the order arrives and revives later:
    # the order queues against a closed gate, then clears.
    plan = _plan(ReplicaCrash(
        replica=replica_name(0, 0), at_time=1.0, recover_at=10.0,
    ))
    scheduler = MarketCoordinator(
        workload, _config(replication_factor=1, fault_plan=plan),
    )
    report = scheduler.run()
    assert report.committed == 1
    run = next(iter(scheduler.runs.values()))
    # Nothing sealed during the outage: the whole pipeline — from
    # registration on — ran after the recovery-time election reopened
    # the gates at t=10.
    assert run.finished_at is not None and run.finished_at >= 10.0
    assert report.faults_injected == 1
    assert report.recoveries == 1
    assert report.failovers == 1  # the recovery *is* the election
    assert report.availability < 1.0
    assert report.invariant_violations == ()
    mempool = scheduler.mempools[scheduler.shard_home_chain[0]]
    assert mempool.stats.get("seals_deferred", 0) >= 1


# ----------------------------------------------------------------------
# An ack racing a leader crash
# ----------------------------------------------------------------------
def test_ack_in_flight_to_a_crashed_leader_is_not_recorded():
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=0.2)]

    scheduler = MarketCoordinator(
        HandWorkload(orders, shards=1), _config(replication_factor=2)
    )
    layer = scheduler.replication
    leader = replica_name(0, 0)
    crashed = []

    def crash_leader_under_the_first_ack(message):
        # Process-level crash the instant the follower sends its first
        # ack: the ack is already past the (send-time) fault filters,
        # so it lands in the dead leader's handler.
        if isinstance(message.payload, DeltaAck) and not crashed:
            crashed.append(message.sender)
            layer.crash_replica(leader)
        return None

    layer.network.add_filter(crash_leader_under_the_first_ack)
    report = scheduler.run()
    assert crashed == [replica_name(0, 1)]
    stats = dict(report.replication_stats)
    # The dead process saw nothing: no ack counted — the arrival is
    # accounted as lost to the crash.
    assert stats["acks_received"] == 0
    assert stats["dropped_while_dead"] >= 1
    # The follower took over and the market carried on.
    assert report.failovers == 1
    assert report.committed == 1
    assert report.invariant_violations == ()


# ----------------------------------------------------------------------
# Explicit ReplicaRecover faults and fault-plan accounting
# ----------------------------------------------------------------------
def test_replica_recover_fault_and_plan_stats():
    def orders(wl):
        return [two_party_swap(wl, index=0, arrival=0.2)]

    workload = HandWorkload(orders, shards=1)
    crash = ReplicaCrash(replica=replica_name(0, 2), at_time=1.0)
    revive = ReplicaRecover(replica=replica_name(0, 2), at_time=6.0)
    plan = _plan(crash, revive)
    scheduler = MarketCoordinator(
        workload, _config(replication_factor=3, fault_plan=plan),
    )
    report = scheduler.run()
    assert report.committed == 1
    assert report.faults_injected == 1
    assert report.recoveries == 1
    # A dead follower never closes the gates: full availability.
    assert report.availability == 1.0
    assert report.failovers == 0
    assert crash.crashes_fired == 1 and crash.recoveries_fired == 0
    assert revive.recoveries_fired == 1
    rows = plan.stats()
    assert [row["kind"] for row in rows] == ["ReplicaCrash", "ReplicaRecover"]
    assert rows[0]["target"] == replica_name(0, 2)
    assert rows[0]["crashes"] == 1
    assert rows[1]["recoveries"] == 1
    assert scheduler.replication.check_invariants(strict=True) == []
