"""Backend equivalence: ``processes`` is byte-identical to ``inline``.

The contract of :func:`repro.market.open_market` is that the execution
backend is invisible in the results: the one coordinator with its
signature checks on a pool of one worker process per shard must
produce the same report bytes and the same fingerprint as the
single-process run, for any market the inline backend can run.  These
tests sweep the matrix the ISSUE names — shards {1, 2, 4} x protocol
mix x replication factor {1, 3} x a seeded crash schedule — plus the
facade's edge cases (unknown backend names, handle memoization) and
the pool's worker-loss paths (injected worker kills and hangs).
"""

import multiprocessing
from dataclasses import replace

import pytest

from repro.errors import MarketError
from repro.market import (
    MarketConfig,
    MarketCoordinator,
    backends,
    open_market,
)
from repro.market.backends import ProcessBackend
from repro.sim.faults import FaultPlan, ReplicaCrash, WorkerKill
from repro.sim.network import Envelope, LocalBus
from repro.sim.simulator import Simulator
from repro.telemetry import Telemetry
from repro.workloads.market import MarketProfile, MarketWorkload

PROTOCOL_MIX = (("unanimity", 1.0), ("timelock", 1.0), ("cbc", 1.0))

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="processes backend needs the fork start method"
)


def _profile(shards: int) -> MarketProfile:
    """A tiny protocol-mix market over ``shards`` coordinator shards."""
    base = MarketProfile.sharded_smoke(seed=7, shards=shards)
    if shards == 1:
        base = replace(base, cross_shard_rate=0.0)
    return replace(
        base, deals=40, protocol_mix=PROTOCOL_MIX, book_fund_fraction=0.5
    )


def _config(replication: int, crash: bool) -> MarketConfig:
    plan = None
    if crash:
        # A seeded (deterministic) crash schedule: a follower of shard
        # 0 dies mid-run and recovers through snapshot + replay.
        plan = FaultPlan().add(
            ReplicaCrash(replica="s0/r1", at_time=12.0, recover_at=30.0)
        )
    return MarketConfig(replication_factor=replication, fault_plan=plan)


# (shards, replication factor, seeded crash schedule?)
MATRIX = [
    (1, 1, False),
    (2, 1, False),
    (4, 1, False),
    (1, 3, True),
    (2, 3, True),
    (4, 3, True),
]


@needs_fork
@pytest.mark.parametrize("shards,replication,crash", MATRIX)
def test_processes_backend_matches_inline(shards, replication, crash):
    workload = MarketWorkload(_profile(shards))
    inline = open_market(workload, _config(replication, crash)).run()

    workload = MarketWorkload(_profile(shards))
    procs_handle = open_market(
        workload, _config(replication, crash), backend="processes"
    )
    assert procs_handle.backend.name == "processes"
    # One coordinator, in this process, on either backend.
    assert isinstance(procs_handle.market, MarketCoordinator)
    procs = procs_handle.run()

    assert procs.fingerprint() == inline.fingerprint()
    assert procs.render() == inline.render()
    assert procs.committed == inline.committed
    assert not inline.invariant_violations


def test_inline_handle_exposes_the_coordinator():
    handle = open_market(MarketWorkload(_profile(1)))
    assert handle.backend.name == "inline"
    assert isinstance(handle.market, MarketCoordinator)
    # run() is memoized: report() is the same object, not a re-run.
    assert handle.report() is handle.run()


def test_unknown_backend_is_a_market_error():
    with pytest.raises(MarketError, match="unknown execution backend"):
        open_market(MarketWorkload(_profile(1)), backend="threads")


def test_deal_scheduler_shim_is_gone():
    # The one-release deprecation shim has been removed: the public
    # surface is open_market (and MarketCoordinator for direct use).
    with pytest.raises(ImportError):
        from repro.market import DealScheduler  # noqa: F401
    with pytest.raises(ModuleNotFoundError):
        import repro.market.scheduler  # noqa: F401


# ----------------------------------------------------------------------
# Verify-pool worker loss: kills and hangs
# ----------------------------------------------------------------------
def _kill_config(mode: str) -> MarketConfig:
    # Fresh plan per run: the fault counts its firings.
    plan = FaultPlan().add(WorkerKill(worker=1, at_time=8.0, mode=mode))
    return MarketConfig(fault_plan=plan)


@needs_fork
@pytest.mark.parametrize("mode", ["kill", "hang"])
def test_pool_survives_lost_worker_and_matches_inline(mode, monkeypatch):
    # A SIGSTOPped worker never closes its pipe: only the stall
    # timeout can catch it, so shrink it from its 30 s.
    monkeypatch.setattr(backends, "_STALL_TIMEOUT", 0.6)
    # Inline the kill is scheduled but has no worker to act on, so the
    # baseline is the clean run.
    inline = open_market(MarketWorkload(_profile(2)), _kill_config(mode)).run()
    assert not inline.invariant_violations

    backend = ProcessBackend()
    procs = open_market(
        MarketWorkload(_profile(2)), _kill_config(mode), backend=backend
    ).run()
    # The parent never lost state: the dead worker's batches — the one
    # in flight included — were verified here instead.
    assert backend.stats["workers_lost"] == 1
    assert backend.stats["inline_batches"] > 0
    assert procs.fingerprint() == inline.fingerprint()
    assert procs.render() == inline.render()


@needs_fork
def test_processes_backend_records_telemetry_in_the_parent():
    def traced_spans(backend: str) -> int:
        telemetry = Telemetry()
        open_market(
            MarketWorkload(_profile(2)), MarketConfig(telemetry=telemetry),
            backend=backend,
        ).run()
        return sum(1 for span in telemetry.tracer.spans if span.name == "deal")

    assert traced_spans("processes") == traced_spans("inline") == 40


# ----------------------------------------------------------------------
# The Envelope plane underneath the backends
# ----------------------------------------------------------------------
def test_local_bus_delivers_synchronously_with_stats():
    simulator = Simulator()
    bus = LocalBus(simulator)
    seen = []
    bus.register("sink", seen.append)
    bus.post("source", "sink", "chain-3", payload="hello")
    envelope = seen[0]
    assert isinstance(envelope, Envelope)
    assert (envelope.sender, envelope.chain_id, envelope.tick) == (
        "source", "chain-3", 0.0
    )
    assert envelope.payload == "hello"
    bus.post("source", "nobody", 0, payload="lost")
    assert bus.stats["delivered"] == 1
    assert bus.stats["dropped"] == 1
