"""Execution backends: where a market run's work executes.

:func:`open_market` builds the one
:class:`~repro.market.runtime.MarketCoordinator` of a run and pairs it
with an :class:`ExecutionBackend`.  :class:`InlineBackend` runs
everything in-process.  :class:`ProcessBackend` runs the same single
coordinator and moves only the signature checks — ~90% of a run's
wall-clock, all behind the ``verify_many`` hook of
:class:`~repro.chain.ledger.VerifyAggregator` — to a pool of
one forked worker per shard; a worker that dies or hangs is dropped and
its groups are verified in the parent, so no market state ever lives
outside this process and reports are byte-identical across backends.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

from repro.crypto.schnorr import batch_verify_many as schnorr_batch_verify_many
from repro.errors import MarketError
from repro.market.report import MarketReport
from repro.market.runtime import MarketConfig, MarketCoordinator

# Wall-clock seconds a verify-pool worker may sit on one request
# before the pool declares it hung.
_STALL_TIMEOUT = 30.0


class ExecutionBackend:
    """Where a market run's work actually executes."""

    name = "?"

    def execute(self, handle: "MarketHandle") -> MarketReport:
        raise NotImplementedError


class InlineBackend(ExecutionBackend):
    """Everything in this process — the historical scheduler, exactly."""

    name = "inline"

    def execute(self, handle: "MarketHandle") -> MarketReport:
        return handle.market.run()


def _pool_worker(conn, parent_ends) -> None:
    """One verify worker: group lists in, verdict lists out, until EOF."""
    # The fork copied the parent's pipe ends; EOF — the pool closing,
    # or the parent dying — only arrives once no copy is left open.
    for end in parent_ends:
        end.close()
    try:
        while True:
            conn.send(schnorr_batch_verify_many(conn.recv()))
    except (EOFError, OSError):
        pass


class _VerifyPool:
    """One forked verify worker per shard, behind ``verify_many``.

    Plugged into the coordinator's ``VerifyAggregator.verify_many``: each
    flush is split by owner shard, every owner's order groups go to
    that shard's worker in one request (so a worker isolates its own
    shard's forgeries), and the verdicts come back in flush order.  All
    requests of a flush are sent before any reply is awaited, so the
    workers check their slices concurrently.

    The parent holds all market state, so a worker is disposable: one
    that died (pipe EOF / broken pipe) or sat on a request longer than
    ``_STALL_TIMEOUT`` is killed and dropped (``workers_lost``), and
    its groups — the request in flight included — are verified in the
    parent from then on (``inline_batches`` counts them).  Verdicts are
    the same either way, so a lost worker costs wall-clock and nothing
    else.
    """

    def __init__(self, workers: int, stats: dict):
        self.stats = stats
        context = multiprocessing.get_context("fork")
        self._workers: dict[int, tuple] = {}  # shard -> (pipe, process)
        for shard in range(workers):
            conn, child_conn = context.Pipe()
            parent_ends = [conn] + [end for end, _ in self._workers.values()]
            proc = context.Process(
                target=_pool_worker, args=(child_conn, parent_ends),
                name=f"market-verify-{shard}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers[shard] = (conn, proc)

    def verify_many(self, owned: list) -> list:
        """Verdicts for ``[(owner, group), ...]``, in order."""
        slices: dict[int, tuple[list, list]] = {}  # owner -> positions, groups
        for position, (owner, group) in enumerate(owned):
            positions, groups = slices.setdefault(owner, ([], []))
            positions.append(position)
            groups.append(group)
        for owner, (_, groups) in slices.items():
            self._send(owner, groups)
        verdicts: list = [None] * len(owned)
        for owner, (positions, groups) in slices.items():
            answer = self._recv(owner)
            if answer is None:
                self.stats["inline_batches"] += len(groups)
                answer = schnorr_batch_verify_many(groups)
            for position, ok in zip(positions, answer):
                verdicts[position] = ok
        return verdicts

    def _send(self, owner: int, groups: list) -> None:
        # A worker has at most this one request in flight and requests
        # are a few KB (17 KB at most over a full E16), far below the
        # socket buffer, so a hung worker cannot block the send: its
        # stall shows at the reply.
        if owner in self._workers:
            try:
                self._workers[owner][0].send(groups)
            except OSError:
                self._lose(owner)

    def _recv(self, owner: int) -> list | None:
        """The owner's reply, or ``None`` when it has no live worker."""
        if owner not in self._workers:
            return None
        conn = self._workers[owner][0]
        try:
            if conn.poll(_STALL_TIMEOUT):
                return conn.recv()
        except (EOFError, OSError):
            pass
        self._lose(owner)
        return None

    def _lose(self, owner: int) -> None:
        self._stop(owner)
        self.stats["workers_lost"] += 1

    def _stop(self, owner: int) -> None:
        conn, proc = self._workers.pop(owner)
        conn.close()
        proc.kill()  # SIGKILL also ends a SIGSTOP-hung worker
        proc.join()

    def kill_worker(self, worker: int, mode: str) -> None:
        """``WorkerKill``: SIGKILL (``"kill"``) or SIGSTOP (``"hang"``)."""
        if worker in self._workers:
            os.kill(
                self._workers[worker][1].pid,
                signal.SIGSTOP if mode == "hang" else signal.SIGKILL,
            )

    def close(self) -> None:
        for owner in list(self._workers):
            self._stop(owner)


class ProcessBackend(ExecutionBackend):
    """The inline market with its signature checks on a worker pool.

    One :class:`MarketCoordinator` runs in this process — same event
    heap, same messages, same report as inline — and the expensive
    part, seal-batch signature verification (~90% of a sharded E16's
    wall-clock), goes to a :class:`_VerifyPool` of one forked worker
    per shard through the ``VerifyAggregator.verify_many`` hook.  A
    group's verdict is its own validity whatever it was merged with,
    so per-owner verdicts equal the merged ones and the report is
    byte-identical to inline.  ``stats`` counts lost workers and the
    order groups verified in the parent in their stead.  Falls back to
    plain inline execution when workers cannot be forked — inside a
    daemonic pool worker such as ``run_all.py --jobs``, or on platforms
    without ``fork``.
    """

    name = "processes"

    def __init__(self):
        self.stats = {"workers_lost": 0, "inline_batches": 0}

    @staticmethod
    def _can_fork() -> bool:
        return (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        )

    def execute(self, handle: "MarketHandle") -> MarketReport:
        market = handle.market
        if not self._can_fork():
            return market.run()
        pool = _VerifyPool(market.shards, self.stats)
        market.verifier = pool
        market.verify_aggregator.verify_many = pool.verify_many
        try:
            return market.run()
        finally:
            pool.close()


_BACKENDS = {
    InlineBackend.name: InlineBackend,
    ProcessBackend.name: ProcessBackend,
}


class MarketHandle:
    """A constructed market plus the backend that will run it.

    The public surface of :func:`open_market`: ``run()`` executes the
    workload once (memoized), ``report()`` returns the same
    :class:`MarketReport`, ``backend`` names the execution backend.
    The underlying :class:`MarketCoordinator` is built eagerly and
    exposed as ``.market`` on every backend, so tests and tools can
    inject faults or inspect chains before running.
    """

    def __init__(self, workload, config: MarketConfig | None,
                 backend: ExecutionBackend):
        self.backend = backend
        self.market = MarketCoordinator(workload, config)
        self._report: MarketReport | None = None

    def run(self) -> MarketReport:
        """Run the market to quiescence (once) and return its report."""
        if self._report is None:
            self._report = self.backend.execute(self)
        return self._report

    def report(self) -> MarketReport:
        """The run's report (runs the market if it has not run yet)."""
        return self.run()


def open_market(
    workload,
    config: MarketConfig | None = None,
    backend: str | ExecutionBackend = "inline",
) -> MarketHandle:
    """Open one market over ``workload`` and pick its execution backend.

    The public entry point of :mod:`repro.market`::

        from repro.market import open_market
        report = open_market(MarketWorkload(profile)).run()

    ``backend`` is ``"inline"`` (default: everything in-process),
    ``"processes"`` (signature checks on one forked worker per shard;
    same bytes), or an :class:`ExecutionBackend` instance.
    """
    if isinstance(backend, str):
        try:
            backend = _BACKENDS[backend]()
        except KeyError:
            raise MarketError(
                f"unknown execution backend {backend!r} "
                f"(expected one of {sorted(_BACKENDS)})"
            ) from None
    return MarketHandle(workload, config, backend)
