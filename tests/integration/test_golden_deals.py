"""Cross-commit byte identity of the per-deal path.

``tests/market/test_golden_reports.py`` pins the market; these digests
pin one deal at a time: :class:`DealExecutor` under every commit
protocol, the swap and 2PC baselines, the watchtower-covered offline
window, and E11's report, which prints all three executors side by
side.  Each digest covers the holdings before and after the run and,
per receipt, its method, phase, execution time, status and gas, so a
change to event order, rng draws or block fan-out shows up here as a
mismatch against the recorded commit.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import sys

import pytest

from repro.adversary.dos import offline_window_scenario
from repro.analysis.sweep import run_deal
from repro.baselines.swap import SwapExecutor, SwapParty
from repro.baselines.two_phase_commit import TwoPhaseCommitExecutor
from repro.core.config import ProtocolKind
from repro.crypto.keys import Address
from repro.workloads.generators import ring_deal
from repro.workloads.scenarios import ticket_broker_deal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_e11_swap_baseline  # noqa: E402


def _canon(value):
    """A repr-stable form: mappings and sets sorted, addresses as hex."""
    if isinstance(value, dict):
        return sorted((_canon(key), _canon(item)) for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, Address):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.name
    return value


def _receipt_rows(receipts) -> list:
    return [
        (r.tx.method, r.tx.phase, r.executed_at, r.ok, dataclasses.astuple(r.gas))
        for r in receipts
    ]


def _digest(*parts) -> str:
    return hashlib.sha256(repr(_canon(parts)).encode("utf-8")).hexdigest()


def _deal(kind, **executor_kwargs) -> str:
    spec, keys = ticket_broker_deal()
    result = run_deal(spec, keys, kind, seed=3, **executor_kwargs)
    return _digest(
        result.initial_holdings, result.final_holdings, _receipt_rows(result.receipts)
    )


def _swap(stopper: str | None) -> str:
    spec, keys = ring_deal(n=4)
    parties = [
        SwapParty(kp, label, stop_before_lock=(label == stopper))
        for label, kp in keys.items()
    ]
    result = SwapExecutor(spec, parties, seed=4).run()
    return _digest(
        result.initial_holdings,
        result.final_holdings,
        _receipt_rows(result.receipts),
        result.lock_states,
        result.duration,
    )


def _two_phase_commit(refuse: set[str]) -> str:
    spec, keys = ticket_broker_deal()
    result = TwoPhaseCommitExecutor(spec, keys, seed=5, voters_refuse=refuse).run()
    return _digest(
        result.escrow_states, result.decision, result.duration, _receipt_rows(result.receipts)
    )


def _watchtowers() -> str:
    result = offline_window_scenario(with_watchtowers=True).result
    return _digest(
        result.initial_holdings, result.final_holdings, _receipt_rows(result.receipts)
    )


def _e11_report() -> str:
    return hashlib.sha256(bench_e11_swap_baseline.make_report().encode("utf-8")).hexdigest()


# name -> (run, sha256), recorded at the commit before the per-deal
# substrate was shared between the executor and the baselines.
GOLDEN = {
    "timelock": (lambda: _deal(ProtocolKind.TIMELOCK),
        "c817ba9babfe9347301d493a2b1033e436ec974ff4214f5d93015489a489104f",
    ),
    "cbc": (lambda: _deal(ProtocolKind.CBC),
        "7284e7d90ffb46a913e2c7eeab5194d633bf7ac60d7189f7a59bfdd66f6bdfbb",
    ),
    "cbc_pow": (lambda: _deal(ProtocolKind.CBC_POW),
        "2d5da7061ad8fc7d0f0e2f30ec24dec705b39deac41d37504dab90044928201d",
    ),
    "cbc_gst": (lambda: _deal(ProtocolKind.CBC, gst=5.0),
        "56a7839a338984cbef41fad3587c5d324494bc2ee3b4b2efe2cb08d93e8ffbc3",
    ),
    "swap_ring": (lambda: _swap(None),
        "54f58c8338ea196fa6f23d986429d0b35ac9e2df66025b1bb921dcea86b5f190",
    ),
    "swap_ring_refund": (lambda: _swap("p2"),
        "ae3cc0b9acb800b96f833443698cfccdcc58c9d9021addb3703c0b65250b352a",
    ),
    "2pc_commit": (lambda: _two_phase_commit(set()),
        "3aa36bd96f4ad0a22c2b65eacfca8dde2a433e4e6dcd85a4eab06a1459bdfd33",
    ),
    "2pc_refusal": (lambda: _two_phase_commit({"carol"}),
        "463a97a696356eb7a5fa0a8717924c776f3fc62fdaeff4116ad81c02ab0d1f16",
    ),
    "watchtowers": (_watchtowers,
        "015c09130db68e5b7ea674451818729fcb77a3200ff47af22b51a3bd00bd35da",
    ),
    "e11_report": (_e11_report,
        "db2fdd874ebaf3c879f922648f8fdc44cfa2912609f64f0d786c4f1f1df837ea",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_per_deal_bytes_match_the_recorded_commit(name):
    run, expected = GOLDEN[name]
    assert run() == expected
