"""Cross-commit byte identity of the per-deal path.

``tests/market/test_golden_reports.py`` pins the market; these digests
pin one deal at a time: :class:`DealExecutor` under every commit
protocol (committing and aborting), the swap and 2PC baselines, the
watchtower-covered offline window, the PoW log's fake-proof attacker,
and E11's report, which prints all three executors side by side.  Each digest covers the holdings before and after the run and,
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
from repro.adversary.mining import PowFakeProofParty
from repro.adversary.strategies import NoVoteParty
from repro.analysis.sweep import run_deal
from repro.baselines.swap import SwapExecutor, SwapParty
from repro.baselines.two_phase_commit import TwoPhaseCommitExecutor
from repro.core.config import ProofKind, ProtocolKind
from repro.core.executor import auto_config
from repro.core.parties import CompliantParty
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


def _deal(kind, config_kwargs=(), **executor_kwargs) -> str:
    spec, keys = ticket_broker_deal()
    config = auto_config(spec, kind, **dict(config_kwargs))
    result = run_deal(spec, keys, kind, seed=3, config=config, **executor_kwargs)
    return _digest(
        result.initial_holdings, result.final_holdings, _receipt_rows(result.receipts)
    )


def _deviant(label: str, party_class):
    """A party factory: ``label`` plays ``party_class``, the rest comply."""
    return lambda keypair, name: (party_class if name == label else CompliantParty)(
        keypair, name
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
    # Recorded at the commit before both certified logs shared one
    # party-facing interface: the §6.2 fake-proof attacker, a block
    # proof across a validator handover, and both logs' abort paths.
    "cbc_pow_fake_proof": (
        lambda: _deal(
            ProtocolKind.CBC_POW,
            party_factory=_deviant("bob", PowFakeProofParty.wrap(CompliantParty)),
        ),
        "e74531dca8f8dfdec95fa64cc48a48272d8b7e80266ab20777808b14c3e78901",
    ),
    "cbc_block_proof_handover": (
        lambda: _deal(
            ProtocolKind.CBC,
            config_kwargs={"proof_kind": ProofKind.BLOCK_PROOF},
            reconfigurations=1,
        ),
        "7dbbeeae7edeac6c81e7780a28960eb8ffbdfc40514e09574eea63b11086b620",
    ),
    "cbc_patience_abort": (
        lambda: _deal(ProtocolKind.CBC, party_factory=_deviant("carol", NoVoteParty)),
        "54db58d6db73aad1351a846f3dbdfdb952bbabc5215ca9aa75f8c71480f617b8",
    ),
    "cbc_pow_abort": (
        lambda: _deal(ProtocolKind.CBC_POW, party_factory=_deviant("carol", NoVoteParty)),
        "e3df9f75fd3bf62acc89af6f9456e56a81f424bc22c10dcc7275f3eb9ae3c39c",
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
