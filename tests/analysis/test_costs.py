"""Tests for gas-cost accounting and the §7.1 cost model."""

import pytest

from repro.analysis.costs import (
    CostModel,
    commit_signature_verifications,
    gas_by_contract,
    phase_operation_counts,
)
from repro.analysis.sweep import run_deal
from repro.core.config import ProtocolKind
from repro.workloads.generators import random_well_formed_deal, ring_deal
from repro.workloads.scenarios import ticket_broker_deal


@pytest.fixture(scope="module")
def timelock_result():
    spec, keys = ticket_broker_deal()
    return run_deal(spec, keys, ProtocolKind.TIMELOCK)


@pytest.fixture(scope="module")
def cbc_result():
    spec, keys = ticket_broker_deal(nonce=b"cbc")
    return run_deal(spec, keys, ProtocolKind.CBC, validators_f=1)


def test_phase_counts_present(timelock_result):
    counts = phase_operation_counts(timelock_result)
    assert {"escrow", "transfer", "commit"} <= set(counts)
    assert counts["escrow"]["sstore"] > 0
    assert counts["escrow"]["sig_verify"] == 0  # §7.1: escrow verifies nothing
    assert counts["transfer"]["sig_verify"] == 0
    assert counts["commit"]["sig_verify"] > 0


def test_gas_by_contract_covers_escrows(timelock_result):
    per_contract = gas_by_contract(timelock_result)
    spec = timelock_result.spec
    for asset in spec.assets:
        assert spec.escrow_contract_name(asset.asset_id) in per_contract


def test_commit_sigver_extraction(timelock_result):
    total = commit_signature_verifications(timelock_result)
    assert total == timelock_result.gas_by_phase()["commit"].sig_verify


class TestCostModel:
    def test_write_counts(self):
        model = CostModel(n=3, m=2, t=4)
        assert model.escrow_writes() == 8
        assert model.transfer_writes() == 8

    def test_timelock_bounds(self, timelock_result):
        spec = timelock_result.spec
        model = CostModel(n=spec.n_parties, m=spec.m_assets, t=spec.t_transfers)
        measured = commit_signature_verifications(timelock_result)
        assert measured <= model.timelock_commit_sig_upper()

    def test_cbc_exact(self, cbc_result):
        spec = cbc_result.spec
        model = CostModel(n=spec.n_parties, m=spec.m_assets, t=spec.t_transfers, f=1)
        measured = commit_signature_verifications(cbc_result)
        assert measured == model.cbc_commit_sig()  # m(2f+1), exactly

    def test_crossover_predicate(self):
        # 2f+1 > n^2: CBC more expensive per asset.
        assert CostModel(n=2, m=1, t=1, f=3).crossover_holds()  # 7 > 4
        assert not CostModel(n=3, m=1, t=1, f=3).crossover_holds()  # 7 < 9

    def test_reconfiguration_multiplier(self):
        base = CostModel(n=3, m=2, t=4, f=1)
        reconfigured = CostModel(n=3, m=2, t=4, f=1, reconfigurations=2)
        assert reconfigured.cbc_commit_sig() == 3 * base.cbc_commit_sig()


def test_ring_timelock_matches_triangular_path_costs():
    # On a ring, contract i accepts votes with path lengths 1..n, so
    # per-contract verifications are exactly n(n+1)/2.
    n = 5
    spec, keys = ring_deal(n=n)
    result = run_deal(spec, keys, ProtocolKind.TIMELOCK)
    assert result.all_committed()
    total = commit_signature_verifications(result)
    assert total == n * (n * (n + 1) // 2)


@pytest.mark.parametrize(
    "kind, options, expected",
    [(ProtocolKind.TIMELOCK, {}, 48), (ProtocolKind.CBC, {"validators_f": 1}, 18)],
)
def test_commit_verifications_are_pinned_for_a_fixed_seed_deal(kind, options, expected):
    # Gas is a contract quantity (§7.1): batching a block's signatures
    # or memoising a certificate is wall clock and must not move it.
    # The integers were read at the parent of the PR that added both.
    spec, keys = random_well_formed_deal(seed=2204, n=4, chains=2)
    result = run_deal(spec, keys, kind, **options)
    assert result.all_committed()
    assert commit_signature_verifications(result) == expected
