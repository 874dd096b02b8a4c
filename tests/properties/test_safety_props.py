"""Property-based safety: random deals × random adversaries.

The strongest form of the reproduction's Theorem 5.1 / §6.1 check:
hypothesis draws a random well-formed deal, a random subset of
deviating parties with random strategies, a random protocol, and a
random seed — and Property 1 plus weak liveness must hold for the
compliant parties every single time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.strategies import ALL_STRATEGIES
from repro.analysis.sweep import run_case
from repro.core.config import ProtocolKind
from repro.workloads.generators import random_well_formed_deal

STRATEGIES = dict(ALL_STRATEGIES)
STRATEGY_NAMES = [name for name, _ in ALL_STRATEGIES if name != "compliant"]


@given(
    deal_seed=st.integers(min_value=0, max_value=500),
    run_seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=2, max_value=5),
    kind=st.sampled_from([ProtocolKind.TIMELOCK, ProtocolKind.CBC]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_property_one_universally(deal_seed, run_seed, n, kind, data):
    spec, keys = random_well_formed_deal(seed=deal_seed, n=n, extra_assets=1)
    deviator_count = data.draw(st.integers(min_value=0, max_value=n - 1))
    labels = sorted(keys)
    deviators = labels[:deviator_count]
    assignment = {
        label: data.draw(st.sampled_from(STRATEGY_NAMES), label=f"strategy-{label}")
        for label in deviators
    }
    strategies = {label: STRATEGIES[name] for label, name in assignment.items()}
    report, _ = run_case(spec, keys, kind, strategies, seed=run_seed)
    assert report.safety_ok, (
        f"deal {deal_seed}, {assignment}, {kind.value}: {report.violations()}"
    )
    assert report.weak_liveness_ok, f"locked assets: {assignment} / {kind.value}"
    if not assignment:
        assert report.strong_liveness_ok, "all compliant but transfers missing"
    if kind is ProtocolKind.CBC:
        assert report.uniform_outcome


@given(
    deal_seed=st.integers(min_value=0, max_value=500),
    run_seed=st.integers(min_value=0, max_value=500),
    kind=st.sampled_from([ProtocolKind.TIMELOCK, ProtocolKind.CBC]),
)
@settings(max_examples=15, deadline=None)
def test_strong_liveness_for_compliant_runs(deal_seed, run_seed, kind):
    spec, keys = random_well_formed_deal(seed=deal_seed, n=4, extra_assets=2)
    report, result = run_case(spec, keys, kind, seed=run_seed)
    assert result.all_committed(), result.escrow_states
    assert report.strong_liveness_ok
