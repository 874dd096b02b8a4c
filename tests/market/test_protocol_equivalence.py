"""Differential test: a deal settles the same in the market and alone.

The per-deal executor (:func:`repro.analysis.sweep.run_deal`) and the
market (:class:`repro.market.MarketCoordinator`) drive the timelock
and CBC protocols through separate code: the executor casts parties
that forward votes over a network, the market plays the parties itself
from a signed order.  Both model the same deal, so on the same spec
they must agree on what the paper judges — the outcome, each asset's
final :class:`~repro.core.escrow.EscrowState`, and every party's net
credit per (chain, token) — honest and under the two deviations both
paths model: a withheld vote and an owner who never escrows.

Small fungible :func:`random_well_formed_deal`\\ s are mapped onto a
:class:`HandWorkload`'s accounts (``mchain*`` chains, ``mcoin*``
tokens, nothing funded into the books), so the market run holds the
one deal and nothing else.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from market_test_utils import HandWorkload
from repro.adversary.strategies import NoVoteParty, WalkAwayParty
from repro.analysis.sweep import run_deal
from repro.core.config import ProtocolKind
from repro.core.deal import DealSpec
from repro.market import DealPhase, MarketConfig, MarketCoordinator
from repro.market.order import sign_order
from repro.workloads.generators import random_well_formed_deal

CHAINS = 2
CASES = [(seed, n) for seed in range(4) for n in (2, 3)]

# deviation -> (order knob, executor party class), both cast on one party.
DEVIATIONS = {
    "honest": (None, None),
    "withheld-vote": ("withhold_votes", NoVoteParty),
    "no-show": ("no_show", WalkAwayParty),
}


def _workload(n: int, orders_builder=lambda wl: []) -> HandWorkload:
    return HandWorkload(orders_builder, accounts=n, chains=CHAINS,
                        book_fund_fraction=0)


def _mapped_deal(seed: int, n: int, protocol: str):
    """The seed's random deal over a HandWorkload's accounts."""
    wl = _workload(n)
    spec, keys = random_well_formed_deal(
        seed=seed, n=n, extra_assets=seed % 3, chains=CHAINS, max_amount=100
    )
    party = {keys[f"p{i}"].address: wl.labels[i] for i in range(n)}
    chain = {f"chain{c}": wl.chain_ids[c] for c in range(CHAINS)}
    assets = tuple(
        replace(asset, chain_id=chain[asset.chain_id],
                token=wl.tokens[chain[asset.chain_id]],
                owner=party[asset.owner])
        for asset in spec.assets
    )
    steps = tuple(
        replace(step, giver=party[step.giver], receiver=party[step.receiver])
        for step in spec.steps
    )
    mapped = DealSpec(
        parties=tuple(party[p] for p in spec.parties),
        assets=assets,
        steps=steps,
        labels={wl.labels[i]: f"p{i}" for i in range(n)},
        nonce=f"equivalence/{seed}/{n}".encode(),
        protocol=protocol,
    )
    labelled = {f"p{i}": wl.accounts[wl.labels[i]] for i in range(n)}
    return mapped, labelled


def _nonzero(credits: dict) -> dict:
    return {key: value for key, value in credits.items() if value}


def _in_market(spec: DealSpec, order_knobs: dict):
    wl = _workload(
        len(spec.parties),
        lambda wl: [sign_order(spec, wl.accounts, arrival=0.5, **order_knobs)],
    )
    market = MarketCoordinator(wl, MarketConfig())
    report = market.run()
    assert report.invariant_violations == () and report.stuck == 0
    run = market.runs[spec.deal_id]
    outcome = {DealPhase.COMMITTED: "commit", DealPhase.ABORTED: "abort"}[run.phase]
    credits = {
        (chain_id, token.name, party):
            token.peek_balance(party) - wl.initial_balance
        for chain_id, token in market.tokens.items()
        for party in spec.parties
    }
    return outcome, run.driver.escrow_states(), _nonzero(credits)


def _alone(spec: DealSpec, keys: dict, kind: ProtocolKind, strategies: dict):
    result = run_deal(spec, keys, kind, strategies=strategies)
    if result.all_committed():
        outcome = "commit"
    elif result.all_refunded():
        outcome = "abort"
    else:
        outcome = "mixed"
    credits = {
        (chain_id, token, party):
            final[party] - result.initial_holdings[(chain_id, token)][party]
        for (chain_id, token), final in result.final_holdings.items()
        for party in spec.parties
    }
    return outcome, result.escrow_states, _nonzero(credits)


@pytest.mark.parametrize("deviation", sorted(DEVIATIONS))
@pytest.mark.parametrize("kind", [ProtocolKind.TIMELOCK, ProtocolKind.CBC],
                         ids=lambda kind: kind.value)
def test_market_and_executor_settle_a_deal_alike(kind, deviation):
    knob, party_class = DEVIATIONS[deviation]
    outcomes = set()
    for seed, n in CASES:
        spec, keys = _mapped_deal(seed, n, kind.value)
        deviator = seed % n
        order_knobs, strategies = {}, {}
        if knob is not None:
            order_knobs[knob] = frozenset({spec.parties[deviator]})
            strategies[f"p{deviator}"] = party_class
        market = _in_market(spec, order_knobs)
        alone = _alone(spec, keys, kind, strategies)
        assert market == alone, (kind.value, deviation, seed, n)
        outcomes.add(market[0])
    assert outcomes == {"commit" if knob is None else "abort"}
