"""Property-based tests for deal-spec invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.deal import Asset, DealSpec, TransferStep, deal_digraph, deal_matrix
from repro.crypto.keys import KeyPair
from repro.workloads.generators import (
    brokered_deal,
    clique_deal,
    random_well_formed_deal,
    ring_deal,
)


@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=2, max_value=7),
       extra=st.integers(min_value=0, max_value=5))
@settings(max_examples=50, deadline=None)
def test_generated_deals_are_well_formed(seed, n, extra):
    spec, keys = random_well_formed_deal(seed=seed, n=n, extra_assets=extra)
    assert spec.is_well_formed()
    assert spec.n_parties == n
    assert len(keys) == n


@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=2, max_value=7))
@settings(max_examples=30, deadline=None)
def test_value_conservation_under_commit(seed, n):
    # The projected commit state conserves every asset exactly.
    spec, _ = random_well_formed_deal(seed=seed, n=n, extra_assets=3)
    final = spec.final_commit_holdings()
    for asset in spec.assets:
        per_party = final[asset.asset_id]
        if asset.fungible:
            assert sum(per_party.values()) == asset.amount
            assert all(amount >= 0 for amount in per_party.values())
        else:
            owned = [ids for ids in per_party.values()]
            union = set().union(*owned) if owned else set()
            assert union == set(asset.token_ids)
            # No token owned twice.
            total = sum(len(ids) for ids in owned)
            assert total == len(asset.token_ids)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_matrix_and_digraph_agree(seed):
    spec, _ = random_well_formed_deal(seed=seed, n=5, extra_assets=2)
    matrix = deal_matrix(spec)
    graph = deal_digraph(spec)
    arcs = {(giver, receiver) for giver, receivers in graph.items()
            for receiver in receivers}
    assert set(matrix) == arcs


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_deal_id_stable_and_content_sensitive(seed):
    a, _ = random_well_formed_deal(seed=seed)
    b, _ = random_well_formed_deal(seed=seed)
    c, _ = random_well_formed_deal(seed=seed + 1)
    assert a.deal_id == b.deal_id
    assert a.deal_id != c.deal_id


@given(n=st.integers(min_value=2, max_value=8))
@settings(max_examples=10, deadline=None)
def test_family_shapes(n):
    ring, _ = ring_deal(n=n)
    assert ring.t_transfers == n
    clique, _ = clique_deal(n=n)
    assert clique.t_transfers == n * (n - 1)
    brokered, _ = brokered_deal(pairs=max(1, n // 2))
    assert brokered.is_well_formed()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_incoming_outgoing_consistency(seed):
    # Summed over parties, incoming == outgoing per fungible asset.
    spec, _ = random_well_formed_deal(seed=seed, n=4, extra_assets=2)
    for asset in spec.assets:
        if not asset.fungible:
            continue
        total_in = sum(
            spec.incoming(party).get(asset.asset_id, 0) for party in spec.parties
        )
        total_out = sum(
            spec.outgoing(party).get(asset.asset_id, 0) for party in spec.parties
        )
        assert total_in == total_out


def _closure_strongly_connected(vertices, arcs) -> bool:
    """Oracle: strong connectivity from the transitive closure
    (Floyd–Warshall reachability over the vertices that carry an arc)."""
    reach = {(u, v): u == v or (u, v) in arcs for u in vertices for v in vertices}
    for k in vertices:
        for u in vertices:
            for v in vertices:
                reach[u, v] = reach[u, v] or (reach[u, k] and reach[k, v])
    return all(reach.values())


def _arc_deal(n_parties, arcs):
    """A deal on ``n_parties`` whose digraph has exactly ``arcs``: every
    party escrows coins and each arc moves one of the giver's coins."""
    parties = tuple(KeyPair.from_label(f"p{i}").address for i in range(n_parties))
    assets = tuple(
        Asset(asset_id=f"a{i}", chain_id="c", token="coin", owner=party,
              amount=n_parties)
        for i, party in enumerate(parties)
    )
    steps = tuple(
        TransferStep(asset_id=f"a{giver}", giver=parties[giver],
                     receiver=parties[receiver], amount=1)
        for giver, receiver in arcs
    )
    return DealSpec(parties=parties, assets=assets, steps=steps), parties


@st.composite
def arc_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, arcs


@given(case=arc_lists())
@example(case=(1, []))
@example(case=(4, [(0, 1), (1, 0)]))  # two isolated parties
@example(case=(4, [(0, 1), (1, 2), (2, 3)]))  # one-way chain
@example(case=(3, [(0, 1), (1, 2), (2, 0)]))  # ring
@example(case=(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]))  # two disjoint cycles
@example(case=(6, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]))  # cycles joined one way
@settings(max_examples=200, deadline=None)
def test_strong_connectivity_matches_transitive_closure(case):
    n, arcs = case
    spec, parties = _arc_deal(n, arcs)
    graph = deal_digraph(spec)
    named = {(parties[u], parties[v]) for u, v in arcs}
    assert {(g, r) for g, receivers in graph.items() for r in receivers} == named
    vertices = {party for arc in named for party in arc}
    assert set(graph) == vertices
    assert spec.is_well_formed() == _closure_strongly_connected(vertices, named)
