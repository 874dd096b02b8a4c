"""Unit tests for deal specifications (Figure 1 / Figure 2)."""

import pytest

from repro.core.deal import Asset, DealSpec, TransferStep, deal_digraph, deal_matrix
from repro.crypto.keys import KeyPair
from repro.errors import MalformedDealError
from repro.workloads.generators import ill_formed_deal, ring_deal
from repro.workloads.scenarios import ticket_broker_deal


@pytest.fixture
def broker():
    return ticket_broker_deal()


class TestSpecStructure:
    def test_paper_example_parameters(self, broker):
        spec, _ = broker
        assert spec.n_parties == 3
        assert spec.m_assets == 2
        assert spec.t_transfers == 4
        assert spec.chains() == ("coinchain", "ticketchain")

    def test_deal_id_content_derived(self, broker):
        spec, _ = broker
        again, _ = ticket_broker_deal()
        assert spec.deal_id == again.deal_id
        different, _ = ticket_broker_deal(retail_price=102)
        assert spec.deal_id != different.deal_id

    def test_nonce_perturbs_deal_id(self):
        a, _ = ticket_broker_deal(nonce=b"1")
        b, _ = ticket_broker_deal(nonce=b"2")
        assert a.deal_id != b.deal_id

    def test_asset_lookup(self, broker):
        spec, _ = broker
        asset = spec.asset("bob-tickets")
        assert not asset.fungible
        assert asset.units() == 2
        with pytest.raises(MalformedDealError):
            spec.asset("nope")

    def test_escrow_contract_names_unique(self, broker):
        spec, _ = broker
        names = {spec.escrow_contract_name(a.asset_id) for a in spec.assets}
        assert len(names) == spec.m_assets


class TestValidation:
    def test_asset_needs_amount_xor_tokens(self):
        owner = KeyPair.from_label("x").address
        with pytest.raises(MalformedDealError):
            Asset(asset_id="a", chain_id="c", token="t", owner=owner)
        with pytest.raises(MalformedDealError):
            Asset(asset_id="a", chain_id="c", token="t", owner=owner,
                  amount=5, token_ids=("x",))

    def test_self_transfer_rejected(self):
        owner = KeyPair.from_label("x").address
        with pytest.raises(MalformedDealError):
            TransferStep(asset_id="a", giver=owner, receiver=owner, amount=5)

    def test_overdraw_rejected(self):
        keys = [KeyPair.from_label(str(i)) for i in range(2)]
        a, b = keys[0].address, keys[1].address
        asset = Asset(asset_id="x", chain_id="c", token="t", owner=a, amount=10)
        with pytest.raises(MalformedDealError):
            DealSpec(
                parties=(a, b),
                assets=(asset,),
                steps=(TransferStep(asset_id="x", giver=a, receiver=b, amount=11),),
            )

    def test_multi_hop_flow_checked(self):
        # B can only pass on what it received.
        keys = [KeyPair.from_label(str(i)) for i in range(3)]
        a, b, c = (kp.address for kp in keys)
        asset = Asset(asset_id="x", chain_id="c", token="t", owner=a, amount=10)
        with pytest.raises(MalformedDealError):
            DealSpec(
                parties=(a, b, c),
                assets=(asset,),
                steps=(
                    TransferStep(asset_id="x", giver=a, receiver=b, amount=5),
                    TransferStep(asset_id="x", giver=b, receiver=c, amount=6),
                ),
            )

    def test_nft_step_must_name_owned_tokens(self):
        keys = [KeyPair.from_label(str(i)) for i in range(2)]
        a, b = keys[0].address, keys[1].address
        asset = Asset(asset_id="x", chain_id="c", token="t", owner=a, token_ids=("t0",))
        with pytest.raises(MalformedDealError):
            DealSpec(
                parties=(a, b),
                assets=(asset,),
                steps=(TransferStep(asset_id="x", giver=a, receiver=b, token_ids=("t9",)),),
            )

    def test_duplicate_parties_rejected(self):
        a = KeyPair.from_label("x").address
        asset = Asset(asset_id="x", chain_id="c", token="t", owner=a, amount=1)
        with pytest.raises(MalformedDealError):
            DealSpec(parties=(a, a), assets=(asset,), steps=())

    def test_unknown_step_asset_rejected(self):
        keys = [KeyPair.from_label(str(i)) for i in range(2)]
        a, b = keys[0].address, keys[1].address
        asset = Asset(asset_id="x", chain_id="c", token="t", owner=a, amount=1)
        with pytest.raises(MalformedDealError):
            DealSpec(
                parties=(a, b),
                assets=(asset,),
                steps=(TransferStep(asset_id="ghost", giver=a, receiver=b, amount=1),),
            )


class TestProjection:
    def test_final_commit_holdings_match_figure_1(self, broker):
        spec, keys = broker
        final = spec.final_commit_holdings()
        alice = keys["alice"].address
        bob = keys["bob"].address
        carol = keys["carol"].address
        assert final["bob-tickets"][carol] == {"ticket-0", "ticket-1"}
        assert final["bob-tickets"][bob] == set()
        assert final["carol-coins"][alice] == 1  # the commission
        assert final["carol-coins"][bob] == 100
        assert final["carol-coins"][carol] == 0

    def test_incoming_outgoing_views(self, broker):
        spec, keys = broker
        alice = keys["alice"].address
        bob = keys["bob"].address
        carol = keys["carol"].address
        # Carol pays 101 coins and receives the tickets.
        assert spec.outgoing(carol) == {"carol-coins": 101}
        assert spec.incoming(carol) == {"bob-tickets": {"ticket-0", "ticket-1"}}
        # Bob gives the tickets and nets 100 coins.
        assert spec.outgoing(bob) == {"bob-tickets": {"ticket-0", "ticket-1"}}
        assert spec.incoming(bob) == {"carol-coins": 100}
        # Alice nets one coin and passes the tickets through.
        assert spec.incoming(alice) == {"carol-coins": 1}
        assert spec.outgoing(alice) == {}


class TestDigraphAndMatrix:
    def test_figure_2_digraph(self, broker):
        spec, keys = broker
        graph = deal_digraph(spec)
        alice = keys["alice"].address
        bob = keys["bob"].address
        carol = keys["carol"].address
        assert set(graph.edges()) == {
            (bob, alice), (alice, carol), (carol, alice), (alice, bob),
        }

    def test_well_formedness_of_paper_example(self, broker):
        spec, _ = broker
        assert spec.is_well_formed()

    def test_free_rider_deal_rejected(self):
        spec, _ = ill_formed_deal()
        assert not spec.is_well_formed()

    def test_ring_is_well_formed(self):
        spec, _ = ring_deal(n=5)
        assert spec.is_well_formed()

    def test_matrix_rows_are_outgoing(self, broker):
        spec, keys = broker
        matrix = deal_matrix(spec)
        alice = keys["alice"].address
        bob = keys["bob"].address
        carol = keys["carol"].address
        assert matrix[(alice, bob)] == ["100 coins"]
        assert matrix[(carol, alice)] == ["101 coins"]
        assert (bob, carol) not in matrix  # tickets go via Alice

    def test_single_party_graph_trivially_connected(self):
        a = KeyPair.from_label("solo").address
        spec = DealSpec(
            parties=(a,),
            assets=(Asset(asset_id="x", chain_id="c", token="t", owner=a, amount=1),),
            steps=(),
        )
        assert spec.is_well_formed()
