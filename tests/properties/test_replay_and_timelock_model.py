"""§5 replay immunity and a model-checked timelock contract.

The paper: "Since D is effectively a nonce, nothing extra is needed
to guard against replay attacks."  We try the replays: votes (and
whole forwarded paths) from one deal presented to another deal's
contracts, and CBC entries replayed across deals.  All must bounce.

The second half fuzzes the timelock contract with random vote
schedules and checks it against an independent model of Figure 5's
acceptance rule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.ledger import Chain
from repro.chain.tx import Transaction
from repro.core.deal import Asset
from repro.core.escrow import EscrowState
from repro.core.timelock import TimelockEscrow
from repro.crypto.keys import KeyPair, Wallet
from repro.crypto.pathsig import extend_path_signature, sign_vote
from repro.sim.simulator import Simulator

KEYS = [KeyPair.from_label(f"replay-{i}") for i in range(3)]
PLIST = tuple(kp.address for kp in KEYS)
T0 = 100.0
DELTA = 10.0


def make_world(deal_id: bytes):
    simulator = Simulator()
    wallet = Wallet()
    for keypair in KEYS:
        wallet.register(keypair)
    chain = Chain("c", simulator, wallet)
    from repro.chain.tokens import FungibleToken

    token = FungibleToken("coin")
    chain.publish(token)
    asset = Asset(asset_id="a", chain_id="c", token="coin", owner=PLIST[0], amount=10)
    escrow = TimelockEscrow(f"escrow-{deal_id.hex()[:6]}", deal_id, PLIST, asset,
                            t0=T0, delta=DELTA)
    chain.publish(escrow)

    def call(sender, contract, method, **args):
        return chain.execute_now(
            Transaction(sender=sender, contract=contract, method=method, args=args)
        )

    call(PLIST[0], "coin", "mint", to=PLIST[0], amount=10)
    call(PLIST[0], "coin", "approve", spender=escrow.address, amount=10)
    call(PLIST[0], escrow.name, "deposit")
    return simulator, chain, escrow, call


class TestReplayImmunity:
    def test_direct_vote_replay_across_deals_bounces(self):
        _, _, escrow_b, call_b = make_world(b"deal-B" + b"\x00" * 26)
        # A perfectly valid vote... for deal A.
        vote_for_a = sign_vote(KEYS[1], b"deal-A" + b"\x00" * 26)
        receipt = call_b(KEYS[1].address, escrow_b.name, "commit", path=vote_for_a)
        assert not receipt.ok
        assert escrow_b.peek_voted() == set()

    def test_forwarded_path_replay_bounces(self):
        _, _, escrow_b, call_b = make_world(b"deal-B" + b"\x00" * 26)
        path = extend_path_signature(sign_vote(KEYS[2], b"deal-A" + b"\x00" * 26), KEYS[1])
        receipt = call_b(KEYS[1].address, escrow_b.name, "commit", path=path)
        assert not receipt.ok

    def test_cbc_entry_replay_across_deals_dropped(self):
        from repro.consensus.bft import CertifiedBlockchain, DealStatus, LogEntry
        from repro.consensus.validators import ValidatorSet

        simulator = Simulator()
        wallet = Wallet()
        for keypair in KEYS:
            wallet.register(keypair)
        cbc = CertifiedBlockchain(simulator, ValidatorSet.generate(1), wallet)
        deal_a = b"deal-A" + b"\x00" * 26
        deal_b = b"deal-B" + b"\x00" * 26
        for deal_id in (deal_a, deal_b):
            start = LogEntry(kind="startDeal", deal_id=deal_id, party=PLIST[0], plist=PLIST)
            cbc.submit(LogEntry(
                kind=start.kind, deal_id=start.deal_id, party=start.party,
                plist=start.plist, signature=KEYS[0].sign(start.message()),
            ))
        simulator.run()
        # A commit vote for deal A, with its *valid* signature, gets
        # re-targeted at deal B: the signature no longer matches.
        vote_a = LogEntry(kind="commit", deal_id=deal_a, party=PLIST[1],
                          plist=PLIST, start_hash=cbc.definitive_start_hash(deal_a))
        signature = KEYS[1].sign(vote_a.message())
        replayed = LogEntry(kind="commit", deal_id=deal_b, party=PLIST[1],
                            plist=PLIST, start_hash=cbc.definitive_start_hash(deal_b),
                            signature=signature)
        cbc.submit(replayed)
        simulator.run()
        assert not [
            entry for entry in cbc.entries()
            if entry.kind == "commit" and entry.deal_id == deal_b
        ]


# ----------------------------------------------------------------------
# Model-based fuzz of Figure 5's acceptance rule
# ----------------------------------------------------------------------
@st.composite
def vote_schedules(draw):
    """Random (voter, path-suffix, arrival-time) schedules."""
    schedule = []
    count = draw(st.integers(min_value=1, max_value=6))
    for _ in range(count):
        voter = draw(st.integers(min_value=0, max_value=2))
        hops = draw(st.lists(
            st.integers(min_value=0, max_value=2), max_size=2, unique=True,
        ))
        hops = [h for h in hops if h != voter]
        arrival = draw(st.floats(min_value=T0 - 20, max_value=T0 + 4 * DELTA))
        schedule.append((voter, tuple(hops), arrival))
    return schedule


@given(schedule=vote_schedules())
@settings(max_examples=60, deadline=None)
def test_timelock_contract_matches_acceptance_model(schedule):
    deal_id = b"model-deal" + b"\x00" * 22
    simulator, chain, escrow, call = make_world(deal_id)
    # Model state: which voters have an accepted vote.
    model_accepted: set[int] = set()
    model_released = False
    for voter, hops, arrival in sorted(schedule, key=lambda item: item[2]):
        if arrival > simulator.now:
            simulator.schedule_at(arrival, lambda: None)
            simulator.run()
        path = sign_vote(KEYS[voter], deal_id)
        for hop in hops:
            path = extend_path_signature(path, KEYS[hop])
        receipt = call(KEYS[voter].address, escrow.name, "commit", path=path)
        # Independent model of Figure 5.
        path_length = 1 + len(hops)
        on_time = chain.chain_time < T0 + path_length * DELTA
        fresh = voter not in model_accepted
        should_accept = on_time and fresh and not model_released
        assert receipt.ok == should_accept, (voter, hops, arrival, receipt.error)
        if should_accept:
            model_accepted.add(voter)
            if model_accepted == {0, 1, 2}:
                model_released = True
    assert (escrow.peek_state() is EscrowState.RELEASED) == model_released
    assert {i for i in range(3) if PLIST[i] in escrow.peek_voted()} == model_accepted
