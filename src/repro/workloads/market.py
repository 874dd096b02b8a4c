"""Marketplace workload generation for the concurrent deal market.

A :class:`MarketWorkload` produces a deterministic stream of
:class:`~repro.market.order.SignedDealOrder`\\ s — brokered deals,
payment rings, and sealed-outcome auctions — arriving at a
configurable rate over a *shared* pool of accounts and chains, which
is what distinguishes it from :mod:`repro.workloads.generators`: those
builders mint fresh parties and chains per deal, while market deals
contend for the same internal balances and the same block space.

Deals nominate a commit protocol per ``protocol_mix``: the simplified
``unanimity`` flow, the paper's ``timelock`` protocol (§5), or the
``cbc`` protocol (§6) — all three share the same chains, mempools and
account pool.  With ``nft_rate`` set, a slice of the unanimity deals
are NFT ticket sales (seller's unique token against buyer's coins),
and ``nft_double_sell_rate`` makes sellers re-offer tokens they
already put in play, forcing token-id conflicts the book must resolve
first-committed-wins.

Adversaries ride along at configurable rates:

* ``withhold_rate`` — one party of the deal validates but never votes;
  the deal stalls in the voting phase until the scheduler's patience
  (unanimity, CBC) or the timelock terminal deadline aborts it
  (everyone is refunded);
* ``no_show_rate`` — one owner never escrows its asset; the deal
  stalls in the escrow phase (partial escrows are refunded on abort);
* ``forge_rate`` — one signature in the order is over the wrong
  message; whole-block verification must reject the order before any
  step reaches a chain;
* ``stale_proof_rate`` — one party of a CBC deal presents a
  quorum-signed commit proof bound to a stale start hash; the escrow
  contract must reject it;
* contention is implicit: with a small account pool, bounded
  ``initial_balance``, and a high arrival rate, concurrent deals
  overdraw shared internal balances and the losers abort
  (first-committed-wins).

With ``shards = M > 1`` the market clears orders on M coordinator
chains, and ``cross_shard_rate`` forces a slice of the ring/brokered
deals to escrow on chains owned by at least two different shards —
the cross-shard traffic PR 5's acceptance gate measures.  A deal's
*home* shard is still a function of its content hash
(:func:`repro.market.order.shard_of_deal`), so the workload shapes
where escrows live while routing stays the scheduler's affair.

Fee-market congestion (PR 10) rides the same stream: with
``fee_rate`` set, honest deals co-sign a ``fee_bid`` derived from the
§9 cost model (:func:`repro.core.incentives.deal_fee_budget`, scaled
by a per-deal urgency draw), and three adversarial templates press on
the sealing policies:

* ``spam_deals`` — a flood of cheap two-party deals *salt-mined*
  (nonce perturbation) to home on ``spam_shard``, all escrowing on
  that shard's chains at a flat ``spam_fee`` bid: one shard's block
  space congests while the others stay clear;
* ``snipe_rate`` — a slice of brokered deals is shadowed by a
  *fee-sniping* clone: same parties, same assets, same amounts,
  arriving just after the victim with its bid boosted
  ``SNIPE_FEE_BOOST``-fold, so under priority sealing the sniper's
  escrow steps seal first and drain the very balances the victim
  needs mid-protocol;
* ``starve_rate`` — cross-shard starvation rings: every asset lives
  on the congested ``spam_shard``'s chains while the nonce is mined
  to home the deal on a *different* shard — registration clears a
  cheap commit log, then the escrow plan must fight the flood.

All the fee knobs default off, and every new random draw is gated on
its knob and uses fresh stream labels, so the default order stream is
byte-identical to the fee-less market (CI ``cmp``'s exactly that).

All randomness flows through :class:`repro.sim.rng.DeterministicRng`,
so a profile + seed fully determines the order stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.core.deal import (
    PROTOCOL_CBC,
    PROTOCOL_UNANIMITY,
    PROTOCOLS,
    Asset,
    DealSpec,
    TransferStep,
)
from repro.core.incentives import deal_fee_budget
from repro.crypto.keys import Address, KeyPair
from repro.errors import MarketError
from repro.market.order import SignedDealOrder, shard_of_deal, sign_order
from repro.sim.rng import DeterministicRng

# Deal templates, by weight.
TEMPLATE_WEIGHTS = (("ring", 0.5), ("broker", 0.3), ("auction", 0.2))
# An honest fee bid scales the deal's §9 budget by an urgency drawn
# uniformly from this range.
FEE_URGENCY = (0.5, 2.0)
# A fee sniper bids this many times its victim's bid (plus one).
SNIPE_FEE_BOOST = 4.0


def _weighted_pick(rng: DeterministicRng, label: str, weighted, default=None) -> str:
    """One ``rng.random(label)`` draw mapped onto ``(name, weight)`` pairs.

    The last name wins a draw that rounding leaves past every weight;
    ``default`` stands in when there are no pairs.
    """
    pick = rng.random(label) * (sum(weight for _, weight in weighted) or 1.0)
    for name, weight in weighted:
        if pick < weight:
            return name
        pick -= weight
    return weighted[-1][0] if weighted else default


@dataclass(frozen=True)
class MarketProfile:
    """Shape of one market workload (all rates per simulator tick)."""

    deals: int = 200
    chains: int = 4
    accounts: int = 32
    arrival_rate: float = 4.0
    initial_balance: int = 5_000
    amount_lo: int = 50
    amount_hi: int = 400
    withhold_rate: float = 0.03
    no_show_rate: float = 0.02
    forge_rate: float = 0.01
    # Which commit protocol each deal nominates, by weight.
    protocol_mix: tuple = ((PROTOCOL_UNANIMITY, 1.0),)
    # Fraction of each account's balance deposited into the escrow
    # book (unanimity collateral); the rest stays in the wallet for
    # per-deal timelock/CBC escrows.
    book_fund_fraction: float = 1.0
    # NFT ticket sales: tokens minted per account per chain, the slice
    # of unanimity deals that sell a ticket, and how often a seller
    # re-offers a ticket already in play (token-id contention).
    nft_per_account: int = 0
    nft_rate: float = 0.0
    nft_double_sell_rate: float = 0.0
    # CBC deals whose adversary presents a stale commit proof.
    stale_proof_rate: float = 0.0
    # Cross-market sharding: how many coordinator shards clear orders
    # (chain i belongs to shard i % shards; needs shards <= chains),
    # and the slice of ring/brokered deals whose assets are forced to
    # straddle at least two shards' escrow books.  The defaults are
    # the unsharded market, byte-identical to the pre-sharding order
    # stream.
    shards: int = 1
    cross_shard_rate: float = 0.0
    # Fee market (block-space economics) — all default off, keeping
    # the default order stream byte-identical to the fee-less market.
    # fee_rate: the slice of honest deals that co-sign a fee bid
    # (deal_fee_budget of the deal's escrowed value, scaled by an
    # urgency draw in FEE_URGENCY).
    fee_rate: float = 0.0
    # Spam flood: cheap two-party deals salt-mined to home on
    # spam_shard, escrowing on its chains, each bidding spam_fee.
    spam_deals: int = 0
    spam_shard: int = 0
    spam_fee: int = 0
    # Fee sniping: the slice of brokered deals shadowed by a clone
    # arriving just after with SNIPE_FEE_BOOST times the victim's bid.
    snipe_rate: float = 0.0
    # Cross-shard starvation: the slice of ring deals whose assets all
    # live on spam_shard's chains while the deal homes elsewhere.
    starve_rate: float = 0.0
    seed: int = 0

    @staticmethod
    def smoke(seed: int = 0) -> "MarketProfile":
        """Small fixed-seed profile for the tier-1 smoke test."""
        return MarketProfile(
            deals=120, chains=4, accounts=16, arrival_rate=4.0,
            initial_balance=2_000, seed=seed,
        )

    @staticmethod
    def mixed(seed: int = 0, deals: int = 3_900) -> "MarketProfile":
        """The protocol-mix acceptance run: all three commit protocols
        on shared chains, with NFT sales and stale-proof forgers mixed
        in.  Sized so each protocol commits >= 1,000 deals."""
        return MarketProfile(
            deals=deals, chains=4, accounts=48, arrival_rate=6.0,
            initial_balance=9_000,
            protocol_mix=(("unanimity", 1.0), ("timelock", 1.0), ("cbc", 1.0)),
            book_fund_fraction=0.4,
            nft_per_account=6, nft_rate=0.25, nft_double_sell_rate=0.25,
            withhold_rate=0.01, no_show_rate=0.01, forge_rate=0.005,
            stale_proof_rate=0.05, seed=seed,
        )

    @staticmethod
    def mixed_smoke(seed: int = 0) -> "MarketProfile":
        """Small fixed-seed protocol-mix profile (tier-1 smoke)."""
        return MarketProfile.mixed(seed=seed, deals=180)

    @staticmethod
    def headline(seed: int = 0) -> "MarketProfile":
        """The E16 acceptance-scale run: >5,000 commits over 4 chains.

        Balances are sized so that account-level contention actually
        happens (a busy account's balance random-walks low and its
        next escrow conflicts) while the commit rate stays ~94%.
        """
        return MarketProfile(
            deals=5_600, chains=4, accounts=48, arrival_rate=6.0,
            initial_balance=4_500, seed=seed,
        )

    @staticmethod
    def sharded(seed: int = 0, shards: int = 4, deals: int = 5_600) -> "MarketProfile":
        """The PR 5 acceptance run: the headline market split across
        ``shards`` coordinator chains, with a guaranteed slice of
        deals whose escrows straddle shards.  Must commit >= 5,000
        deals at ``shards=4`` with >= 20% cross-shard deals and zero
        conservation violations."""
        return MarketProfile(
            deals=deals, chains=4, accounts=48, arrival_rate=6.0,
            initial_balance=4_500, shards=shards, cross_shard_rate=0.35,
            seed=seed,
        )

    @staticmethod
    def sharded_smoke(seed: int = 0, shards: int = 2) -> "MarketProfile":
        """Small fixed-seed sharded profile (CI determinism leg and
        the quick perf baseline)."""
        return MarketProfile(
            deals=120, chains=4, accounts=16, arrival_rate=4.0,
            initial_balance=2_000, shards=shards, cross_shard_rate=0.35,
            seed=seed,
        )

    @staticmethod
    def congested(
        seed: int = 0, deals: int = 1_600, shards: int = 2, spam_fee: int = 0
    ) -> "MarketProfile":
        """The E19 adversarial fee workload: every honest deal bids its
        §9 fee budget while a spam flood (homed on shard 0, bidding
        ``spam_fee`` — 0 models freeloaders the base-fee policy prices
        out), fee-sniping brokers, and cross-shard starvation rings
        press on the sealing policy.  The clean-adversary rates are
        zeroed so every honest abort is attributable to fee pressure
        or contention."""
        return MarketProfile(
            deals=deals, chains=4, accounts=48, arrival_rate=6.0,
            initial_balance=9_000, shards=shards, cross_shard_rate=0.2,
            withhold_rate=0.0, no_show_rate=0.0, forge_rate=0.0,
            fee_rate=1.0, spam_deals=deals // 4, spam_shard=0,
            spam_fee=spam_fee, snipe_rate=0.1, starve_rate=0.15,
            seed=seed,
        )

    @staticmethod
    def congested_smoke(seed: int = 0, shards: int = 2) -> "MarketProfile":
        """Small fixed-seed congestion profile (tests and --quick)."""
        return MarketProfile.congested(seed=seed, deals=240, shards=shards)

    @staticmethod
    def contended(seed: int = 0) -> "MarketProfile":
        """Deliberately starved balances: frequent escrow conflicts."""
        return MarketProfile(
            deals=300, chains=4, accounts=8, arrival_rate=8.0,
            initial_balance=700, amount_lo=150, amount_hi=400,
            withhold_rate=0.0, no_show_rate=0.0, forge_rate=0.0, seed=seed,
        )


class MarketWorkload:
    """A deterministic order stream plus the market it runs on."""

    def __init__(self, profile: MarketProfile):
        if profile.chains < 1 or profile.accounts < 3 or profile.deals < 1:
            raise MarketError("profile needs >=1 chain, >=3 accounts, >=1 deal")
        for protocol, weight in profile.protocol_mix:
            if protocol not in PROTOCOLS:
                raise MarketError(f"unknown protocol {protocol!r} in mix")
            if weight < 0:
                raise MarketError("protocol weights must be non-negative")
        if profile.nft_rate > 0 and profile.nft_per_account < 1:
            raise MarketError("nft_rate needs nft_per_account >= 1")
        if not 0.0 <= profile.book_fund_fraction <= 1.0:
            raise MarketError("book_fund_fraction must be in [0, 1]")
        if profile.shards < 1 or profile.shards > profile.chains:
            raise MarketError("shards must be in [1, chains]")
        if not 0.0 <= profile.cross_shard_rate <= 1.0:
            raise MarketError("cross_shard_rate must be in [0, 1]")
        for name in ("fee_rate", "snipe_rate", "starve_rate"):
            if not 0.0 <= getattr(profile, name) <= 1.0:
                raise MarketError(f"{name} must be in [0, 1]")
        if profile.spam_deals < 0 or profile.spam_fee < 0:
            raise MarketError("spam_deals and spam_fee must be non-negative")
        if (profile.spam_deals > 0 or profile.starve_rate > 0) and not (
            0 <= profile.spam_shard < profile.shards
        ):
            raise MarketError("spam_shard must name one of the shards")
        if profile.starve_rate > 0 and profile.shards < 2:
            raise MarketError("starvation rings need shards >= 2")
        self.profile = profile
        self.seed = profile.seed
        self.book_fund_fraction = profile.book_fund_fraction
        self.shards = profile.shards
        self.chain_ids = tuple(f"mchain{c}" for c in range(profile.chains))
        # Chain i belongs to shard i % shards (the scheduler derives
        # the same map); the cross-shard templates draw from it.
        self._shard_chains: dict[int, list[str]] = {
            shard: [
                chain_id
                for index, chain_id in enumerate(self.chain_ids)
                if index % profile.shards == shard
            ]
            for shard in range(profile.shards)
        }
        self.tokens = {chain_id: f"mcoin{c}" for c, chain_id in enumerate(self.chain_ids)}
        self.initial_balance = profile.initial_balance
        self.accounts: dict[Address, KeyPair] = {}
        self._labels: dict[Address, str] = {}
        for i in range(profile.accounts):
            keypair = KeyPair.from_label(f"market/{profile.seed}/acct{i}")
            self.accounts[keypair.address] = keypair
            self._labels[keypair.address] = f"acct{i}"
        self._addresses = list(self.accounts)
        self._rng = DeterministicRng(f"market/{profile.seed}")
        # NFT ticket manifest: one NFT contract per chain, a fixed set
        # of token ids per account, and a per-seller pool the sale
        # template draws from (re-draws model double-sells).
        self.nft_tokens: dict[str, str] = {}
        self.nft_minted: dict[str, tuple] = {}
        self._nft_pools: dict[tuple[str, Address], list[str]] = {}
        self._nft_offered: dict[tuple[str, Address], list[str]] = {}
        if profile.nft_per_account > 0:
            for c, chain_id in enumerate(self.chain_ids):
                token = f"mticket{c}"
                self.nft_tokens[chain_id] = token
                minted = []
                for i, address in enumerate(self._addresses):
                    pool = [
                        f"tkt{c}-a{i}-{k}" for k in range(profile.nft_per_account)
                    ]
                    minted.extend((token_id, address) for token_id in pool)
                    self._nft_pools[(chain_id, address)] = pool
                    self._nft_offered[(chain_id, address)] = []
                self.nft_minted[chain_id] = tuple(minted)

    # ------------------------------------------------------------------
    # Order stream
    # ------------------------------------------------------------------
    @cached_property
    def _orders(self) -> tuple[SignedDealOrder, ...]:
        profile = self.profile
        rng = self._rng
        protocol_weights = [(p, w) for p, w in profile.protocol_mix if w > 0]
        orders = []
        snipes: list[tuple[DealSpec, float, int]] = []
        clock = 0.0
        for index in range(profile.deals):
            clock += -math.log(1.0 - rng.random("arrivals")) / profile.arrival_rate
            protocol = _weighted_pick(rng, "protocol", protocol_weights, PROTOCOL_UNANIMITY)
            if (
                protocol == PROTOCOL_UNANIMITY
                and self.nft_tokens
                and rng.random("nft") < profile.nft_rate
            ):
                spec = self._nft_sale_spec(index)
            else:
                template = _weighted_pick(rng, "template", TEMPLATE_WEIGHTS)
                # A sharded market guarantees a slice of deals whose
                # escrows straddle >= 2 shards' books (ring/brokered
                # templates only; the unsharded market never draws
                # from the cross-shard streams, keeping its order
                # stream byte-identical).
                cross = (
                    self.shards > 1
                    and template in ("ring", "broker")
                    and rng.random("cross-shard") < profile.cross_shard_rate
                )
                starve = (
                    template == "ring"
                    and profile.starve_rate > 0
                    and rng.random("starve") < profile.starve_rate
                )
                if template == "ring":
                    spec = self._ring_spec(index, protocol, cross, starve)
                elif template == "broker":
                    spec = self._broker_spec(index, protocol, cross=cross)
                else:
                    spec = self._auction_spec(index, protocol)
            withhold_votes: frozenset = frozenset()
            no_show: frozenset = frozenset()
            forge: frozenset = frozenset()
            stale_proof: frozenset = frozenset()
            if rng.random("withhold") < profile.withhold_rate:
                withhold_votes = frozenset({rng.choice("withhold-pick", list(spec.parties))})
            elif rng.random("no-show") < profile.no_show_rate:
                owners = sorted({asset.owner for asset in spec.assets})
                no_show = frozenset({rng.choice("no-show-pick", owners)})
            elif rng.random("forge") < profile.forge_rate:
                forge = frozenset({rng.choice("forge-pick", list(spec.parties))})
            if (
                spec.protocol == PROTOCOL_CBC
                and rng.random("stale-proof") < profile.stale_proof_rate
            ):
                stale_proof = frozenset(
                    {rng.choice("stale-proof-pick", list(spec.parties))}
                )
            # Honest fee bid: the §9 budget of the deal's escrowed
            # value, scaled by a per-deal urgency draw.  Gated on
            # fee_rate and drawn from fresh labels, so fee-less
            # profiles produce the exact historical stream.
            fee_bid = 0
            if profile.fee_rate > 0 and rng.random("fee") < profile.fee_rate:
                urgency = rng.uniform("fee-urgency", *FEE_URGENCY)
                value = sum(asset.amount for asset in spec.assets)
                fee_bid = deal_fee_budget(len(spec.steps), value, urgency)
            if (
                profile.snipe_rate > 0
                and spec.assets
                and spec.assets[0].asset_id == "goods"
                and rng.random("snipe") < profile.snipe_rate
            ):
                snipes.append((spec, clock, fee_bid))
            orders.append(
                sign_order(
                    spec,
                    self.accounts,
                    arrival=clock,
                    index=index,
                    withhold_votes=withhold_votes,
                    no_show=no_show,
                    forge=forge,
                    stale_proof=stale_proof,
                    fee_bid=fee_bid,
                )
            )
        extra_index = profile.deals
        # Fee-sniping brokers: a clone of the victim deal — same
        # parties, same assets, same amounts — arriving just behind it
        # with a boosted bid.  Under priority sealing the sniper's
        # escrow steps clear first and drain the balances the victim's
        # plan needs mid-protocol; the victim aborts on conflict.
        for victim_spec, victim_arrival, victim_fee in snipes:
            sniper_fee = int(max(victim_fee, 1) * SNIPE_FEE_BOOST) + 1
            spec = self._spec(
                victim_spec.parties,
                victim_spec.assets,
                victim_spec.steps,
                extra_index,
                victim_spec.protocol,
            )
            orders.append(
                sign_order(
                    spec,
                    self.accounts,
                    arrival=victim_arrival + 0.1,
                    index=extra_index,
                    fee_bid=sniper_fee,
                )
            )
            extra_index += 1
        # Spam flood: cheap two-party deals homed (by salt-mining) on
        # spam_shard, escrowing on its chains, all landing in the
        # first half of the honest arrival window.
        window = max(clock, 1.0) * 0.5
        for _ in range(profile.spam_deals):
            spec = self._spam_spec(extra_index)
            orders.append(
                sign_order(
                    spec,
                    self.accounts,
                    arrival=rng.uniform("spam-arrival", 0.0, window),
                    index=extra_index,
                    fee_bid=profile.spam_fee,
                )
            )
            extra_index += 1
        return tuple(orders)

    def orders(self) -> tuple[SignedDealOrder, ...]:
        """The full deterministic order stream, in arrival order."""
        return self._orders

    # ------------------------------------------------------------------
    # Deal templates (all fungible, over the shared account pool)
    # ------------------------------------------------------------------
    def _pick_parties(self, count: int, tag: str) -> list[Address]:
        pool = self._rng.shuffle(f"parties/{tag}", self._addresses)
        return pool[:count]

    def _amount(self, tag: str) -> int:
        return self._rng.randint(tag, self.profile.amount_lo, self.profile.amount_hi)

    def _chain_for(self, tag: str) -> str:
        return self._rng.choice(tag, list(self.chain_ids))

    def _chain_in_shard(self, tag: str, shard: int) -> str:
        return self._rng.choice(tag, self._shard_chains[shard])

    def _shard_spread(self, tag: str, count: int) -> list[int]:
        """``count`` shard picks guaranteed to cover >= 2 shards."""
        spread = self._rng.shuffle(tag, list(range(self.shards)))
        return [spread[i % len(spread)] for i in range(count)]

    def _spec(
        self, parties, assets, steps, index: int,
        protocol: str = PROTOCOL_UNANIMITY, shard: int | None = None,
    ) -> DealSpec:
        """Deal ``index`` over the shared accounts.

        With ``shard``, its *home* shard is forced by salt-mining the
        nonce (salt 0 is the plain nonce).  The home shard is a
        function of the deal id (a content hash), so the only way a
        workload can aim a deal at a shard is to perturb the nonce
        until the hash routes there — the same technique the test
        utilities use.  Expected tries = shards; the bound is a safety
        net, not a budget.
        """
        base = f"market/{self.profile.seed}/deal{index}"
        labels = {p: self._labels[p] for p in parties}
        for salt in range(8192):
            spec = DealSpec(
                parties=tuple(parties),
                assets=tuple(assets),
                steps=tuple(steps),
                labels=labels,
                nonce=(base if salt == 0 else f"{base}/s{salt}").encode("utf-8"),
                protocol=protocol,
            )
            if shard is None or shard_of_deal(spec.deal_id, self.shards) == shard:
                return spec
        raise MarketError(  # pragma: no cover - 2^-8192 per deal
            f"could not mine deal {index} onto shard {shard}"
        )

    def _spam_spec(self, index: int) -> DealSpec:
        """One spam-flood deal: a cheap two-party swap confined to the
        congested shard's chains and salt-mined to home there too, so
        both its order flow and its escrow steps bid for that shard's
        block space."""
        a, b = self._pick_parties(2, f"spam{index}")
        shard = self.profile.spam_shard
        chain_id = self._chain_in_shard("spam-chain", shard)
        amount = self._rng.randint("spam-amount", 1, max(1, self.profile.amount_lo))
        assets = [
            Asset(asset_id="spam0", chain_id=chain_id,
                  token=self.tokens[chain_id], owner=a, amount=amount),
            Asset(asset_id="spam1", chain_id=chain_id,
                  token=self.tokens[chain_id], owner=b, amount=amount),
        ]
        steps = [
            TransferStep(asset_id="spam0", giver=a, receiver=b, amount=amount),
            TransferStep(asset_id="spam1", giver=b, receiver=a, amount=amount),
        ]
        return self._spec([a, b], assets, steps, index, PROTOCOL_UNANIMITY, shard)

    def _nft_sale_spec(self, index: int) -> DealSpec:
        """A ticket sale: seller's unique token against buyer's coins.

        With probability ``nft_double_sell_rate`` the seller re-offers
        a ticket already put in play by an earlier order — if that
        earlier deal is still open (or committed the ticket away), the
        book rejects this deal's lock and it aborts with a conflict.
        """
        seller, buyer = self._pick_parties(2, f"nft{index}")
        ticket_chain = self._chain_for("nft-ticket-chain")
        coin_chain = self._chain_for("nft-coin-chain")
        pool = self._nft_pools[(ticket_chain, seller)]
        offered = self._nft_offered[(ticket_chain, seller)]
        fresh = [tid for tid in pool if tid not in offered]
        double_sell = (
            bool(offered)
            and self._rng.random("nft-double-sell")
            < self.profile.nft_double_sell_rate
        )
        if double_sell or not fresh:
            token_id = self._rng.choice("nft-pick-offered", offered)
        else:
            token_id = self._rng.choice("nft-pick-fresh", fresh)
            offered.append(token_id)
        price = self._amount("nft-price")
        assets = [
            Asset(asset_id="ticket", chain_id=ticket_chain,
                  token=self.nft_tokens[ticket_chain], owner=seller,
                  token_ids=(token_id,)),
            Asset(asset_id="payment", chain_id=coin_chain,
                  token=self.tokens[coin_chain], owner=buyer, amount=price),
        ]
        steps = [
            TransferStep(asset_id="ticket", giver=seller, receiver=buyer,
                         token_ids=(token_id,)),
            TransferStep(asset_id="payment", giver=buyer, receiver=seller,
                         amount=price),
        ]
        return self._spec([seller, buyer], assets, steps, index)

    def _ring_spec(
        self, index: int, protocol: str, cross: bool, starve: bool
    ) -> DealSpec:
        """Party *i* pays party *i+1* around a cycle of 2-4 accounts.

        With ``cross`` the ring's assets are spread over >= 2 shards'
        chains, making the deal cross-shard by construction.  With
        ``starve`` (cross-shard starvation, which overrides ``cross``)
        every escrow lives on ``spam_shard``'s chains — the ones the
        spam flood congests — while the nonce is mined to home the deal
        on the *next* shard: registration clears a cheap commit log,
        then the escrow plan must fight the flood.  The E19 gate checks
        these deals still terminate cleanly.
        """
        spam_shard = self.profile.spam_shard
        n = min(self._rng.randint("ring-n", 2, 4), len(self._addresses))
        parties = self._pick_parties(n, f"ring{index}")
        ring_shards = (
            self._shard_spread("ring-shards", n) if cross and not starve else None
        )
        assets, steps = [], []
        for i, party in enumerate(parties):
            if starve:
                chain_id = self._chain_in_shard("starve-chain", spam_shard)
            elif ring_shards is not None:
                chain_id = self._chain_in_shard("ring-chain-x", ring_shards[i])
            else:
                chain_id = self._chain_for("ring-chain")
            amount = self._amount("ring-amount")
            asset_id = f"ring{i}"
            assets.append(Asset(
                asset_id=asset_id, chain_id=chain_id,
                token=self.tokens[chain_id], owner=party, amount=amount,
            ))
            steps.append(TransferStep(
                asset_id=asset_id, giver=party,
                receiver=parties[(i + 1) % n], amount=amount,
            ))
        home = (spam_shard + 1) % self.shards if starve else None
        return self._spec(parties, assets, steps, index, protocol, home)

    def _broker_spec(
        self, index: int, protocol: str = PROTOCOL_UNANIMITY,
        cross: bool = False,
    ) -> DealSpec:
        """Figure 1's shape: seller -> broker -> buyer, margin kept.

        With ``cross`` the goods and the payment are escrowed on
        chains owned by two different shards.
        """
        seller, broker, buyer = self._pick_parties(3, f"broker{index}")
        if cross:
            goods_shard, coin_shard = self._shard_spread("broker-shards", 2)
            goods_chain = self._chain_in_shard("broker-goods-chain-x", goods_shard)
            coin_chain = self._chain_in_shard("broker-coin-chain-x", coin_shard)
        else:
            goods_chain = self._chain_for("broker-goods-chain")
            coin_chain = self._chain_for("broker-coin-chain")
        price = self._amount("broker-price")
        margin = max(1, price // 10)
        goods = self._amount("broker-goods")
        assets = [
            Asset(asset_id="goods", chain_id=goods_chain,
                  token=self.tokens[goods_chain], owner=seller, amount=goods),
            Asset(asset_id="payment", chain_id=coin_chain,
                  token=self.tokens[coin_chain], owner=buyer,
                  amount=price + margin),
        ]
        steps = [
            TransferStep(asset_id="goods", giver=seller, receiver=broker, amount=goods),
            TransferStep(asset_id="goods", giver=broker, receiver=buyer, amount=goods),
            TransferStep(asset_id="payment", giver=buyer, receiver=broker,
                         amount=price + margin),
            TransferStep(asset_id="payment", giver=broker, receiver=seller,
                         amount=price),
        ]
        return self._spec([seller, broker, buyer], assets, steps, index, protocol)

    def _auction_spec(self, index: int, protocol: str = PROTOCOL_UNANIMITY) -> DealSpec:
        """A resolved auction: winner pays, seller delivers, loser refunded.

        The losing bidder escrows its bid but no step touches it, so it
        returns to the bidder on commit — the deal digraph drops the
        isolated vertex, keeping the deal well-formed (§5.1).
        """
        seller, bidder_a, bidder_b = self._pick_parties(3, f"auction{index}")
        lot_chain = self._chain_for("auction-lot-chain")
        bid_a = self._amount("auction-bid-a")
        bid_b = self._amount("auction-bid-b")
        winner, loser = (bidder_a, bidder_b) if bid_a >= bid_b else (bidder_b, bidder_a)
        winning_bid, losing_bid = max(bid_a, bid_b), min(bid_a, bid_b)
        lot = self._amount("auction-lot")
        win_chain = self._chain_for("auction-win-chain")
        lose_chain = self._chain_for("auction-lose-chain")
        assets = [
            Asset(asset_id="lot", chain_id=lot_chain,
                  token=self.tokens[lot_chain], owner=seller, amount=lot),
            Asset(asset_id="winning-bid", chain_id=win_chain,
                  token=self.tokens[win_chain], owner=winner, amount=winning_bid),
            Asset(asset_id="losing-bid", chain_id=lose_chain,
                  token=self.tokens[lose_chain], owner=loser, amount=losing_bid),
        ]
        steps = [
            TransferStep(asset_id="lot", giver=seller, receiver=winner, amount=lot),
            TransferStep(asset_id="winning-bid", giver=winner, receiver=seller,
                         amount=winning_bid),
        ]
        return self._spec([seller, winner, loser], assets, steps, index, protocol)
