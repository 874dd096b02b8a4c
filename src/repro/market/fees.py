"""Block-space economics: fee bids, sealing policies, base-fee control.

The ROADMAP's fee-market axis: real traffic is bursty, skewed, and
adversarially priced, yet a FIFO mempool sells every block slot at the
same (zero) price.  This module prices block space:

* a :class:`FeeLedger` records every admitted deal's co-signed
  ``fee_bid`` (see :func:`repro.market.order.order_message` — the bid
  is folded into the signed manifest, outside the deal id) plus the
  fee accounting of the run: what sealed deals actually paid and which
  deals were priced out of the market entirely;
* :class:`FirstPricePolicy` seals highest-bid-first within the block
  cap — a pay-as-bid priority auction;
* :class:`BaseFeePolicy` is the EIP-1559-style variant: each chain
  carries a *base fee* that rises when blocks run fuller than the
  target occupancy and decays when they run emptier; a step whose deal
  bids under the current base fee goes back to the pending queue until
  the base fee falls to meet it.  A bid that can *never* meet the base
  fee (it is below the base-fee floor, which the decay never crosses)
  is evicted and the deal is *fee-priced-out* — a measured market
  outcome (like §5's sore losers), never a safety violation: the deal
  resolves through the ordinary abort machinery and every escrow
  refunds.

Fees are priority units in the paper's §9 cost-model sense (see
:func:`repro.core.incentives.deal_fee_budget`), not on-chain token
transfers: charging them moves no ledger balance, so every
conservation invariant is policy-independent by construction — which
is exactly the property the E19 gate holds the market to.

**Settlement exemption.**  Abort marks, claims, refunds and other
settlement-plane steps (:data:`EXEMPT_PHASES`) always seal ahead of
fee-priced traffic.  Without the exemption a priced-out deal could
never terminate (its abort would be priced out too); with it, fee
pressure can only cost a deal its *commit*, never its refund — the
"no safety violation under any fee schedule" half of the gate.

:class:`FifoPolicy`, the default, seals in arrival order and charges
and evicts nothing, so a FIFO run's report carries no fee rows.
"""

from __future__ import annotations

from repro.errors import MarketError

#: Sealing policy names accepted by ``MarketConfig.seal_policy``.
SEAL_POLICIES = ("fifo", "first_price", "base_fee")

#: Settlement-plane transaction phases that are never fee-gated: the
#: machinery that terminates a deal (abort marks, decided-claims,
#: timelock refunds/settles, stale-proof presentations) must seal even
#: when the deal's own bid no longer clears the market, or fee
#: pressure could strand escrows.  Votes and escrow/transfer steps
#: stay gated — they are the traffic being priced.
EXEMPT_PHASES = frozenset({
    "market/abort",
    "market/commit-claim",
    "market/abort-claim",
    "market/refund",
    "market/settle",
    "market/stale-proof",
    "market/escrow-approve",
})

#: The market's base-fee controller: every chain starts at the floor,
#: and the fee moves by at most 12.5% per block around half-full blocks
#: (the EIP-1559 constants).
BASE_FEE_INITIAL = 1.0
BASE_FEE_FLOOR = 1.0
BASE_FEE_ADJUST = 0.125
BASE_FEE_TARGET = 0.5


class FeeLedger:
    """Market-wide fee record: bids in, fees accrued out.

    One per market run, shared by the coordinator (which posts each
    admitted order's bid) and every mempool's sealing policy (which
    looks bids up per step and accrues what sealing charged).  The
    total is a deterministic simulation quantity.
    """

    def __init__(self):
        self._bids: dict[bytes, int] = {}
        self.accrued = 0

    def post(self, deal_id: bytes, fee_bid: int) -> None:
        """Record one admitted deal's co-signed fee bid."""
        if fee_bid > 0:
            self._bids[deal_id] = fee_bid

    def bid(self, deal_id: bytes) -> int:
        """The deal's fee bid (0 when it never bid)."""
        return self._bids.get(deal_id, 0)

    def charge(self, amount: int) -> None:
        """Accrue the ``amount`` fee units one sealed step paid."""
        self.accrued += amount


class SealPolicy:
    """How one chain's mempool fills the next block's slots.

    ``select`` consumes the pending queue (arrival order, each step
    stamped with its submission sequence by the mempool) and splits it
    into the sealed ``batch`` (at most ``cap`` steps), the ``leftover``
    that stays pending, and the ``evicted`` steps that will *never*
    seal under this policy.  Implementations must be deterministic
    pure functions of their inputs plus policy-local state — no
    randomness, no wall clock — so reports stay byte-identical across
    job counts and backends.
    """

    name = "?"

    def select(self, pending: list, cap: int) -> tuple[list, list, list]:
        raise NotImplementedError

    def exempt(self, step) -> bool:
        """Settlement-plane steps always seal ahead of priced traffic."""
        return step.tx.phase in EXEMPT_PHASES


class FifoPolicy(SealPolicy):
    """Arrival order within the block cap; nothing is charged or evicted."""

    name = "fifo"

    def select(self, pending: list, cap: int) -> tuple[list, list, list]:
        return pending[:cap], pending[cap:], []


class FirstPricePolicy(SealPolicy):
    """Pay-as-bid priority: highest fee first within the block cap.

    Exempt settlement steps seal first (arrival order), then deal
    traffic by descending bid; ties break by submission sequence, so
    equal bids degrade to exact FIFO.  Sealed deal steps are charged
    their own bid.  Nothing is ever evicted — an under-bidder waits
    for a slack block, and since the backlog drains ``cap`` steps per
    seal it always gets one eventually.
    """

    name = "first_price"

    def __init__(self, fees: FeeLedger):
        self.fees = fees

    def select(self, pending: list, cap: int) -> tuple[list, list, list]:
        ranked = sorted(
            pending,
            key=lambda step: (
                0 if self.exempt(step) else 1,
                -self.fees.bid(step.deal_id),
                step.seq,
            ),
        )
        batch, spill = ranked[:cap], ranked[cap:]
        for step in batch:
            if not self.exempt(step):
                self.fees.charge(self.fees.bid(step.deal_id))
        spill.sort(key=lambda step: step.seq)  # pending stays arrival-ordered
        return batch, spill, []


class BaseFeePolicy(SealPolicy):
    """EIP-1559-style congestion control, one instance per chain.

    The chain's base fee starts at ``BASE_FEE_INITIAL`` and multiplies
    by ``1 + BASE_FEE_ADJUST * (fullness - BASE_FEE_TARGET) /
    BASE_FEE_TARGET`` after every seal: full blocks raise the price of
    the next one, empty blocks decay it (geometrically, by at most
    ``BASE_FEE_ADJUST`` per block) down to ``BASE_FEE_FLOOR``.  A step
    seals only when its deal's bid meets the *current* base fee —
    under-bidders go back to the pending queue and ride the decay;
    sealed deal steps are charged the base fee they sealed at (the
    protocol price, not their bid).  A bid below the floor can never
    become eligible, so once the base fee sits at the floor such steps
    are evicted and their deals priced out — otherwise the mempool
    would reschedule seals forever and the run could not quiesce.
    """

    name = "base_fee"

    def __init__(self, fees: FeeLedger):
        self.fees = fees
        self.base_fee = BASE_FEE_INITIAL

    def _eligible(self, step) -> bool:
        return self.fees.bid(step.deal_id) >= self.base_fee

    def select(self, pending: list, cap: int) -> tuple[list, list, list]:
        eligible, waiting, evicted = [], [], []
        at_floor = self.base_fee <= BASE_FEE_FLOOR
        for step in pending:
            if self.exempt(step) or self._eligible(step):
                eligible.append(step)
            elif at_floor and self.fees.bid(step.deal_id) < BASE_FEE_FLOOR:
                # The decay has bottomed out and this bid still does
                # not clear it: it never will.  Fee-priced-out.
                evicted.append(step)
            else:
                waiting.append(step)
        eligible.sort(
            key=lambda step: (
                0 if self.exempt(step) else 1,
                -self.fees.bid(step.deal_id),
                step.seq,
            ),
        )
        batch, spill = eligible[:cap], eligible[cap:]
        price = int(self.base_fee) + (self.base_fee > int(self.base_fee))
        for step in batch:
            if not self.exempt(step):
                self.fees.charge(price)
        waiting.extend(spill)
        waiting.sort(key=lambda step: step.seq)
        # 1559 update: price the *next* block by this block's fullness.
        fullness = len(batch) / cap if cap else 0.0
        self.base_fee = max(
            BASE_FEE_FLOOR,
            self.base_fee
            * (1.0 + BASE_FEE_ADJUST * (fullness - BASE_FEE_TARGET)
               / BASE_FEE_TARGET),
        )
        return batch, waiting, evicted


def make_seal_policy(config, fees: FeeLedger) -> SealPolicy:
    """Build one chain's sealing policy from a ``MarketConfig``.

    Every call returns a fresh instance, so per-chain state (the base
    fee) never leaks across chains.
    """
    policy = config.seal_policy
    if policy == "fifo":
        return FifoPolicy()
    if policy == "first_price":
        return FirstPricePolicy(fees)
    if policy == "base_fee":
        return BaseFeePolicy(fees)
    raise MarketError(
        f"unknown seal policy {policy!r} (expected one of {SEAL_POLICIES})"
    )
