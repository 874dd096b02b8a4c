"""The concurrent deal-market runtime.

The per-deal machinery in :mod:`repro.core` runs *one* deal on chains
built just for it.  Real adversarial commerce is thousands of deals in
flight at once, contending for the same escrows and the same block
space.  This package is the runtime for that regime:

* :mod:`repro.market.order` — a deal enters the market as a
  :class:`~repro.market.order.SignedDealOrder`: a
  :class:`~repro.core.deal.DealSpec` plus one signature per party over
  the order manifest (the paper's "all parties agree to the deal",
  made explicit as bytes).  Every subsequent step a party takes
  derives its authority from that quorum.
* :mod:`repro.market.mempool` — each chain front-ends its block
  producer with a :class:`~repro.market.mempool.StepMempool` that
  admits deal steps (escrow, transfer, vote, claim), seals them into
  the next block batch, and has every order first referenced in a
  block **signature-checked as part of the whole block**: the order's
  signatures are one group among the block's, one merged
  :func:`repro.crypto.schnorr.batch_verify_many` answers them all.
* :mod:`repro.market.book` / :mod:`repro.market.commitlog` — instead
  of publishing one contract per (deal, asset), each chain hosts a
  single :class:`~repro.market.book.MarketEscrowBook` holding every
  deal's escrows (parties fund an internal account once, then trade
  out of it), and each coordinator **shard** hosts a
  :class:`~repro.market.commitlog.MarketCommitLog` that decides each
  of *its* deals exactly once (first decision wins, commit xor
  abort); :func:`~repro.market.order.shard_of_deal` names every
  deal's home shard and the log enforces the routing on-chain.
* :mod:`repro.market.runtime` / :mod:`repro.market.protocols` — a
  thin :class:`~repro.market.runtime.MarketCoordinator` admits
  orders, routes every sealed-block receipt to its deal's
  :class:`~repro.market.protocols.DealDriver` and reports throughput,
  chain-time latency percentiles and abort rates.  The driver is the
  deal's state machine — escrow → transfer → vote → settle against
  the simulated clock — and there is one per commit protocol behind
  the same interface: unanimity (book + commit log), §5's timelock
  and §6's CBC.  All three detect escrow conflicts the same way (two
  deals drawing on the same account: the first escrow wins, the loser
  aborts and is refunded).
* :mod:`repro.market.shard` / :mod:`repro.market.messages` — every
  shard's chains, mempools and commit log live in that shard's
  :class:`~repro.market.shard.ShardRuntime`, reached only through
  typed message envelopes (six payload types; the coordinator sends
  three: register an order, publish a per-deal escrow, submit one
  step); :mod:`repro.market.report` holds the :class:`MarketReport`
  a run returns.
* :mod:`repro.market.backends` — :func:`open_market` is the entry
  point and picks the execution backend (``inline``, or ``processes``:
  the same coordinator with its signature checks on one worker process
  per shard).
* :mod:`repro.market.fees` — block-space economics: every mempool
  sells its slots through a pluggable sealing policy (FIFO /
  first-price priority / EIP-1559-style base fee), deals co-sign a
  ``fee_bid`` in their order manifest, and a
  :class:`~repro.market.fees.FeeLedger` accounts what sealed traffic
  paid; a deal whose step is evicted is fee-priced-out — a measured
  market outcome, like §5's sore losers, never a safety violation.
* :mod:`repro.market.invariants` — conservation checks: token supply
  is constant across any interleaving, the book's internal ledger
  exactly backs its token holdings, no escrowed asset is double-spent,
  and a deal's outcome is uniform across chains.

Everything is deterministic given the workload seed; see
``benchmarks/bench_e16_market.py`` and ``examples/market_storm.py``.
"""

from repro.market.backends import MarketHandle, open_market
from repro.market.book import MarketEscrowBook
from repro.market.commitlog import MarketCommitLog
from repro.market.fees import (
    EXEMPT_PHASES,
    SEAL_POLICIES,
    FeeLedger,
    make_seal_policy,
)
from repro.market.invariants import check_market_invariants
from repro.market.mempool import StepMempool
from repro.market.order import (
    SignedDealOrder,
    order_message,
    shard_of_deal,
    sign_order,
)
from repro.market.protocols import DealPhase
from repro.market.report import MarketReport
from repro.market.runtime import MarketConfig, MarketCoordinator

__all__ = [
    "open_market",
    "MarketHandle",
    "MarketCoordinator",
    "DealPhase",
    "MarketConfig",
    "MarketReport",
    "MarketEscrowBook",
    "MarketCommitLog",
    "StepMempool",
    "SignedDealOrder",
    "FeeLedger",
    "SEAL_POLICIES",
    "EXEMPT_PHASES",
    "make_seal_policy",
    "check_market_invariants",
    "order_message",
    "shard_of_deal",
    "sign_order",
]
