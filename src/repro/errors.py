"""Exception hierarchy for the cross-chain deals library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
Contract-level failures (the analogue of a Solidity ``require`` firing)
derive from :class:`ContractError`; they abort the enclosing transaction
and roll back its storage writes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class CryptoError(ReproError):
    """Key, signature, or proof material is malformed."""


class SignatureError(CryptoError):
    """A signature failed verification."""


class SimulationError(ReproError):
    """The discrete-event simulator was misused (e.g. scheduling in the past)."""


class NetworkError(ReproError):
    """A network model rejected a send (unknown endpoint, closed network)."""


class MarketError(ReproError):
    """The deal-market runtime rejected an order or was misconfigured."""


class ChainError(ReproError):
    """Base class for blockchain-substrate failures."""


class UnknownContractError(ChainError):
    """A transaction targeted a contract address that does not exist."""


class ContractError(ChainError):
    """A contract ``require`` failed; the transaction is reverted."""


class OutOfGasError(ContractError):
    """The transaction exhausted its gas allowance."""


class TokenError(ContractError):
    """A token operation violated balances or ownership."""


class ConsensusError(ReproError):
    """A consensus component (BFT validator set, PoW chain) was misused."""


class DealError(ReproError):
    """Base class for deal-specification and protocol failures."""


class MalformedDealError(DealError):
    """A deal specification is structurally invalid (e.g. self-transfer)."""


class SwapError(ReproError):
    """A baseline swap protocol rejected its input (e.g. inexpressible deal)."""
