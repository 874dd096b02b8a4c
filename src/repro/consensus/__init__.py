"""Consensus substrates for the certified blockchain (CBC).

The CBC protocol (paper §6) needs a shared log whose entries can be
*proven* to passive contracts on other chains.  Two realizations:

* :mod:`repro.consensus.bft` — a BFT-certified log: every block is
  vouched for by ≥ 2f+1 of 3f+1 validators; certificates are final.
  Supports validator reconfiguration and the status-certificate
  optimization of §6.2.
* :mod:`repro.consensus.pow` — a Nakamoto (proof-of-work) log without
  finality, used to reproduce the §6.2 fake-proof-of-abort attack and
  the confirmation-depth trade-off; :mod:`repro.consensus.pow_log`
  runs it as a deal's shared log.

Both logs count votes with one :class:`~repro.consensus.bft.VoteTally`
and answer parties the same three questions (a signed vote, a deal's
status, a presentable proof), so a deal can run on either unchanged.
"""

from repro.consensus.bft import (
    CertifiedBlockchain,
    CbcBlock,
    LogEntry,
    StatusCertificate,
)
from repro.consensus.validators import ValidatorSet
from repro.consensus.pow import MiningRace, PowChain, PowProof, PowVoteProof
from repro.consensus.pow_log import PowCertifiedLog, PowLogEntry

__all__ = [
    "CbcBlock",
    "CertifiedBlockchain",
    "LogEntry",
    "MiningRace",
    "PowCertifiedLog",
    "PowChain",
    "PowLogEntry",
    "PowProof",
    "PowVoteProof",
    "StatusCertificate",
    "ValidatorSet",
]
