"""Cryptographic primitives used by the deal protocols.

The paper's protocols lean on three primitives:

* ordinary digital signatures (parties sign votes, validators sign
  block certificates) — provided by :mod:`repro.crypto.schnorr`,
  a real Schnorr scheme over the RFC 3526 2048-bit MODP group;
* *path signatures* (§5 of the paper): a vote forwarded along a chain
  of parties accumulates one signature per hop — provided by
  :mod:`repro.crypto.pathsig`;
* hash commitments and Merkle roots (HTLC baselines and block
  structure) — provided by :mod:`repro.crypto.hashing` and
  :mod:`repro.crypto.merkle`.
"""

from repro.crypto.fastexp import FixedBaseTable, base_pow, generator_pow, multi_pow
from repro.crypto.hashing import sha256, sha256_hex, tagged_hash, hash_concat
from repro.crypto.keys import Address, KeyPair, Wallet
from repro.crypto.merkle import MerkleTree
from repro.crypto.pathsig import PathSignature, extend_path_signature, sign_vote
from repro.crypto.schnorr import (
    PrivateKey,
    PublicKey,
    Signature,
    batch_verify,
    generate_keypair,
    sign,
    verify,
)

__all__ = [
    "FixedBaseTable",
    "base_pow",
    "generator_pow",
    "multi_pow",
    "Address",
    "KeyPair",
    "MerkleTree",
    "PathSignature",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "Wallet",
    "batch_verify",
    "extend_path_signature",
    "generate_keypair",
    "hash_concat",
    "sha256",
    "sha256_hex",
    "sign",
    "sign_vote",
    "tagged_hash",
    "verify",
]
