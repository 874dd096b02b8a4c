"""Party identity: addresses, keypairs, and a wallet registry.

Every party (and every validator) is identified by an :class:`Address`
derived from its public key, mirroring how blockchains address
accounts.  The system model (§3 of the paper) assumes "any party's
public key is known to all", which :class:`Wallet` provides: a public
directory mapping addresses to public keys.  Private keys never leave
their owning :class:`KeyPair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.schnorr import (
    PrivateKey,
    PublicKey,
    Signature,
    VerifyCache,
    batch_verify,
    generate_keypair,
    sign,
    verify,
)
from repro.errors import CryptoError


@dataclass(frozen=True, order=True)
class Address:
    """A 20-byte account identifier derived from a public key."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 20:
            raise CryptoError("addresses are exactly 20 bytes")

    @classmethod
    def from_public_key(cls, public_key: PublicKey) -> "Address":
        """Derive the canonical address of ``public_key``."""
        return cls(public_key.fingerprint())

    def hex(self) -> str:
        """Return the address as a 0x-prefixed hex string."""
        return "0x" + self.value.hex()

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.hex()[:10]


@dataclass(frozen=True)
class KeyPair:
    """A private/public keypair plus its derived address."""

    private_key: PrivateKey
    public_key: PublicKey
    address: Address

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        """Deterministically derive a keypair from ``seed``."""
        private_key, public_key = generate_keypair(seed)
        return cls(private_key, public_key, Address.from_public_key(public_key))

    @classmethod
    def from_label(cls, label: str) -> "KeyPair":
        """Derive a keypair from a human-readable label ("alice", ...)."""
        return cls.from_seed(label.encode("utf-8"))

    def sign(self, message: bytes) -> Signature:
        """Sign ``message`` with this keypair's private key."""
        return sign(self.private_key, message)


@dataclass
class Wallet:
    """A public directory of addresses to public keys.

    The paper assumes a PKI: every party's public key is known to all.
    Contracts use the wallet to resolve the public key behind an
    address when verifying votes and certificates.
    """

    _directory: dict[Address, PublicKey] = field(default_factory=dict)

    def register(self, keypair: KeyPair) -> Address:
        """Publish ``keypair``'s public key; return its address."""
        self._directory[keypair.address] = keypair.public_key
        return keypair.address

    def public_key(self, address: Address) -> PublicKey:
        """Look up the public key registered for ``address``."""
        try:
            return self._directory[address]
        except KeyError:
            raise CryptoError(f"no public key registered for {address}") from None

    def knows(self, address: Address) -> bool:
        """Return whether ``address`` has a registered public key."""
        return address in self._directory

    def verify(self, address: Address, message: bytes, signature: Signature) -> bool:
        """Verify ``signature`` against the key registered for ``address``."""
        if not self.knows(address):
            return False
        return verify(self.public_key(address), message, signature)

    def batch_verify(
        self,
        items: list[tuple[Address, bytes, Signature]],
        cache: VerifyCache | None = None,
    ) -> bool:
        """Batch-verify ``(address, message, signature)`` triples.

        Resolves each address through the directory and checks the
        whole batch in one combined equation, against ``cache``.  An
        unknown signer fails the batch, matching per-item
        :meth:`verify` semantics.
        """
        resolved = []
        for address, message, signature in items:
            if not self.knows(address):
                return False
            resolved.append((self.public_key(address), message, signature))
        return batch_verify(resolved, cache)

    def addresses(self) -> list[Address]:
        """Return all registered addresses, sorted for determinism."""
        return sorted(self._directory)

    def __len__(self) -> int:
        return len(self._directory)
