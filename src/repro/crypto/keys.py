"""Typed key management: key pairs, fingerprints, and key rings.

A :class:`KeyPair` belongs to one principal (a peer, a CA, an issuer like
"UIUC" or "VISA").  A :class:`KeyRing` is a peer's local directory of
*trusted* public keys — the out-of-band trust roots that make signature
verification meaningful.  Nothing in the negotiation runtime ever ships a
private key.

Key sizes: 1024-bit default; the test suite uses 512-bit keys (fast, still
exercising every code path).  A process-wide cache keyed by principal name
is provided for tests and benchmarks so repeated scenario setups do not pay
key generation each time — disable with ``use_cache=False``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto import rsa
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.errors import KeyError_, SignatureError


@dataclass(frozen=True, slots=True)
class PublicKey:
    """A principal's public key with a stable fingerprint."""

    principal: str
    rsa_key: RSAPublicKey

    @property
    def fingerprint(self) -> str:
        material = (
            self.rsa_key.modulus.to_bytes(self.rsa_key.byte_length, "big")
            + self.rsa_key.exponent.to_bytes(4, "big")
        )
        return hashlib.sha256(material).hexdigest()[:16]

    def verify(self, message: bytes, signature: bytes) -> bool:
        return rsa.verify(message, signature, self.rsa_key)

    def __repr__(self) -> str:
        return f"PublicKey({self.principal!r}, {self.fingerprint})"


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A principal's full key pair."""

    principal: str
    public: PublicKey
    private: RSAPrivateKey

    @staticmethod
    def generate(principal: str, bits: int = 1024) -> "KeyPair":
        public_raw, private_raw = rsa.generate_keypair(bits)
        return KeyPair(principal, PublicKey(principal, public_raw), private_raw)

    def sign(self, message: bytes) -> bytes:
        return rsa.sign(message, self.private)

    def __repr__(self) -> str:
        return f"KeyPair({self.principal!r}, {self.public.fingerprint})"


class KeyRing:
    """A peer's directory of trusted public keys, indexed by principal.

    The ring answers the only question the credential layer asks: *what is
    the key of the principal this rule claims as signer?*  Missing
    principals raise — treating an unknown issuer as "unverifiable" rather
    than silently unsigned.
    """

    def __init__(self, keys: Optional[dict[str, PublicKey]] = None) -> None:
        self._keys: dict[str, PublicKey] = dict(keys) if keys else {}

    def add(self, key: PublicKey) -> None:
        existing = self._keys.get(key.principal)
        if existing is not None and existing != key:
            raise KeyError_(
                f"conflicting key for principal {key.principal!r}: "
                f"{existing.fingerprint} vs {key.fingerprint}")
        self._keys[key.principal] = key

    def get(self, principal: str) -> PublicKey:
        key = self._keys.get(principal)
        if key is None:
            raise KeyError_(f"no trusted key for principal {principal!r}")
        return key

    def __contains__(self, principal: str) -> bool:
        return principal in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def principals(self) -> list[str]:
        return sorted(self._keys)

    def verify(self, principal: str, message: bytes, signature: bytes) -> None:
        """Verify or raise :class:`SignatureError`/:class:`KeyError_`."""
        if not self.get(principal).verify(message, signature):
            raise SignatureError(
                f"signature claimed by {principal!r} failed verification")

    def copy(self) -> "KeyRing":
        return KeyRing(self._keys)

    def merge(self, other: "KeyRing") -> None:
        for principal in other.principals():
            self.add(other.get(principal))


# ---------------------------------------------------------------------------
# Process-wide key cache (tests / benchmarks convenience)
# ---------------------------------------------------------------------------

_KEY_CACHE: dict[tuple[str, int], KeyPair] = {}


def keypair_for(principal: str, bits: int = 1024, use_cache: bool = True) -> KeyPair:
    """Return a key pair for ``principal``, cached per (name, size).

    Scenario builders call this so that re-running a benchmark does not
    regenerate keys; the cache never leaks across principals.
    """
    if not use_cache:
        return KeyPair.generate(principal, bits)
    cache_key = (principal, bits)
    cached = _KEY_CACHE.get(cache_key)
    if cached is None:
        cached = _KEY_CACHE[cache_key] = KeyPair.generate(principal, bits)
    return cached


def clear_key_cache() -> None:
    _KEY_CACHE.clear()
