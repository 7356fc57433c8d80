"""RSA signatures over SHA-256, implemented from first principles.

Key generation uses :mod:`repro.crypto.numbertheory`; signing follows the
EMSA-PKCS1-v1.5 shape — a SHA-256 ``DigestInfo`` blob padded with
``00 01 FF.. 00`` to the modulus size — so signatures are deterministic and
verification is an exact byte comparison after the public-key operation.

This module works on raw integers and byte strings; the typed wrapper
(:class:`repro.crypto.keys.KeyPair`) is what the rest of the library uses.

Verification results are cached in a bounded LRU keyed by
``(modulus, exponent, message digest, signature)``: a credential that is
re-presented across sessions and peers pays the public-key operation once
per process.  The cached verdict is a pure mathematical fact (the signature
either matches the bytes under that key or it does not), so the cache can
never mask *policy* decisions such as revocation or expiry — those are
checked by the credential layer on every presentation.  Layers that must
guarantee a fresh computation (e.g. after a CA lands on a CRL) can evict
entries with :func:`evict_cached_verification`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.numbertheory import modular_inverse, random_prime_pair
from repro.errors import CryptoError, SignatureError

PUBLIC_EXPONENT = 65537

_SIGNATURE_CACHE_MAX = 4096
_signature_cache: "OrderedDict[tuple, bool]" = OrderedDict()
_signature_cache_enabled = True


class SignatureCacheStats:
    """Process-wide counters for the verification cache."""

    __slots__ = ("hits", "misses", "evictions", "sign_hits")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.sign_hits = 0


SIGNATURE_CACHE_STATS = SignatureCacheStats()


def set_signature_cache(enabled: bool) -> bool:
    """Enable/disable verification caching; returns the previous state."""
    global _signature_cache_enabled
    previous = _signature_cache_enabled
    _signature_cache_enabled = enabled
    return previous


def clear_signature_cache() -> None:
    _signature_cache.clear()


def _cache_key(message: bytes, signature: bytes, public_key: "RSAPublicKey") -> tuple:
    return (
        public_key.modulus,
        public_key.exponent,
        hashlib.sha256(message).digest(),
        signature,
    )


def evict_cached_verification(
    message: bytes, signature: bytes, public_key: "RSAPublicKey"
) -> bool:
    """Drop one cached verdict; returns whether an entry was present.

    Used by the credential layer when trust in a key is withdrawn (CA
    revocation): the next verification is recomputed from scratch rather
    than served from memory.
    """
    removed = _signature_cache.pop(_cache_key(message, signature, public_key), None)
    if removed is not None:
        SIGNATURE_CACHE_STATS.evictions += 1
        return True
    return False

# DER prefix of DigestInfo for SHA-256 (RFC 8017 §9.2 note 1).
_SHA256_DIGEST_INFO_PREFIX = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)
# 00 01, at least eight FF, 00 and the 51-byte DigestInfo: 62 bytes, 489 bits.
_MIN_ENCODED_BYTES = 11 + len(_SHA256_DIGEST_INFO_PREFIX) + hashlib.sha256().digest_size


@dataclass(frozen=True, slots=True)
class RSAPublicKey:
    modulus: int
    exponent: int

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


@dataclass(frozen=True, slots=True)
class RSAPrivateKey:
    modulus: int
    exponent: int        # private exponent d
    prime_p: int
    prime_q: int

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


def generate_keypair(bits: int = 1024) -> tuple[RSAPublicKey, RSAPrivateKey]:
    """Generate an RSA key pair with a modulus of exactly ``bits`` bits."""
    if (bits + 7) // 8 < _MIN_ENCODED_BYTES:
        raise CryptoError(f"a {bits}-bit modulus cannot hold the "
                          f"{_MIN_ENCODED_BYTES}-byte SHA-256 signature encoding")
    while True:
        p, q = random_prime_pair(bits)
        modulus = p * q
        phi = (p - 1) * (q - 1)
        if phi % PUBLIC_EXPONENT == 0:
            continue  # e must be invertible mod phi
        d = modular_inverse(PUBLIC_EXPONENT, phi)
        return (
            RSAPublicKey(modulus, PUBLIC_EXPONENT),
            RSAPrivateKey(modulus, d, p, q),
        )


def _emsa_pkcs1_encode(message: bytes, target_length: int) -> bytes:
    """EMSA-PKCS1-v1.5: 00 01 FF..FF 00 DigestInfo(SHA-256(message))."""
    if target_length < _MIN_ENCODED_BYTES:
        raise CryptoError("modulus too small for SHA-256 signature encoding")
    digest_info = _SHA256_DIGEST_INFO_PREFIX + hashlib.sha256(message).digest()
    padding_length = target_length - len(digest_info) - 3
    return b"\x00\x01" + b"\xff" * padding_length + b"\x00" + digest_info


def sign(message: bytes, private_key: RSAPrivateKey) -> bytes:
    """Deterministic RSA signature of ``message``.

    Signing is cached alongside verification (EMSA-PKCS1-v1.5 is
    deterministic, so the signature is a pure function of key and message):
    a peer that issues the same answer credential on every negotiation pays
    the CRT exponentiation once.
    """
    if _signature_cache_enabled:
        key = ("sign", private_key.modulus, private_key.exponent,
               hashlib.sha256(message).digest())
        cached = _signature_cache.get(key)
        if cached is not None:
            _signature_cache.move_to_end(key)
            SIGNATURE_CACHE_STATS.sign_hits += 1
            return cached
    signature = _sign_uncached(message, private_key)
    if _signature_cache_enabled:
        _signature_cache[key] = signature
        if len(_signature_cache) > _SIGNATURE_CACHE_MAX:
            _signature_cache.popitem(last=False)
    return signature


def _sign_uncached(message: bytes, private_key: RSAPrivateKey) -> bytes:
    encoded = _emsa_pkcs1_encode(message, private_key.byte_length)
    representative = int.from_bytes(encoded, "big")
    # CRT acceleration: ~4x faster than a single modexp on the full modulus.
    p, q = private_key.prime_p, private_key.prime_q
    d = private_key.exponent
    sig_p = pow(representative % p, d % (p - 1), p)
    sig_q = pow(representative % q, d % (q - 1), q)
    q_inverse = modular_inverse(q, p)
    h = (q_inverse * (sig_p - sig_q)) % p
    signature_int = sig_q + h * q
    return signature_int.to_bytes(private_key.byte_length, "big")


def verify(message: bytes, signature: bytes, public_key: RSAPublicKey) -> bool:
    """True when ``signature`` is a valid signature of ``message``.

    Returns a boolean rather than raising: callers decide whether a bad
    signature is an error (:class:`repro.errors.SignatureError`) or just a
    rejected credential.
    """
    if _signature_cache_enabled:
        key = _cache_key(message, signature, public_key)
        cached = _signature_cache.get(key)
        if cached is not None:
            _signature_cache.move_to_end(key)
            SIGNATURE_CACHE_STATS.hits += 1
            return cached
        SIGNATURE_CACHE_STATS.misses += 1
    result = _verify_uncached(message, signature, public_key)
    if _signature_cache_enabled:
        _signature_cache[key] = result
        if len(_signature_cache) > _SIGNATURE_CACHE_MAX:
            _signature_cache.popitem(last=False)
    return result


def _verify_uncached(message: bytes, signature: bytes, public_key: RSAPublicKey) -> bool:
    if len(signature) != public_key.byte_length:
        return False
    signature_int = int.from_bytes(signature, "big")
    if signature_int >= public_key.modulus:
        return False
    recovered = pow(signature_int, public_key.exponent, public_key.modulus)
    recovered_bytes = recovered.to_bytes(public_key.byte_length, "big")
    try:
        expected = _emsa_pkcs1_encode(message, public_key.byte_length)
    except CryptoError:
        return False
    return recovered_bytes == expected


def verify_or_raise(message: bytes, signature: bytes, public_key: RSAPublicKey) -> None:
    if not verify(message, signature, public_key):
        raise SignatureError("RSA signature verification failed")
