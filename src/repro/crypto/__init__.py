"""From-scratch cryptographic substrate.

PeerTrust 1.0 used the Java Cryptography Architecture and X.509
certificates; this reproduction implements the signature machinery in pure
Python and bootstraps public keys out of band
(:meth:`repro.world.World.distribute_keys`) in place of certificates:

- :mod:`repro.crypto.numbertheory` — Miller–Rabin primality, extended GCD,
  modular inverse, prime generation;
- :mod:`repro.crypto.rsa` — RSA key generation and PKCS#1 v1.5-style
  signatures over SHA-256 digests;
- :mod:`repro.crypto.canonical` — canonical byte serialisation of terms and
  rules, so that logically identical rules (up to variable renaming) carry
  identical signatures;
- :mod:`repro.crypto.keys` — key pairs, fingerprints, and key rings.

Security model: signatures here are *real* RSA signatures, but key sizes
default to 1024 bits (tests use 512) — adequate for reproducing the
protocol semantics, not for production deployment.
"""

from repro.crypto.keys import KeyPair, KeyRing, PublicKey
from repro.crypto.rsa import generate_keypair, sign, verify
from repro.crypto.canonical import canonical_bytes, rule_signing_bytes

__all__ = [
    "KeyPair",
    "KeyRing",
    "PublicKey",
    "generate_keypair",
    "sign",
    "verify",
    "canonical_bytes",
    "rule_signing_bytes",
]
