"""Number-theoretic primitives backing the RSA implementation.

Everything here is textbook material implemented from scratch: extended
Euclid, modular inverse, Miller–Rabin primality (deterministic witness sets
for small inputs, random witnesses above), and prime generation.  Primes
have their top two bits set, OpenSSL's form of the FIPS 186-4 B.3.1 bound
sqrt(2) * 2**(k - 1), so a product of two has exactly their summed size.
"""

from __future__ import annotations

import secrets

from repro.errors import CryptoError

# Miller–Rabin is deterministic for n < 3.317e24 with this witness set
# (Sorenson & Webster 2015).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Trial division by small primes rejects most candidates cheaply.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def modular_inverse(a: int, modulus: int) -> int:
    """The inverse of ``a`` modulo ``modulus``; raises when none exists."""
    g, x, _ = extended_gcd(a % modulus, modulus)
    if g != 1:
        raise CryptoError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def _miller_rabin_round(n: int, witness: int, d: int, r: int) -> bool:
    """One Miller–Rabin round; True means 'probably prime survives'."""
    x = pow(witness, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test.

    Deterministic below ``_DETERMINISTIC_BOUND``; above it, ``rounds``
    random witnesses give an error probability below 4^-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses: tuple[int, ...] = _DETERMINISTIC_WITNESSES
        return all(
            _miller_rabin_round(n, w % n, d, r) for w in witnesses if w % n
        )
    for _ in range(rounds):
        witness = secrets.randbelow(n - 3) + 2
        if not _miller_rabin_round(n, witness, d, r):
            return False
    return True


def random_prime(bits: int) -> int:
    """A random odd prime of exactly ``bits`` bits with its top two bits set."""
    if bits < 8:
        raise CryptoError("refusing to generate primes below 8 bits")
    while True:
        candidate = secrets.randbits(bits) | (3 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate


def random_prime_pair(modulus_bits: int) -> tuple[int, int]:
    """Distinct primes of ceil(n/2) and floor(n/2) bits, n = ``modulus_bits``;
    each is above 3/4 of 2**(its bits), so their product has exactly n bits."""
    p = random_prime(modulus_bits - modulus_bits // 2)
    while True:
        q = random_prime(modulus_bits // 2)
        if q != p:
            return p, q
