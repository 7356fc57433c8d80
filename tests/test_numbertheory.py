"""Number-theory primitive tests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.numbertheory import (
    extended_gcd,
    is_probable_prime,
    modular_inverse,
    random_prime,
    random_prime_pair,
)
from repro.errors import CryptoError

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101, 7919, 104729]
SMALL_COMPOSITES = [1, 0, 4, 9, 15, 100, 7917, 104730, 561, 41041]  # incl. Carmichael


class TestExtendedGcd:
    def test_bezout_identity(self):
        g, x, y = extended_gcd(240, 46)
        assert g == 2 and 240 * x + 46 * y == g

    def test_coprime(self):
        g, _, _ = extended_gcd(17, 31)
        assert g == 1

    def test_zero_cases(self):
        assert extended_gcd(0, 5)[0] == 5
        assert extended_gcd(5, 0)[0] == 5


class TestModularInverse:
    def test_inverse_roundtrip(self):
        inverse = modular_inverse(3, 11)
        assert (3 * inverse) % 11 == 1

    def test_no_inverse_raises(self):
        with pytest.raises(CryptoError):
            modular_inverse(6, 9)

    @given(st.integers(2, 10_000))
    def test_property_inverse_mod_prime(self, value):
        prime = 104729
        inverse = modular_inverse(value, prime)
        assert (value * inverse) % prime == 1


class TestMillerRabin:
    @pytest.mark.parametrize("prime", SMALL_PRIMES)
    def test_primes_accepted(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", SMALL_COMPOSITES)
    def test_composites_rejected(self, composite):
        assert not is_probable_prime(composite)

    def test_large_known_prime(self):
        assert is_probable_prime(2 ** 127 - 1)  # Mersenne

    def test_large_known_composite(self):
        assert not is_probable_prime(2 ** 128 + 1)

    @given(st.integers(2, 1000))
    def test_property_agrees_with_trial_division(self, n):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert is_probable_prime(n) == trial(n)


class TestPrimeGeneration:
    def test_exact_bit_length(self):
        prime = random_prime(64)
        assert prime.bit_length() == 64
        assert is_probable_prime(prime)

    def test_prime_is_odd(self):
        assert random_prime(32) % 2 == 1

    @pytest.mark.parametrize("bits, draws", [(8, 50), (256, 3)])
    def test_top_two_bits_set(self, bits, draws):
        for _ in range(draws):
            prime = random_prime(bits)
            assert prime % 2 == 1
            assert prime.bit_length() == bits
            assert prime >> (bits - 2) == 0b11

    def test_pair_is_distinct(self):
        p, q = random_prime_pair(48)
        assert p != q and is_probable_prime(p) and is_probable_prime(q)

    @pytest.mark.parametrize("modulus_bits", [16, 17, 63, 64, 489, 512, 513])
    def test_pair_product_has_exact_size(self, modulus_bits):
        for _ in range(20 if modulus_bits < 100 else 3):
            p, q = random_prime_pair(modulus_bits)
            assert p.bit_length() == (modulus_bits + 1) // 2
            assert q.bit_length() == modulus_bits // 2
            assert (p * q).bit_length() == modulus_bits

    def test_tiny_bits_rejected(self):
        with pytest.raises(CryptoError):
            random_prime(4)
