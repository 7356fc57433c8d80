"""RSA, canonical serialisation, and key-ring tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.canonical import canonical_bytes, rule_signing_bytes
from repro.crypto.keys import KeyPair, KeyRing, clear_key_cache, keypair_for
from repro.datalog.parser import parse_literal, parse_rule, parse_term
from repro.errors import CryptoError, KeyError_, SignatureError

KEY_BITS = 512


@pytest.fixture(scope="module")
def keypair():
    return keypair_for("crypto-test", KEY_BITS)


class TestRSA:
    def test_sign_verify_roundtrip(self, keypair):
        message = b"policy content"
        signature = keypair.sign(message)
        assert keypair.public.verify(message, signature)

    def test_signature_deterministic(self, keypair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_tampered_message_rejected(self, keypair):
        signature = keypair.sign(b"original")
        assert not keypair.public.verify(b"altered", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = bytearray(keypair.sign(b"m"))
        signature[5] ^= 0xFF
        assert not keypair.public.verify(b"m", bytes(signature))

    def test_wrong_key_rejected(self, keypair):
        other = keypair_for("crypto-test-other", KEY_BITS)
        signature = keypair.sign(b"m")
        assert not other.public.verify(b"m", signature)

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"m", b"\x00" * 3)

    def test_oversized_representative_rejected(self, keypair):
        length = keypair.public.rsa_key.byte_length
        assert not keypair.public.verify(b"m", b"\xff" * length)

    def test_empty_message_signable(self, keypair):
        assert keypair.public.verify(b"", keypair.sign(b""))

    def test_large_message_signable(self, keypair):
        blob = b"x" * 100_000
        assert keypair.public.verify(blob, keypair.sign(blob))

    def test_key_generation_rejects_tiny_moduli(self):
        # 488 bits is one short of the 62 bytes EMSA-PKCS1 SHA-256 needs:
        # such a key must fail at generation, not at its first signature.
        for bits in (128, 488):
            with pytest.raises(CryptoError, match="62-byte"):
                rsa.generate_keypair(bits)

    @pytest.mark.parametrize("bits", [489, 513, 1023])
    def test_key_generation_gives_exact_modulus_size(self, bits):
        public, private = rsa.generate_keypair(bits)
        assert public.modulus.bit_length() == bits
        signature = rsa.sign(b"m", private)
        assert rsa.verify(b"m", signature, public)

    def test_verify_or_raise(self, keypair):
        with pytest.raises(SignatureError):
            rsa.verify_or_raise(b"m", b"\x00" * keypair.public.rsa_key.byte_length,
                                keypair.public.rsa_key)

    @given(st.binary(max_size=64))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip_any_message(self, message):
        keys = keypair_for("crypto-prop", KEY_BITS)
        assert keys.public.verify(message, keys.sign(message))


class TestSignatureCache:
    def test_capacity_evictions_are_counted(self, keypair, monkeypatch):
        from collections import OrderedDict

        from repro.obs.metrics import MetricsRegistry, install_default_collectors

        monkeypatch.setattr(rsa, "_signature_cache", OrderedDict())
        monkeypatch.setattr(rsa, "_SIGNATURE_CACHE_MAX", 2)
        monkeypatch.setattr(rsa, "_signature_cache_enabled", True)
        stats = rsa.SIGNATURE_CACHE_STATS
        before = stats.evictions
        messages = [b"evict-1", b"evict-2", b"evict-3"]
        signatures = [keypair.sign(message) for message in messages]
        assert stats.evictions == before + 1  # the third signature
        for message, signature in zip(messages, signatures):
            assert keypair.public.verify(message, signature)
        assert len(rsa._signature_cache) == 2
        assert stats.evictions == before + 4
        snapshot = install_default_collectors(MetricsRegistry()).snapshot()
        assert snapshot["peertrust_sig_cache_evictions_total"] == stats.evictions


class TestCanonical:
    def test_deterministic(self):
        rule = parse_rule('student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "R".')
        assert canonical_bytes(rule) == canonical_bytes(parse_rule(str(rule)))

    def test_renaming_invariance(self):
        left = parse_rule('p(X, Y) <- q(X), r(Y).')
        right = parse_rule('p(A, B) <- q(A), r(B).')
        assert canonical_bytes(left) == canonical_bytes(right)

    def test_variable_sharing_distinguished(self):
        shared = parse_rule('p(X, X) <- q(X).')
        distinct = parse_rule('p(X, Y) <- q(X).')
        assert canonical_bytes(shared) != canonical_bytes(distinct)

    def test_atom_vs_string_distinguished(self):
        assert canonical_bytes(parse_term("x")) != canonical_bytes(parse_term('"x"'))

    def test_int_vs_float_distinguished(self):
        assert canonical_bytes(parse_term("1")) != canonical_bytes(parse_term("1.0"))

    def test_structure_not_separator_injectable(self):
        # f(ab) vs f(a, b): framing must keep them distinct
        assert (canonical_bytes(parse_term("f(ab)"))
                != canonical_bytes(parse_term("f(a, b)")))

    def test_authority_position_matters(self):
        assert (canonical_bytes(parse_literal('p(a) @ "U"'))
                != canonical_bytes(parse_literal('p(a, "U")')))

    def test_negation_encoded(self):
        assert (canonical_bytes(parse_literal("not p(a)"))
                != canonical_bytes(parse_literal("p(a)")))

    def test_signing_bytes_strip_contexts(self):
        with_context = parse_rule('c(X) $ g(Requester) <-{true} signedBy ["A"] c(X).')
        without = parse_rule('c(X) <- signedBy ["A"] c(X).')
        assert rule_signing_bytes(with_context) == rule_signing_bytes(without)

    def test_signing_bytes_include_signers(self):
        a = parse_rule('c(X) signedBy ["A"].')
        b = parse_rule('c(X) signedBy ["B"].')
        assert rule_signing_bytes(a) != rule_signing_bytes(b)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes("just a string")  # type: ignore[arg-type]


class TestKeyRing:
    def test_add_and_get(self, keypair):
        ring = KeyRing()
        ring.add(keypair.public)
        assert ring.get("crypto-test") == keypair.public
        assert "crypto-test" in ring

    def test_missing_principal_raises(self):
        with pytest.raises(KeyError_):
            KeyRing().get("nobody")

    def test_maybe_get_returns_none(self):
        assert KeyRing().maybe_get("nobody") is None

    def test_conflicting_key_rejected(self, keypair):
        ring = KeyRing()
        ring.add(keypair.public)
        impostor = KeyPair.generate("crypto-test", KEY_BITS)
        with pytest.raises(KeyError_):
            ring.add(impostor.public)

    def test_re_adding_same_key_is_fine(self, keypair):
        ring = KeyRing()
        ring.add(keypair.public)
        ring.add(keypair.public)
        assert len(ring) == 1

    def test_verify_raises_on_bad_signature(self, keypair):
        ring = KeyRing()
        ring.add(keypair.public)
        with pytest.raises(SignatureError):
            ring.verify("crypto-test", b"m", b"\x00" * 64)

    def test_merge_and_copy(self, keypair):
        ring = KeyRing()
        ring.add(keypair.public)
        other = KeyRing()
        other.merge(ring)
        duplicate = other.copy()
        assert duplicate.principals() == ["crypto-test"]

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = keypair_for("crypto-test-other", KEY_BITS)
        assert keypair.public.fingerprint == keypair.public.fingerprint
        assert keypair.public.fingerprint != other.public.fingerprint


class TestKeyCache:
    def test_cache_returns_same_pair(self):
        assert keypair_for("cache-a", KEY_BITS) is keypair_for("cache-a", KEY_BITS)

    def test_cache_distinguishes_principals(self):
        assert keypair_for("cache-a", KEY_BITS) is not keypair_for("cache-b", KEY_BITS)

    def test_cache_bypass(self):
        first = keypair_for("cache-c", KEY_BITS)
        fresh = keypair_for("cache-c", KEY_BITS, use_cache=False)
        assert first is not fresh
