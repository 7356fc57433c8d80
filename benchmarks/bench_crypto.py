"""E8 — Cryptographic substrate microbenchmarks.

Times the primitives every negotiation leans on: RSA signing/verification
over canonical rule bytes and credential issue/verify.  (PeerTrust 1.0 used
the Java Cryptography Architecture; these numbers characterise our
from-scratch substitute.)
"""

from conftest import KEY_BITS

from repro.credentials.credential import issue_credential, verify_credential
from repro.crypto.canonical import rule_signing_bytes
from repro.crypto.keys import KeyPair, KeyRing, keypair_for
from repro.datalog.parser import parse_rule

RULE = parse_rule(
    'student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".')


def test_e8_keygen(benchmark):
    benchmark(lambda: KeyPair.generate("bench-keygen", KEY_BITS))


def test_e8_canonical_serialisation(benchmark):
    benchmark(lambda: rule_signing_bytes(RULE))


def test_e8_sign(benchmark):
    keys = keypair_for("UIUC", KEY_BITS)
    message = rule_signing_bytes(RULE)
    benchmark(lambda: keys.sign(message))


def test_e8_verify(benchmark):
    keys = keypair_for("UIUC", KEY_BITS)
    message = rule_signing_bytes(RULE)
    signature = keys.sign(message)
    assert keys.public.verify(message, signature)
    benchmark(lambda: keys.public.verify(message, signature))


def test_e8_credential_roundtrip(benchmark):
    keys = keypair_for("UIUC", KEY_BITS)
    ring = KeyRing()
    ring.add(keys.public)

    def roundtrip():
        credential = issue_credential(RULE, keys)
        verify_credential(credential, ring)

    benchmark(roundtrip)
