"""Credential issuance, verification, and store tests."""

import dataclasses

import pytest

from repro.credentials.credential import (
    Credential,
    issue_credential,
    rule_signer_names,
    tampered_with,
    verify_credential,
)
from repro.credentials.store import CredentialStore
from repro.crypto.keys import KeyRing, keypair_for
from repro.datalog.parser import parse_literal, parse_rule
from repro.errors import (
    CredentialError,
    ExpiredCredentialError,
    SignatureError,
)

KEY_BITS = 512


@pytest.fixture(scope="module")
def uiuc():
    return keypair_for("UIUC", KEY_BITS)


@pytest.fixture(scope="module")
def registrar():
    return keypair_for("UIUC Registrar", KEY_BITS)


@pytest.fixture(scope="module")
def ring(uiuc, registrar):
    ring = KeyRing()
    ring.add(uiuc.public)
    ring.add(registrar.public)
    return ring


@pytest.fixture
def student_id(registrar):
    rule = parse_rule(
        'student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].')
    return issue_credential(rule, registrar)


@pytest.fixture
def delegation(uiuc):
    rule = parse_rule(
        'student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".')
    return issue_credential(rule, uiuc)


class TestIssue:
    def test_issue_and_verify(self, student_id, ring):
        verify_credential(student_id, ring)

    def test_issuers_extracted(self, delegation):
        assert delegation.issuers == ["UIUC"]
        assert delegation.primary_issuer == "UIUC"

    def test_unsigned_rule_rejected(self, uiuc):
        with pytest.raises(CredentialError):
            issue_credential(parse_rule("a(1)."), uiuc)

    def test_principal_mismatch_rejected(self, registrar):
        rule = parse_rule('student(X) @ "UIUC" signedBy ["UIUC"].')
        with pytest.raises(CredentialError):
            issue_credential(rule, registrar)  # registrar forging UIUC

    def test_multi_signer(self, uiuc, registrar, ring):
        rule = parse_rule('cosigned(X) signedBy ["UIUC", "UIUC Registrar"].')
        credential = issue_credential(rule, [uiuc, registrar])
        verify_credential(credential, ring)

    def test_multi_signer_key_count_mismatch(self, uiuc):
        rule = parse_rule('cosigned(X) signedBy ["UIUC", "UIUC Registrar"].')
        with pytest.raises(CredentialError):
            issue_credential(rule, [uiuc])

    def test_variable_signer_rejected(self, uiuc):
        rule = parse_rule("a(X) signedBy [Y].")
        with pytest.raises(CredentialError):
            rule_signer_names(rule)

    def test_repr_renders_non_ground_signers(self, delegation):
        # A received credential is untrusted until verified, so its repr
        # (in a log line, a failing assertion) must not raise.
        credential = Credential(parse_rule('p("a") signedBy [X].'), (),
                                "serial")
        assert repr(credential) == (
            'Credential(p("a"), signers=[X], serial=serial)')
        assert repr(delegation).startswith(
            'Credential(student(X) @ "UIUC", signers=["UIUC"], serial=')


class TestVerify:
    def test_rule_swap_detected(self, student_id, ring):
        forged_rule = parse_rule(
            'student("Mallory") @ "UIUC Registrar" signedBy ["UIUC Registrar"].')
        forged = dataclasses.replace(student_id, rule=forged_rule)
        with pytest.raises((CredentialError, SignatureError)):
            verify_credential(forged, ring)

    def test_signature_swap_detected(self, student_id, delegation, ring):
        forged = dataclasses.replace(student_id, signatures=delegation.signatures)
        with pytest.raises((CredentialError, SignatureError)):
            verify_credential(forged, ring)

    def test_serial_mismatch_detected(self, student_id, ring):
        forged = dataclasses.replace(student_id, serial="0" * 64)
        with pytest.raises(CredentialError):
            verify_credential(forged, ring)

    def test_unknown_issuer_rejected(self, student_id):
        from repro.errors import KeyError_

        with pytest.raises(KeyError_):
            verify_credential(student_id, KeyRing())

    def test_tampered_with_helper(self, student_id, ring):
        assert not tampered_with(student_id, ring)

    def test_variable_renaming_does_not_break_signature(self, uiuc, ring):
        rule = parse_rule(
            'student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".')
        credential = issue_credential(rule, uiuc)
        renamed = dataclasses.replace(credential, rule=rule.rename_apart())
        # Renaming changes serials (content-addressed) but not signatures;
        # recompute the serial as a cooperative holder would.
        from repro.credentials.credential import compute_serial

        renamed = dataclasses.replace(
            renamed, serial=compute_serial(renamed.rule, None, None))
        verify_credential(renamed, ring)


class TestValidityWindow:
    def test_within_window(self, registrar, ring):
        rule = parse_rule('badge("Alice") signedBy ["UIUC Registrar"].')
        credential = issue_credential(rule, registrar, not_before=100.0,
                                      not_after=200.0)
        verify_credential(credential, ring, now=150.0)

    def test_not_yet_valid(self, registrar, ring):
        rule = parse_rule('badge("Alice") signedBy ["UIUC Registrar"].')
        credential = issue_credential(rule, registrar, not_before=100.0)
        with pytest.raises(ExpiredCredentialError):
            verify_credential(credential, ring, now=50.0)

    def test_expired(self, registrar, ring):
        rule = parse_rule('badge("Alice") signedBy ["UIUC Registrar"].')
        credential = issue_credential(rule, registrar, not_after=200.0)
        with pytest.raises(ExpiredCredentialError):
            verify_credential(credential, ring, now=300.0)

    def test_no_window_skips_clock(self, student_id, ring):
        verify_credential(student_id, ring, now=None)


class TestStore:
    def test_add_dedups_by_serial(self, student_id):
        store = CredentialStore()
        assert store.add(student_id)
        assert not store.add(student_id)
        assert len(store) == 1

    def test_vouching_for_by_head(self, student_id, delegation):
        store = CredentialStore([student_id, delegation])
        matches = store.vouching_for(
            parse_literal('student("Alice") @ "UIUC Registrar"'))
        assert matches == [student_id]

    def test_vouching_for_unifies_variables(self, delegation):
        store = CredentialStore([delegation])
        assert store.vouching_for(parse_literal('student("Bob") @ "UIUC"'))

    def test_candidates_by_indicator(self, student_id, delegation):
        store = CredentialStore([student_id, delegation])
        assert store.has_candidates(("student", 1))
        assert not store.has_candidates(("student", 2))
        for credential in (student_id, delegation):
            store.remove(credential.serial)
        assert not store.has_candidates(("student", 1))

    def test_remove(self, student_id):
        store = CredentialStore([student_id])
        assert store.remove(student_id.serial)
        assert not store.remove(student_id.serial)
        assert len(store) == 0

    def test_get_and_contains(self, student_id):
        store = CredentialStore([student_id])
        assert store.get(student_id.serial) is student_id
        assert student_id in store
