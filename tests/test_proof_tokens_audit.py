"""Certified proofs and access-token tests."""

import dataclasses

import pytest

from repro.crypto.keys import KeyRing, keypair_for
from repro.datalog.parser import parse_literal, parse_rule
from repro.errors import (
    CredentialError,
    ExpiredCredentialError,
    ProofError,
    SignatureError,
)
from repro.negotiation.proof import CertifiedProof, proof_from_tree, verify_proof
from repro.negotiation.tokens import issue_token, verify_token
from repro.world import World

KEY_BITS = 512


@pytest.fixture
def student_proof():
    """A delegation-chain proof package and the matching key ring."""
    world = World(key_bits=KEY_BITS)
    holder = world.add_peer("Alice")
    world.issuer("UIUC")
    world.issuer("Registrar")
    world.distribute_keys()
    credentials = world.give_credentials("Alice", '''
        student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "Registrar".
        student("Alice") @ "Registrar" signedBy ["Registrar"].
    ''')
    goal = parse_literal('student("Alice") @ "UIUC"')
    proof = CertifiedProof(goal, tuple(credentials), assembled_by="Alice")
    return proof, holder.keyring


class TestCertifiedProofs:
    def test_verify_rederives(self, student_proof):
        proof, ring = student_proof
        tree = verify_proof(proof, ring)
        assert tree is not None

    def test_missing_credential_fails(self, student_proof):
        proof, ring = student_proof
        incomplete = dataclasses.replace(proof, credentials=proof.credentials[:1])
        with pytest.raises(ProofError):
            verify_proof(incomplete, ring)

    def test_tampered_credential_fails(self, student_proof):
        proof, ring = student_proof
        victim = proof.credentials[1]
        forged_rule = parse_rule(
            'student("Mallory") @ "Registrar" signedBy ["Registrar"].')
        forged = dataclasses.replace(victim, rule=forged_rule)
        with pytest.raises(ProofError):
            verify_proof(dataclasses.replace(
                proof, credentials=(proof.credentials[0], forged)), ring)

    def test_unknown_issuer_fails(self, student_proof):
        proof, _ = student_proof
        with pytest.raises(ProofError):
            verify_proof(proof, KeyRing())

    def test_wrong_goal_fails(self, student_proof):
        proof, ring = student_proof
        wrong = dataclasses.replace(
            proof, goal=parse_literal('student("Mallory") @ "UIUC"'))
        with pytest.raises(ProofError):
            verify_proof(wrong, ring)

    def test_vouching_layer_dropped(self, student_proof):
        proof, ring = student_proof
        vouched = dataclasses.replace(
            proof,
            goal=parse_literal('student("Alice") @ "UIUC" @ "Alice"'),
            vouching_peer="Alice")
        assert verify_proof(vouched, ring) is not None

    def test_vouching_layer_not_droppable_for_other_peer(self, student_proof):
        proof, ring = student_proof
        wrong = dataclasses.replace(
            proof,
            goal=parse_literal('student("Alice") @ "UIUC" @ "Mallory"'),
            vouching_peer="Alice")
        with pytest.raises(ProofError):
            verify_proof(wrong, ring)

    def test_proof_from_tree_collects_credentials(self):
        world = World(key_bits=KEY_BITS)
        holder = world.add_peer("Holder")
        world.issuer("CA")
        world.distribute_keys()
        world.give_credentials("Holder", 'c("v") signedBy ["CA"].')
        from repro.negotiation.engine import EvalContext
        from repro.negotiation.session import Session

        ctx = EvalContext(holder, Session("s", "H"), "H", holder.kb,
                          [holder.credentials], allow_remote=False)
        solution = ctx.query_goal(parse_literal('c("v") @ "CA"'))[0]
        proof = proof_from_tree(parse_literal('c("v") @ "CA"'),
                                solution.proofs[0], "Holder")
        assert len(proof.credentials) == 1
        assert proof.serials()


class TestTokens:
    @pytest.fixture
    def issuer(self):
        return keypair_for("E-Learn", KEY_BITS)

    @pytest.fixture
    def ring(self, issuer):
        ring = KeyRing()
        ring.add(issuer.public)
        return ring

    def test_issue_and_verify(self, issuer, ring):
        token = issue_token(issuer, parse_literal("enroll(cs101)"), "Alice",
                            issued_at=0.0, ttl=100.0)
        verify_token(token, "Alice", ring, now=50.0)

    def test_non_transferable(self, issuer, ring):
        token = issue_token(issuer, parse_literal("enroll(cs101)"), "Alice")
        with pytest.raises(CredentialError):
            verify_token(token, "Mallory", ring)

    def test_expiry(self, issuer, ring):
        token = issue_token(issuer, parse_literal("enroll(cs101)"), "Alice",
                            issued_at=0.0, ttl=10.0)
        with pytest.raises(ExpiredCredentialError):
            verify_token(token, "Alice", ring, now=20.0)

    def test_no_ttl_never_expires(self, issuer, ring):
        token = issue_token(issuer, parse_literal("enroll(cs101)"), "Alice")
        verify_token(token, "Alice", ring, now=1e12)

    def test_tampered_resource_detected(self, issuer, ring):
        token = issue_token(issuer, parse_literal("enroll(cs101)"), "Alice")
        forged = dataclasses.replace(token, resource=parse_literal("enroll(cs999)"))
        with pytest.raises(SignatureError):
            verify_token(forged, "Alice", ring)

    def test_revoked_serial_rejected(self, issuer, ring):
        token = issue_token(issuer, parse_literal("enroll(cs101)"), "Alice")
        with pytest.raises(CredentialError):
            verify_token(token, "Alice", ring, revoked_serials={token.serial})
