"""End-to-end access-token flow (§3.1's repeat-access mechanism)."""

import pytest

from repro.datalog.parser import parse_literal
from repro.errors import CredentialError, ExpiredCredentialError
from repro.negotiation.strategies import negotiate
from repro.negotiation.tokens import issue_token, verify_token
from repro.world import World

KEY_BITS = 512


@pytest.fixture
def granted_world():
    world = World(key_bits=KEY_BITS)
    server = world.add_peer("Server",
                            'resource(Requester) $ true <- '
                            'pass(Requester) @ "CA" @ Requester.')
    client = world.add_peer("Client",
                            'pass(X) @ Y $ true <-{true} pass(X) @ Y.')
    world.issuer("CA")
    world.distribute_keys()
    world.give_credentials("Client", 'pass("Client") signedBy ["CA"].')
    result = negotiate(client, "Server", parse_literal('resource("Client")'))
    assert result.granted
    return world, server, client, result


class TestTokenAfterNegotiation:
    def test_provider_issues_token_on_grant(self, granted_world):
        world, server, client, result = granted_world
        token = issue_token(server.keys, result.answered_literal,
                            holder=client.name, issued_at=0.0, ttl=3600.0)
        # Later access: the client presents the token instead of negotiating.
        verify_token(token, presenter=client.name, keyring=server.keyring,
                     now=100.0)

    def test_token_skips_renegotiation_traffic(self, granted_world):
        world, server, client, result = granted_world
        token = issue_token(server.keys, result.answered_literal,
                            holder=client.name)
        world.reset_metrics()
        verify_token(token, presenter=client.name, keyring=server.keyring)
        assert world.stats.messages == 0  # purely local check

    def test_token_not_transferable_to_other_peer(self, granted_world):
        world, server, client, result = granted_world
        mallory = world.add_peer("Mallory")
        token = issue_token(server.keys, result.answered_literal,
                            holder=client.name)
        with pytest.raises(CredentialError):
            verify_token(token, presenter="Mallory", keyring=server.keyring)

    def test_expired_token_forces_renegotiation(self, granted_world):
        world, server, client, result = granted_world
        token = issue_token(server.keys, result.answered_literal,
                            holder=client.name, issued_at=0.0, ttl=10.0)
        with pytest.raises(ExpiredCredentialError):
            verify_token(token, presenter=client.name,
                         keyring=server.keyring, now=100.0)
        # ...and renegotiation still works.
        again = negotiate(client, "Server", parse_literal('resource("Client")'))
        assert again.granted
