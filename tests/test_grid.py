"""Grid scenario tests: delegated negotiation and delegation chains."""

import pytest

from repro.datalog.parser import parse_literal
from repro.negotiation.strategies import negotiate
from repro.runtime import NegotiationSpec, run_many
from repro.scenarios.grid import build_grid_scenario, run_cluster_access

KEY_BITS = 512


class TestClusterAccess:
    def test_granted(self):
        scenario = build_grid_scenario(chain_length=2, key_bits=KEY_BITS)
        assert run_cluster_access(scenario).granted

    @pytest.mark.parametrize("length", [1, 3, 6])
    def test_any_chain_length(self, length):
        scenario = build_grid_scenario(chain_length=length, key_bits=KEY_BITS)
        assert run_cluster_access(scenario).granted

    def test_invalid_chain_length(self):
        with pytest.raises(ValueError):
            build_grid_scenario(chain_length=0, key_bits=KEY_BITS)

    def test_message_bytes_grow_with_chain(self):
        sizes = []
        for length in (1, 4, 8):
            scenario = build_grid_scenario(chain_length=length, key_bits=KEY_BITS)
            scenario.world.reset_metrics()
            assert run_cluster_access(scenario).granted
            sizes.append(scenario.world.stats.bytes)
        assert sizes[0] < sizes[1] < sizes[2]


class TestDelegatedNegotiation:
    def test_handheld_forwards(self):
        scenario = build_grid_scenario(chain_length=2, key_bits=KEY_BITS)
        result = run_cluster_access(scenario)
        forwards = list(result.session.events("forward"))
        assert forwards and forwards[0].actor == "Bob"
        assert forwards[0].counterpart == "Bob-Home"

    def test_handheld_holds_no_credentials(self):
        """Private keys and credentials stay on the home machine."""
        scenario = build_grid_scenario(chain_length=2, key_bits=KEY_BITS)
        assert len(scenario.handheld.credentials) == 0
        assert len(scenario.home.credentials) == 2  # delegation + membership
        assert run_cluster_access(scenario).granted

    def test_home_release_policy_gates_strangers(self):
        scenario = build_grid_scenario(chain_length=2, key_bits=KEY_BITS)
        mallory = scenario.world.add_peer("Mallory")
        scenario.world.distribute_keys()
        result = negotiate(mallory, "Bob-Home",
                           parse_literal('gridMember("Bob") @ "VO"'))
        assert not result.granted

    def test_cluster_accepts_direct_home_query_too(self):
        """The cluster itself is on the home machine's trusted list."""
        scenario = build_grid_scenario(chain_length=2, key_bits=KEY_BITS)
        result = negotiate(scenario.cluster, "Bob-Home",
                           parse_literal('gridMember("Bob") @ "VO"'))
        assert result.granted


class TestInterleavedWithOtherNegotiations:
    """The handheld's forwarded query is an ordinary suspended exchange, so
    a negotiation interleaved with it on one scheduler sees exactly the
    clock it would see alone."""

    @staticmethod
    def _specs():
        scenario = build_grid_scenario(chain_length=2, key_bits=KEY_BITS)
        world = scenario.world
        world.add_peer(
            "Server0",
            'hello0(Requester) $ true <- friend0(Requester) @ "CA0" @ Requester.')
        client = world.add_peer(
            "Client0", 'friend0(X) @ Y $ true <-{true} friend0(X) @ Y.')
        world.issuer("CA0")
        world.distribute_keys()
        world.give_credentials("Client0", 'friend0("Client0") signedBy ["CA0"].')
        grid = NegotiationSpec(scenario.handheld, "Cluster",
                               parse_literal('clusterAccess("Bob")'))
        pair = NegotiationSpec(client, "Server0",
                               parse_literal('hello0("Client0")'))
        return grid, pair

    @staticmethod
    def _span(report, index):
        start, end = report.spans[index]
        return end - start

    def test_pair_beside_the_handheld_keeps_its_solo_span(self):
        _, pair = self._specs()
        solo_pair = self._span(run_many([pair]), 0)
        grid, _ = self._specs()
        solo_grid = self._span(run_many([grid]), 0)
        grid, pair = self._specs()
        both = run_many([grid, pair])
        assert [result.granted for result in both.results] == [True, True]
        assert solo_pair == pytest.approx(4.458, abs=1e-3)
        assert self._span(both, 1) == solo_pair
        assert solo_grid == pytest.approx(7.039, abs=1e-3)
        assert self._span(both, 0) == solo_grid
