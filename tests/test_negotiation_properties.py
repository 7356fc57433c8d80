"""Property-based negotiation invariants.

These capture the end-to-end safety/consistency obligations that should
hold on *any* workload:

- every credential a peer receives verifies against its key ring;
- whatever parsimonious grants, the distributed saturation derives
  (soundness — the deep one, also covered in test_forward);
- a denial is stable: re-running a failed negotiation fails again
  (determinism of the policy semantics);
- transcripts account for traffic: queries logged == QueryMessages sent.
"""

from hypothesis import given, settings, strategies as st

from repro.credentials.credential import verify_credential
from repro.runtime import run_steps
from repro.workloads.generator import build_random_bilateral
from repro.workloads.metrics import measure_negotiation

KEY_BITS = 512
SEEDS = st.integers(0, 100_000)


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_property_received_credentials_all_verify(seed):
    workload = build_random_bilateral(seed, key_bits=KEY_BITS)
    result, _ = measure_negotiation(workload)
    requester = workload.requester
    for credential in result.credentials_received:
        verify_credential(credential, requester.keyring, requester.crls)


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_property_outcome_is_deterministic(seed):
    first = measure_negotiation(build_random_bilateral(seed, key_bits=KEY_BITS))[0]
    second = measure_negotiation(build_random_bilateral(seed, key_bits=KEY_BITS))[0]
    assert first.granted == second.granted


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_property_transcript_accounts_for_queries(seed):
    workload = build_random_bilateral(seed, key_bits=KEY_BITS)
    result, report = measure_negotiation(workload)
    stats = workload.world.stats
    logged_queries = result.session.counters.get("query", 0)
    sent_queries = stats.by_kind.get("QueryMessage", 0)
    # Every wire query except the initial goal is logged by its asker
    # (the initiation is logged as "initiate").
    assert sent_queries == logged_queries + 1


@given(SEEDS)
@settings(max_examples=8, deadline=None)
def test_property_granted_implies_provider_can_rederive(seed):
    """After a successful negotiation the provider's session overlay plus
    its own knowledge suffice to re-derive the goal offline — no hidden
    state influenced the grant."""
    workload = build_random_bilateral(seed, key_bits=KEY_BITS)
    result, _ = measure_negotiation(workload)
    if not result.granted:
        return
    provider = workload.world.peers["Server"]
    from repro.negotiation.engine import EvalContext

    context = EvalContext(
        peer=provider,
        session=result.session,
        requester=workload.requester.name,
        kb=provider.kb,
        stores=[provider.credentials,
                result.session.received_for(provider.name)],
        allow_remote=False,
        drop_peers=frozenset({workload.requester.name}),
    )
    solutions = context.query_goal(workload.goal, max_solutions=1)
    grants = run_steps(provider.transport, provider._release_policy_grants_steps(
        workload.goal, workload.requester.name, result.session,
        allow_remote=False))
    assert solutions or grants


@given(SEEDS)
@settings(max_examples=8, deadline=None)
def test_property_disclosures_subset_of_wallets(seed):
    """Nothing materialises out of thin air: every credential in any
    session overlay originated in some participant's wallet or is an
    answer/self credential signed by a participant."""
    workload = build_random_bilateral(seed, key_bits=KEY_BITS)
    result, _ = measure_negotiation(workload)
    participant_names = set(workload.world.peers)
    wallet_serials = {
        credential.serial
        for peer in workload.world.peers.values()
        for credential in peer.credentials.credentials()
    }
    session = result.session
    for name in participant_names:
        for credential in session.received_for(name).credentials():
            assert (credential.serial in wallet_serials
                    or credential.primary_issuer in participant_names)
