"""E3 — Policy protection (§2, §4.2).

Verifies across the whole Scenario-2 message flow that the private
``freebieEligible`` definition never crosses the wire, that UniPro gates
its dissemination, and measures the message savings when an informed
employee pushes credentials proactively.
"""

from conftest import KEY_BITS

from repro.bench.reporting import print_table
from repro.datalog.parser import parse_goals, parse_literal
from repro.determinism import reset_all
from repro.net.message import DisclosureMessage, PolicyRequestMessage, QueryMessage
from repro.negotiation.session import next_session_id
from repro.scenarios.services import build_scenario2, run_free_enrollment


def _pushed_enrollment_messages():
    scenario = build_scenario2(key_bits=KEY_BITS)
    scenario.world.reset_metrics()
    session_id = next_session_id("push-bench")
    push = [c for c in scenario.bob.credentials.credentials()
            if c.rule.head.predicate in ("employee", "member")]
    push.append(scenario.bob.self_credential(
        parse_literal('email("Bob", "Bob@ibm.com")')))
    scenario.world.transport.send(DisclosureMessage(
        sender="Bob", receiver="E-Learn", session_id=session_id,
        credentials=tuple(push)))
    reply = scenario.world.transport.request(QueryMessage(
        sender="Bob", receiver="E-Learn", session_id=session_id,
        goal=parse_literal('enroll(cs101, "Bob", Company, Email, 0)')))
    assert not reply.is_failure
    return scenario.world.stats.messages, scenario.world.stats.bytes


def test_e3_policy_protection(benchmark):
    # 1. Leak scan over a full negotiation.
    reset_all()  # every row starts from fixed id counters
    scenario = build_scenario2(key_bits=KEY_BITS)
    result = run_free_enrollment(scenario)
    leaks = [e for e in result.session.transcript
             if "freebieEligible" in e.detail
             and e.kind in ("disclose", "receive", "answer")]
    baseline_messages = scenario.world.stats.messages
    baseline_bytes = scenario.world.stats.bytes

    # 2. UniPro dissemination outcomes.
    scenario2 = build_scenario2(key_bits=KEY_BITS)
    scenario2.elearn.unipro.register_from_kb(
        scenario2.elearn.kb, "freebieEligible", 4,
        protection=parse_goals(
            'employee(Requester) @ Company @ Requester, '
            'member(Company) @ "ELENA" @ Requester'))
    employee_reply = scenario2.elearn.handle(PolicyRequestMessage(
        sender="Bob", receiver="E-Learn",
        session_id=next_session_id("up"), policy_name="freebieEligible"))
    stranger = scenario2.world.add_peer("Stranger")
    scenario2.world.distribute_keys()
    stranger_reply = scenario2.elearn.handle(PolicyRequestMessage(
        sender="Stranger", receiver="E-Learn",
        session_id=next_session_id("up"), policy_name="freebieEligible"))

    # 3. Push-based enrollment.
    reset_all()
    pushed_messages, pushed_bytes = _pushed_enrollment_messages()

    print_table([
        {"check": "private rule leaks during negotiation",
         "value": len(leaks), "expected": 0},
        {"check": "UniPro grants definition to IBM employee",
         "value": employee_reply.granted, "expected": True},
        {"check": "UniPro refuses definition to stranger",
         "value": stranger_reply.granted, "expected": False},
        {"check": "messages without credential pushing",
         "value": baseline_messages, "expected": "-"},
        {"check": "messages with credential pushing",
         "value": pushed_messages, "expected": "< baseline"},
    ], title="E3 - policy protection")

    assert not leaks
    assert employee_reply.granted and not stranger_reply.granted
    assert pushed_messages < baseline_messages

    benchmark(_pushed_enrollment_messages)
