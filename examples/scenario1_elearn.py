#!/usr/bin/env python3
"""Scenario 1 (paper §4.1): Alice negotiates with E-Learn Associates.

Reproduces the paper's two §4.1/§3.1 stories end to end:

1. **Discounted enrollment** — Alice proves she is a UIUC student (via the
   registrar-signed ID plus the UIUC delegation rule), which makes her an
   ELENA preferred customer; she only releases the credentials after
   E-Learn proves Better Business Bureau membership.
2. **Free Spanish course for police officers** — Alice's CSP-signed badge,
   released under the same BBB guard.

Run it:

    python examples/scenario1_elearn.py
"""

from repro.negotiation.proof import CertifiedProof, verify_proof
from repro.datalog.parser import parse_literal
from repro.scenarios.elearn import (
    build_scenario1,
    run_discount_negotiation,
    run_free_police_enrollment,
)


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("Discounted enrollment (ELENA preferred customer)")
    scenario = build_scenario1(key_bits=512)
    result = run_discount_negotiation(scenario)
    print(f"granted: {result.granted}")
    print(f"course:  {result.binding('Course')}")
    print("\ntranscript:")
    print(result.session.render_transcript())

    # E-Learn can package what it received as an independently verifiable
    # certified proof of Alice's student status (paper §6).
    received = result.session.received_for("E-Learn")
    package = CertifiedProof(
        parse_literal('student("Alice") @ "UIUC"'),
        tuple(c for c in received.credentials()
              if c.rule.head.predicate == "student"),
        assembled_by="E-Learn")
    verify_proof(package, scenario.elearn.keyring)
    print(f"\ncertified proof of {package.goal} verified "
          f"({len(package.credentials)} credential(s))")

    banner("Free Spanish course (police badge, BBB-gated release)")
    scenario = build_scenario1(key_bits=512)
    result = run_free_police_enrollment(scenario)
    print(f"granted: {result.granted} for course {result.binding('Course')}")
    print("\ntranscript:")
    print(result.session.render_transcript())

    banner("Counterfactual: a stranger cannot ask about Alice's discount")
    scenario = build_scenario1(key_bits=512)
    mallory = scenario.world.add_peer("Mallory")
    scenario.world.distribute_keys()
    from repro.negotiation.strategies import negotiate

    denied = negotiate(mallory, "E-Learn",
                       parse_literal('discountEnroll(Course, "Alice")'))
    print(f"Mallory asking about Alice: granted={denied.granted} "
          f"({denied.failure_reason})")


if __name__ == "__main__":
    main()
