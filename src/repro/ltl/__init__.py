"""LTL specification and verification toolkit.

The paper verifies the ASAP hardware against LTL properties with the
NuSMV model checker (21 properties, Section 5).  This package is the
reproduction's stand-in:

* :mod:`repro.ltl.ast` / :mod:`repro.ltl.parser` -- LTL formulas with the
  ``G`` (globally), ``X`` (next), ``F`` (eventually) and ``U`` (until)
  operators plus the propositional connectives used by the paper.
* :mod:`repro.ltl.trace_checker` -- finite-trace semantics, used to check
  properties directly against simulator traces.
* :mod:`repro.ltl.kripke` / :mod:`repro.ltl.model_checker` -- explicit-
  state safety model checking over Kripke structures built from the
  monitor FSMs composed with a nondeterministic environment.
* :mod:`repro.ltl.properties` -- the APEX/ASAP/VRASED property suites
  (the reproduction's equivalent of the paper's 21 verified properties).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Atom": "repro.ltl.ast",
    "Not": "repro.ltl.ast",
    "And": "repro.ltl.ast",
    "Or": "repro.ltl.ast",
    "Implies": "repro.ltl.ast",
    "Next": "repro.ltl.ast",
    "Globally": "repro.ltl.ast",
    "Finally": "repro.ltl.ast",
    "Until": "repro.ltl.ast",
    "TrueFormula": "repro.ltl.ast",
    "FalseFormula": "repro.ltl.ast",
    "parse_ltl": "repro.ltl.parser",
    "LtlParseError": "repro.ltl.parser",
    "check_trace": "repro.ltl.trace_checker",
    "find_violation": "repro.ltl.trace_checker",
    "evaluate_at": "repro.ltl.trace_checker",
    "KripkeStructure": "repro.ltl.kripke",
    "ModelChecker": "repro.ltl.model_checker",
    "CheckResult": "repro.ltl.model_checker",
    "apex_property_suite": "repro.ltl.properties",
    "asap_property_suite": "repro.ltl.properties",
    "vrased_property_suite": "repro.ltl.properties",
    "build_apex_model": "repro.ltl.properties",
    "build_asap_model": "repro.ltl.properties",
    "build_vrased_model": "repro.ltl.properties",
    "PropertySpec": "repro.ltl.properties",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
