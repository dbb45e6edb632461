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

from repro.ltl.ast import (
    Atom,
    Not,
    And,
    Or,
    Implies,
    Next,
    Globally,
    Finally,
    Until,
    TrueFormula,
    FalseFormula,
)
from repro.ltl.parser import parse_ltl, LtlParseError
from repro.ltl.trace_checker import check_trace, find_violation, evaluate_at
from repro.ltl.kripke import KripkeStructure
from repro.ltl.model_checker import ModelChecker, CheckResult
from repro.ltl.properties import (
    apex_property_suite,
    asap_property_suite,
    vrased_property_suite,
    build_apex_model,
    build_asap_model,
    build_vrased_model,
    PropertySpec,
)

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Next",
    "Globally",
    "Finally",
    "Until",
    "TrueFormula",
    "FalseFormula",
    "parse_ltl",
    "LtlParseError",
    "check_trace",
    "find_violation",
    "evaluate_at",
    "KripkeStructure",
    "ModelChecker",
    "CheckResult",
    "apex_property_suite",
    "asap_property_suite",
    "vrased_property_suite",
    "build_apex_model",
    "build_asap_model",
    "build_vrased_model",
    "PropertySpec",
]
