"""Unit tests for the abstract monitor models and the property suites."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.ltl.kripke import KripkeStructure
from repro.ltl.model_checker import ModelChecker
from repro.ltl.parser import parse_ltl
from repro.ltl.properties import (
    MODEL_BUILDERS,
    apex_property_suite,
    asap_new_property_suite,
    asap_property_suite,
    build_apex_model,
    build_asap_model,
    build_model,
    vrased_property_suite,
)


def encode(model, values):
    """The int state of *model* that *values* renders."""
    return sum(1 << index for index, atom in enumerate(model.atoms) if values[atom])


def assert_is_path(model, counterexample):
    """*counterexample* starts at an initial state and follows transitions."""
    states = [encode(model, values) for values in counterexample]
    assert states[0] in model.initial_states
    for source, target in zip(states, states[1:]):
        assert target in model.successors(source)


def guardless_ivt_model():
    """The Fig. 3 model with the guard cut off from EXEC: EXEC rises at
    ER_min and then ignores ``Wen_ivt``/``DMA_ivt``."""
    atoms = ("Wen_ivt", "DMA_ivt", "pc_at_ermin", "guard_run", "exec")
    wen_ivt, dma_ivt, at_ermin, guard_run, exec_ = (1 << index for index in range(5))
    environment = [wen | dma | pc for wen in (0, wen_ivt) for dma in (0, dma_ivt)
                   for pc in (0, at_ermin)]

    def successors(state):
        if state & (wen_ivt | dma_ivt):
            run = 0
        elif state & at_ermin:
            run = guard_run
        else:
            run = state & guard_run
        for inputs in environment:
            exec_next = exec_ if inputs & at_ermin or state & exec_ else 0
            yield inputs | run | exec_next

    return KripkeStructure.build(atoms, [inputs | guard_run for inputs in environment],
                                 successors)


class TestSuiteComposition:
    def test_asap_suite_has_21_properties(self):
        assert len(asap_property_suite()) == 21

    def test_vrased_suite_has_10_properties(self):
        assert len(vrased_property_suite()) == 10

    def test_apex_suite_includes_ltl3(self):
        names = [spec.name for spec in apex_property_suite()]
        assert "apex-ltl3-no-interrupts" in names

    def test_asap_suite_drops_ltl3_and_adds_ap1(self):
        names = [spec.name for spec in asap_property_suite()]
        assert "apex-ltl3-no-interrupts" not in names
        assert "asap-ltl4-ivt-immutability" in names

    def test_asap_new_properties_are_three(self):
        assert len(asap_new_property_suite()) == 3

    def test_property_origins(self):
        origins = {spec.origin for spec in asap_property_suite()}
        assert origins == {"vrased", "apex", "asap"}

    def test_every_property_parses(self):
        for spec in asap_property_suite() + apex_property_suite():
            formula = spec.formula
            assert formula.atoms()

    def test_every_property_references_a_known_model(self):
        for spec in asap_property_suite() + apex_property_suite():
            assert spec.model in MODEL_BUILDERS

    def test_names_are_unique(self):
        names = [spec.name for spec in asap_property_suite()]
        assert len(names) == len(set(names))


class TestModels:
    def test_build_model_by_name(self):
        model = build_model("ivt_guard")
        assert model.state_count() > 0
        with pytest.raises(KeyError):
            build_model("missing-model")

    def test_er_flow_models_differ_only_in_ltl3(self, verification_models):
        apex = verification_models["er_flow_apex"]
        asap = verification_models["er_flow_asap"]
        checker_apex = ModelChecker(apex)
        checker_asap = ModelChecker(asap)
        ltl3 = parse_ltl("G (pc_in_er & irq -> !X exec)")
        assert checker_apex.check(ltl3).holds
        assert not checker_asap.check(ltl3).holds

    def test_models_are_total(self, verification_models):
        for name, model in verification_models.items():
            assert model.is_total(), name

    def test_convenience_builders(self):
        assert build_apex_model().state_count() == build_asap_model().state_count()


class TestPropertyVerification:
    def check(self, models, spec):
        return ModelChecker(models[spec.model]).check(spec.formula, name=spec.name)

    def test_all_asap_properties_hold(self, verification_models):
        failures = [
            spec.name
            for spec in asap_property_suite()
            if not self.check(verification_models, spec).holds
        ]
        assert failures == []

    def test_all_apex_properties_hold(self, verification_models):
        failures = [
            spec.name
            for spec in apex_property_suite()
            if not self.check(verification_models, spec).holds
        ]
        assert failures == []

    def test_ltl4_fails_on_a_model_without_the_guard(self):
        # Sanity: LTL 4 is not vacuous -- it fails against the Fig. 3
        # model once EXEC ignores the guard and the IVT writes.
        model = guardless_ivt_model()
        spec = next(spec for spec in asap_new_property_suite()
                    if spec.name == "asap-ltl4-ivt-immutability")
        result = ModelChecker(model).check(spec.formula, name=spec.name)
        assert not result.holds
        assert_is_path(model, result.counterexample)
        before, after = result.counterexample[-2:]
        assert before["Wen_ivt"] or before["DMA_ivt"]
        assert after["exec"]

    def test_exec_rises_only_at_ermin_has_counterexample_potential(self, verification_models):
        # The converse property must fail (EXEC does not rise at every
        # ER_min visit after a violation-free step is not required).
        checker = ModelChecker(verification_models["er_flow_asap"])
        converse = parse_ltl("G (X pc_at_ermin -> X exec)")
        assert checker.check(converse).holds  # the model always sets EXEC at ER_min
        stronger = parse_ltl("G (exec -> pc_in_er)")
        assert not checker.check(stronger).holds


#: Checks APEX's LTL 3 on the ASAP control-flow model, where it fails,
#: and prints the verdict, the counts and the counterexample.
_COUNTEREXAMPLE_SCRIPT = """
import json
from repro.ltl.model_checker import ModelChecker
from repro.ltl.parser import parse_ltl
from repro.ltl.properties import build_model
result = ModelChecker(build_model("er_flow_asap")).check(
    parse_ltl("G (pc_in_er & irq -> !X exec)"))
print(json.dumps([result.holds, result.states_explored,
                  result.transitions_checked, result.counterexample]))
"""


def _counterexample_in_subprocess(hash_seed):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    completed = subprocess.run([sys.executable, "-c", _COUNTEREXAMPLE_SCRIPT], env=env,
                               capture_output=True, text=True, check=True)
    return json.loads(completed.stdout)


class TestCounterexamples:
    def test_counterexample_does_not_depend_on_the_hash_seed(self):
        first = _counterexample_in_subprocess(1)
        second = _counterexample_in_subprocess(2)
        assert first == second
        holds, states, transitions, counterexample = first
        assert not holds
        assert states == 16
        assert 0 < transitions <= 128
        assert counterexample

    def test_counterexample_is_a_path_to_a_violation(self, verification_models):
        model = verification_models["er_flow_asap"]
        result = ModelChecker(model).check(parse_ltl("G (pc_in_er & irq -> !X exec)"))
        assert not result.holds
        assert_is_path(model, result.counterexample)
        before, after = result.counterexample[-2:]
        assert before["pc_in_er"] and before["irq"] and after["exec"]
        # Shortest path: an initial state inside ER with an interrupt
        # pending, then a step to ER_min that raises EXEC.
        assert len(result.counterexample) == 2
