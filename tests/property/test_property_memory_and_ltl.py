"""Property-based tests for memory, assembler sizing and LTL semantics,
the model checker against the trace checker, and the Kripke build and
the model checker against the loops they replaced (``reference_ltl.py``)."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from reference_ltl import ReferenceKripkeStructure, ReferenceModelChecker

from repro.ltl import properties
from repro.ltl.ast import (
    And,
    Atom,
    FalseFormula,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueFormula,
    Until,
)
from repro.ltl.kripke import KripkeStructure
from repro.ltl.model_checker import ModelChecker, UnsupportedFormulaError
from repro.ltl.parser import parse_ltl
from repro.ltl.properties import MODEL_BUILDERS, apex_property_suite, asap_property_suite
from repro.ltl.trace_checker import check_trace, evaluate_at, find_violation
from repro.memory.layout import MemoryRegion
from repro.memory.memory import Memory


class TestMemoryProperties:
    @given(st.integers(min_value=0, max_value=0xFFFE),
           st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=200)
    def test_word_write_read_roundtrip(self, address, value):
        memory = Memory()
        memory.write_word(address, value)
        assert memory.peek_word(address) == value

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=200)
    def test_load_dump_roundtrip(self, address, data):
        if address + len(data) > 0x10000:
            address = 0x10000 - len(data)
        memory = Memory()
        memory.load_bytes(address, data)
        assert memory.dump(address, len(data)) == data

    @given(st.integers(min_value=0, max_value=0xFFF0),
           st.integers(min_value=0, max_value=0xF))
    @settings(max_examples=200)
    def test_region_contains_is_consistent_with_bounds(self, start, length):
        region = MemoryRegion(start, start + length)
        for address in (start, start + length):
            assert region.contains(address)
        if start > 0:
            assert not region.contains(start - 1)
        if start + length < 0xFFFF:
            assert not region.contains(start + length + 1)

    @given(st.integers(min_value=0, max_value=0xFF00),
           st.integers(min_value=0, max_value=0xFF),
           st.integers(min_value=0, max_value=0xFF00),
           st.integers(min_value=0, max_value=0xFF))
    @settings(max_examples=200)
    def test_overlap_is_symmetric(self, start_a, len_a, start_b, len_b):
        region_a = MemoryRegion(start_a, start_a + len_a)
        region_b = MemoryRegion(start_b, start_b + len_b)
        assert region_a.overlaps(region_b) == region_b.overlaps(region_a)


#: Random finite traces over three atoms.
traces = st.lists(
    st.fixed_dictionaries({
        "p": st.booleans(),
        "q": st.booleans(),
        "r": st.booleans(),
    }),
    min_size=1,
    max_size=12,
)


class TestLtlSemanticsProperties:
    @given(traces)
    @settings(max_examples=200)
    def test_globally_p_iff_no_violation_found(self, trace):
        formula = Globally(Atom("p"))
        holds = check_trace(formula, trace)
        violation = find_violation(formula, trace)
        assert holds == (violation is None)
        if violation is not None:
            assert not trace[violation]["p"]

    @given(traces)
    @settings(max_examples=200)
    def test_double_negation(self, trace):
        assert check_trace(Not(Not(Atom("p"))), trace) == check_trace(Atom("p"), trace)

    @given(traces)
    @settings(max_examples=200)
    def test_implication_equivalence(self, trace):
        implication = Implies(Atom("p"), Atom("q"))
        disjunction = parse_ltl("!p | q")
        assert check_trace(implication, trace) == check_trace(disjunction, trace)

    @given(traces, st.integers(min_value=0, max_value=11))
    @settings(max_examples=200)
    def test_next_shifts_evaluation(self, trace, position):
        if position >= len(trace) - 1:
            return
        assert evaluate_at(Next(Atom("q")), trace, position) == evaluate_at(
            Atom("q"), trace, position + 1
        )

    @given(traces)
    @settings(max_examples=200)
    def test_globally_monotone_in_suffix(self, trace):
        formula = Globally(Atom("p"))
        if check_trace(formula, trace):
            for position in range(len(trace)):
                assert evaluate_at(formula, trace, position)

    @given(traces)
    @settings(max_examples=150)
    def test_parser_and_str_are_inverse_on_suite_shapes(self, trace):
        formula = parse_ltl("G (p & q -> X r)")
        assert parse_ltl(str(formula)) == formula
        # Semantics preserved through the round trip as well.
        assert check_trace(parse_ltl(str(formula)), trace) == check_trace(formula, trace)


#: Atom names of the random structures; formulas may also name an atom
#: no structure has, which must read false.
MODEL_ATOMS = ("p", "q", "r", "s")


@st.composite
def kripke_inputs(draw):
    """The ``(atoms, initial, successors)`` of a random structure over at
    most four atoms: every state gets up to four successors, none at all
    making it a deadlock state.  Most states take their list from a
    small pool, so that states share successor sets; the pool holds two
    to four distinct lists of one length, plus at most one list of any
    length (the empty one included)."""
    atoms = MODEL_ATOMS[:draw(st.integers(min_value=1, max_value=4))]
    states = st.integers(min_value=0, max_value=(1 << len(atoms)) - 1)
    any_list = st.lists(states, max_size=4)
    width = draw(st.integers(min_value=1, max_value=min(4, 1 << len(atoms))))
    pool = draw(st.lists(st.lists(states, min_size=width, max_size=width, unique=True),
                         min_size=2, max_size=4, unique_by=tuple))
    pool += draw(st.lists(any_list, max_size=1))
    shared = st.sampled_from(pool)
    # A state takes its list from the pool three times in four.
    table = draw(st.lists(st.one_of(shared, shared, shared, any_list),
                          min_size=1 << len(atoms), max_size=1 << len(atoms)))
    initial = draw(st.lists(states, min_size=1, max_size=3))
    return atoms, initial, table.__getitem__


def kripke_structures():
    """A random structure built from :func:`kripke_inputs`."""
    return kripke_inputs().map(lambda inputs: KripkeStructure.build(*inputs))


def _connectives(children):
    return st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda pair: And(*pair)),
        st.tuples(children, children).map(lambda pair: Or(*pair)),
        st.tuples(children, children).map(lambda pair: Implies(*pair)),
    )


propositional = st.recursive(
    st.sampled_from([Atom(name) for name in MODEL_ATOMS + ("missing",)]
                    + [TrueFormula(), FalseFormula()]),
    _connectives, max_leaves=6)

#: Bodies of ``G`` in the checker's fragment: propositional plus one X.
step_bodies = st.recursive(
    st.one_of(propositional, propositional.map(Next)), _connectives, max_leaves=4)

#: Operators outside the fragment.
unsupported = st.sampled_from([
    Next(Next(Atom("p"))),
    Finally(Atom("p")),
    Until(Atom("p"), Atom("q")),
    Next(Globally(Atom("p"))),
])


def _trace_checker_verdict(model, body):
    """``G body`` over every reachable transition, by the trace checker;
    a deadlock state is a one-state trace (weak next)."""
    for state in model.reachable_states():
        successors = model.successors(state)
        if not successors and not evaluate_at(body, [model.as_dict(state)], 0):
            return False
        for successor in successors:
            if not evaluate_at(body, [model.as_dict(state), model.as_dict(successor)], 0):
                return False
    return True


class TestModelCheckerMatchesTraceChecker:
    @given(kripke_structures(), step_bodies)
    @settings(max_examples=300, deadline=None)
    def test_verdicts_agree(self, model, body):
        result = ModelChecker(model).check(Globally(body))
        assert result.holds == _trace_checker_verdict(model, body)
        assert result.states_explored == model.state_count()
        if result.holds:
            assert result.transitions_checked == model.transition_count()
            return
        path = [sum(1 << index for index, atom in enumerate(model.atoms) if values[atom])
                for values in result.counterexample]
        assert path[0] in model.initial_states
        for source, target in zip(path, path[1:]):
            assert target in model.successors(source)
        last = result.counterexample[-1]
        assert (not evaluate_at(body, result.counterexample[-2:], 0)
                or not model.successors(path[-1]) and not evaluate_at(body, [last], 0))

    @given(kripke_structures(), step_bodies, unsupported, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_unsupported_operators_rejected(self, model, body, bad, bad_first):
        formula = Or(bad, body) if bad_first else And(body, bad)
        with pytest.raises(UnsupportedFormulaError):
            ModelChecker(model).check(Globally(formula))


def _result_fields(result):
    """Every field of a ``CheckResult`` but its wall-clock time."""
    fields = dataclasses.asdict(result)
    del fields["elapsed_seconds"]
    return fields


def _assert_same_structure(model, reference):
    """The same atoms and initial states, the same states in the same
    order, the same successors and the same shortest paths."""
    assert model.atoms == reference.atoms
    assert model.initial_states == reference.initial_states
    assert list(model.states) == list(reference.states)
    for state in reference.states:
        assert model.successors(state) == reference.successors(state)
        assert model.path_to(state) == reference.path_to(state)


def _holds_only_at(state, atoms):
    """The conjunction of literals that holds at *state* and nowhere else."""
    literals = [Atom(atom) if state >> index & 1 else Not(Atom(atom))
                for index, atom in enumerate(atoms)]
    return functools.reduce(And, literals)


class TestBuildAndCheckMatchTheReference:
    @given(kripke_inputs(), st.lists(step_bodies, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_random_structures(self, inputs, bodies):
        model = KripkeStructure.build(*inputs)
        reference = ReferenceKripkeStructure.build(*inputs)
        _assert_same_structure(model, reference)
        for body in bodies:
            # A check reports only its first failing state, and most
            # bodies fail at the first state.  ``G (at_s -> body)`` fails
            # at *s* or nowhere, so each state's verdict shows.
            for formula in [body] + [Implies(_holds_only_at(state, model.atoms), body)
                                     for state in reference.states]:
                result = ModelChecker(model).check(Globally(formula))
                expected = ReferenceModelChecker(reference).check(Globally(formula))
                assert _result_fields(result) == _result_fields(expected)


#: E6's 21 ASAP properties and APEX's LTL 3.
E6_PROPERTIES = asap_property_suite() + [
    spec for spec in apex_property_suite() if spec.name == "apex-ltl3-no-interrupts"]


def _negated_consequent(formula):
    """``G (a -> !b)`` for ``G (a -> b)``."""
    assert isinstance(formula, Globally) and isinstance(formula.operand, Implies)
    return Globally(Implies(formula.operand.left, Not(formula.operand.right)))


@pytest.fixture(scope="module")
def e6_models():
    """Every E6 model, built by ``KripkeStructure`` and by the reference."""
    models = {name: builder() for name, builder in MODEL_BUILDERS.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "KripkeStructure", ReferenceKripkeStructure)
        references = {name: builder() for name, builder in MODEL_BUILDERS.items()}
    assert all(type(model) is ReferenceKripkeStructure for model in references.values())
    return models, references


class TestE6MatchesTheReference:
    """E6's models, and every property checked on them with a failing
    variant of it, so that the failure path also runs on the
    131,072-transition VRASED model."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_models(self, e6_models, name):
        models, references = e6_models
        _assert_same_structure(models[name], references[name])

    @pytest.mark.parametrize("spec", E6_PROPERTIES, ids=lambda spec: spec.name)
    def test_property_and_its_negated_consequent(self, e6_models, spec):
        models, references = e6_models
        model, reference = models[spec.model], references[spec.model]
        variant = _negated_consequent(spec.formula)
        results = [ModelChecker(model).check(formula, name=spec.name)
                   for formula in (spec.formula, variant)]
        expected = [ReferenceModelChecker(reference).check(formula, name=spec.name)
                    for formula in (spec.formula, variant)]
        assert [_result_fields(result) for result in results] == \
            [_result_fields(result) for result in expected]
        assert [result.holds for result in results] == [True, False]
