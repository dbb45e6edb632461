"""Unit tests for the LTL toolkit: AST, parser, trace checker, Kripke
structures and the safety model checker."""

import re

import pytest

from repro.ltl.ast import (
    And,
    Atom,
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
from repro.ltl.model_checker import (
    CheckResult,
    ModelChecker,
    UnsupportedFormulaError,
    compile_step,
    step_source,
)
from repro.ltl.parser import LtlParseError, parse_ltl
from repro.ltl.properties import MODEL_BUILDERS
from repro.ltl.trace_checker import check_trace, evaluate_at, find_violation


class TestAst:
    def test_atoms_collected(self):
        formula = Globally(Implies(Atom("a"), Or(Atom("b"), Next(Atom("c")))))
        assert formula.atoms() == {"a", "b", "c"}

    def test_propositional_detection(self):
        assert And(Atom("a"), Not(Atom("b"))).is_propositional()
        assert not Next(Atom("a")).is_propositional()
        assert not Globally(Atom("a")).is_propositional()

    def test_next_depth(self):
        assert Atom("a").next_depth() == 0
        assert Next(Atom("a")).next_depth() == 1
        assert Next(Next(Atom("a"))).next_depth() == 2
        assert Globally(Implies(Atom("a"), Next(Atom("b")))).next_depth() == 1

    def test_operator_sugar(self):
        formula = Atom("a") & ~Atom("b") | Atom("c")
        assert isinstance(formula, Or)
        implication = Atom("a").implies(Atom("b"))
        assert isinstance(implication, Implies)

    def test_rendering(self):
        formula = Globally(Implies(Atom("pc_in_er"), Next(Atom("exec"))))
        text = str(formula)
        assert "G" in text and "X" in text and "pc_in_er" in text


class TestParser:
    def test_atoms_and_connectives(self):
        formula = parse_ltl("a & b | !c")
        assert formula.atoms() == {"a", "b", "c"}

    def test_implication_is_right_associative(self):
        formula = parse_ltl("a -> b -> c")
        assert isinstance(formula, Implies)
        assert isinstance(formula.right, Implies)

    def test_temporal_operators(self):
        assert isinstance(parse_ltl("G a"), Globally)
        assert isinstance(parse_ltl("X a"), Next)
        assert isinstance(parse_ltl("F a"), Finally)
        assert isinstance(parse_ltl("a U b"), Until)

    def test_paper_ltl1_shape(self):
        formula = parse_ltl(
            "G (pc_in_er & !X pc_in_er -> pc_at_ermax | !X exec)"
        )
        assert isinstance(formula, Globally)
        assert formula.atoms() == {"pc_in_er", "pc_at_ermax", "exec"}

    def test_parentheses(self):
        formula = parse_ltl("G ((a | b) & c)")
        assert isinstance(formula.operand, And)

    def test_constants(self):
        assert isinstance(parse_ltl("true"), TrueFormula)

    def test_round_trip_through_str(self):
        original = parse_ltl("G (Wen_ivt | DMA_ivt -> !X exec)")
        assert parse_ltl(str(original)) == original

    @pytest.mark.parametrize("bad", ["", "G", "a &", "(a", "a -> -> b", "a b"])
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(LtlParseError):
            parse_ltl(bad)


class TestTraceChecker:
    TRACE = [
        {"a": True, "b": False},
        {"a": True, "b": False},
        {"a": False, "b": True},
        {"a": False, "b": False},
    ]

    def test_atom_and_boolean_operators(self):
        assert evaluate_at(parse_ltl("a & !b"), self.TRACE, 0)
        assert not evaluate_at(parse_ltl("a & b"), self.TRACE, 0)
        assert evaluate_at(parse_ltl("a -> !b"), self.TRACE, 0)

    def test_next(self):
        assert evaluate_at(parse_ltl("X a"), self.TRACE, 0)
        assert not evaluate_at(parse_ltl("X a"), self.TRACE, 1)

    def test_weak_vs_strict_next_at_trace_end(self):
        assert evaluate_at(parse_ltl("X a"), self.TRACE, 3)
        assert not evaluate_at(parse_ltl("X a"), self.TRACE, 3, strict_next=True)

    def test_globally(self):
        assert check_trace(parse_ltl("G (a | b | true)"), self.TRACE)
        assert not check_trace(parse_ltl("G a"), self.TRACE)
        assert evaluate_at(parse_ltl("G !a"), self.TRACE, 2)

    def test_finally(self):
        assert check_trace(parse_ltl("F b"), self.TRACE)
        assert not evaluate_at(parse_ltl("F b"), self.TRACE, 3)

    def test_until(self):
        assert check_trace(parse_ltl("a U b"), self.TRACE)
        assert check_trace(parse_ltl("b U a"), self.TRACE)  # a already holds at 0
        # From position 2, b stops holding (at 3) before a ever holds.
        assert not evaluate_at(parse_ltl("b U a"), self.TRACE, 2)

    def test_find_violation_for_globally(self):
        assert find_violation(parse_ltl("G a"), self.TRACE) == 2
        assert find_violation(parse_ltl("G (a | b | !a)"), self.TRACE) is None

    def test_missing_atoms_read_false(self):
        assert not check_trace(parse_ltl("missing"), self.TRACE)

    def test_empty_trace_is_vacuous(self):
        assert check_trace(parse_ltl("G a"), [])

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            evaluate_at(parse_ltl("a"), self.TRACE, 10)


class TestKripkeStructure:
    ATOMS = ("bit0", "bit1", "zero")

    def build_counter(self, limit=3):
        """A counter modulo *limit* with a 'zero' atom."""

        def successors(state):
            next_value = ((state & 0b11) + 1) % limit
            yield next_value | (0b100 if next_value == 0 else 0)

        return KripkeStructure.build(self.ATOMS, [0b100], successors)

    def test_state_identity(self):
        # A state is an int: bit i is atoms[i].
        model = self.build_counter()
        assert model.as_dict(0b101) == {"bit0": True, "bit1": False, "zero": True}
        assert set(model.states) == {0b100, 0b001, 0b010}

    def test_build_explores_reachable_states(self):
        model = self.build_counter()
        assert model.state_count() == 3
        assert model.transition_count() == 3
        assert model.is_total()

    def test_initial_and_reachable(self):
        model = self.build_counter()
        assert len(model.initial_states) == 1
        assert model.reachable_states() == model.states

    def test_successors(self):
        model = self.build_counter()
        initial = next(iter(model.initial_states))
        successors = model.successors(initial)
        assert successors == (0b001,)

    def test_states_are_discovered_breadth_first(self):
        def successors(state):
            return {0: (1, 2), 1: (3,), 2: (3, 0), 3: ()}[state]

        model = KripkeStructure.build(("a", "b"), [0], successors)
        assert list(model.states) == [0, 1, 2, 3]
        assert model.path_to(3) == [0, 1, 3]
        assert model.path_to(0) == [0]
        assert not model.is_total()

    def test_duplicate_successors_collapse(self):
        model = KripkeStructure.build(("a",), [0, 0], lambda state: (1, 1, 0))
        assert model.initial_states == {0}
        assert model.successors(0) == (1, 0)
        assert model.transition_count() == 4

    def test_exploration_bound(self):
        atoms = tuple("n%d" % index for index in range(16))
        with pytest.raises(RuntimeError):
            KripkeStructure.build(atoms, [0], lambda state: (state + 1,), max_states=10)
        # The bound counts discovered states: exactly max_states is fine.
        model = KripkeStructure.build(atoms, [0], lambda state: ((state + 1) % 10,),
                                      max_states=10)
        assert model.state_count() == 10

    def test_states_outside_the_atoms_rejected(self):
        with pytest.raises(ValueError):
            KripkeStructure.build(("a", "b"), [0], lambda state: (0b100,))
        with pytest.raises(ValueError):
            KripkeStructure.build(("a",), [-1], lambda state: ())


class TestSharedSuccessorTuples:
    """Lost sharing leaves every check correct but slow: the checker
    projects each successor tuple once, keyed by the tuple's identity."""

    COUNTS = {
        "vrased": (512, 131072),
        "memory_protection": (64, 2048),
        "ivt_guard": (24, 192),
        "er_flow_apex": (16, 128),
        "er_flow_asap": (16, 128),
    }

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_equal_successor_tuples_are_one_object(self, verification_models, name):
        model = verification_models[name]
        first = {}
        for state in model.states:
            successors = model.successors(state)
            assert first.setdefault(successors, successors) is successors
        assert (model.state_count(), model.transition_count()) == self.COUNTS[name]


class TestModelChecker:
    def simple_model(self):
        """Two states over (p, q): p-state -> q-state -> q-state ..."""
        return KripkeStructure.build(("p", "q"), [0b01], lambda state: (0b10,))

    def test_invariant_holds(self):
        checker = ModelChecker(self.simple_model())
        result = checker.check(parse_ltl("G (p | q)"), name="p-or-q")
        assert result.holds
        assert result.states_explored == 2
        assert result.property_name == "p-or-q"

    def test_invariant_fails_with_counterexample(self):
        checker = ModelChecker(self.simple_model())
        result = checker.check(parse_ltl("G p"))
        assert not result.holds
        # The path from the initial state to the violating state, then
        # the violating successor.
        assert result.counterexample == [
            {"p": True, "q": False},
            {"p": False, "q": True},
            {"p": False, "q": True},
        ]

    def test_next_state_property(self):
        checker = ModelChecker(self.simple_model())
        assert checker.check(parse_ltl("G (p -> X q)")).holds
        assert not checker.check(parse_ltl("G (q -> X p)")).holds

    def test_bare_propositional_formula_treated_as_invariant(self):
        checker = ModelChecker(self.simple_model())
        assert checker.check(parse_ltl("p | q")).holds

    def test_unsupported_formulas_rejected(self):
        checker = ModelChecker(self.simple_model())
        with pytest.raises(UnsupportedFormulaError):
            checker.check(parse_ltl("F p"))
        with pytest.raises(UnsupportedFormulaError):
            checker.check(parse_ltl("G (p -> X X q)"))
        with pytest.raises(UnsupportedFormulaError):
            checker.check(parse_ltl("G (F p)"))
        with pytest.raises(UnsupportedFormulaError):
            checker.check(parse_ltl("G X (G p)"))

    def test_unsupported_formulas_rejected_before_any_state(self):
        # The offending operand sits behind a short-circuit that no state
        # ever evaluates; the formula is still rejected.
        checker = ModelChecker(self.simple_model())
        with pytest.raises(UnsupportedFormulaError):
            checker.check(parse_ltl("G (false -> F p)"))
        with pytest.raises(UnsupportedFormulaError):
            checker.check(parse_ltl("G (true | (p U q))"))

    def test_weak_next_at_deadlock_states(self):
        model = KripkeStructure.build(("p",), [0], lambda state: ())
        checker = ModelChecker(model)
        assert checker.check(parse_ltl("G X p")).holds
        assert checker.check(parse_ltl("G X false")).holds
        result = checker.check(parse_ltl("G !X p"))
        assert not result.holds
        assert result.transitions_checked == 0
        assert result.counterexample == [{"p": False}]

    def test_unknown_atoms_read_false(self):
        checker = ModelChecker(self.simple_model())
        assert checker.check(parse_ltl("G !missing")).holds
        assert checker.check(parse_ltl("G (p -> !X missing)")).holds
        assert not checker.check(parse_ltl("G missing")).holds

    def test_compiled_source_holds_only_masks(self):
        formula = parse_ltl("pc_in_er & !X pc_in_er -> pc_at_ermax | !X exec | missing | true")
        source = step_source(formula, {"pc_in_er": 1, "pc_at_ermax": 4, "exec": 16})
        words = set(re.findall(r"[A-Za-z_]\w*", source))
        assert words <= {"s", "t", "not", "and", "or", "is", "None", "True", "False"}
        assert "(s & 0)" in source  # the unknown atom
        step = compile_step(parse_ltl("pc_in_er & !X pc_in_er -> pc_at_ermax | X exec"),
                            ("pc_in_er", "pc_at_ermin", "pc_at_ermax", "exec"))
        assert not step(0b0001, 0b0000)  # illegal exit from ER
        assert step(0b0101, 0b0000)  # exit from ER_max
        assert step(0b0001, 0b1000)  # EXEC stays up
        assert step(0b0001, None)  # weak next at a deadlock

    def test_check_suite(self):
        checker = ModelChecker(self.simple_model())
        results = checker.check_suite([
            ("one", parse_ltl("G (p | q)")),
            ("two", parse_ltl("G (p -> X q)")),
        ])
        assert all(result.holds for result in results)
        assert [result.property_name for result in results] == ["one", "two"]

    def test_result_is_truthy(self):
        assert CheckResult(holds=True)
        assert not CheckResult(holds=False)
