"""Explicit-state safety model checking.

Every property the paper verifies (LTL 1-4 and the VRASED
sub-properties) has the shape ``G psi`` where ``psi`` mixes current-state
atoms with at most one level of ``X`` (next-state atoms).  For that
class, model checking reduces to examining every reachable transition of
the Kripke structure: the property holds iff ``psi`` evaluates to true
over every reachable pair ``(state, successor)``.

:class:`ModelChecker` implements exactly that (plus plain invariants).
Each check compiles ``psi`` once, before it visits any state, into one
function ``step(s, t)`` over int-coded states (see
:mod:`repro.ltl.kripke`): a generated lambda whose source holds only
integer masks (``s & 4``), ``s``/``t``, ``not``/``and``/``or``,
``True``/``False`` and ``t is None``.  Atom names never enter it; an atom
the model lacks gets mask 0 and reads false.  A formula outside the
fragment raises :class:`UnsupportedFormulaError` at compile time.

States are visited in BFS order, and every reachable transition is
covered without being evaluated one by one.  ``step`` sees a successor
only through the atoms ``psi`` reads under ``X``, so for each successor
tuple of the model (shared by every state with that successor set, see
:mod:`repro.ltl.kripke`) the check projects the successors onto those
atoms once and keeps the distinct projections.  A state is then
evaluated against its tuple's projections: the VRASED model's 256
successors per state project onto at most 8 for any of its properties.
Only a state that fails is rescanned, successor by successor, for the
first failing one, so the verdict, the counts and the counterexample are
those of the transition-by-transition loop.  A state without successors
(a deadlock) is checked once with ``t = None``, where ``X phi`` holds:
the weak next of :mod:`repro.ltl.trace_checker`.  A failing check
reports a counterexample path: the shortest path from an initial state
to the violating state, plus the violating successor.  Each check
records simple statistics (states, transitions covered, wall-clock time)
that the verification-cost bench aggregates into the reproduction's
analogue of the paper's "21 properties, ~150 s" result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.ltl.ast import (
    And,
    Atom,
    FalseFormula,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueFormula,
)
from repro.ltl.kripke import KripkeStructure


class UnsupportedFormulaError(Exception):
    """Raised for formulas outside the supported safety fragment."""


@dataclass
class CheckResult:
    """Result of model checking one property."""

    holds: bool
    property_name: str = ""
    states_explored: int = 0
    transitions_checked: int = 0
    elapsed_seconds: float = 0.0
    counterexample: List[Dict[str, bool]] = field(default_factory=list)

    def __bool__(self):
        return self.holds


def step_source(formula: Formula, masks: Mapping[str, int], var="s") -> str:
    """Python source for a propositional-plus-one-X *formula* over the
    int states ``s`` (current) and ``t`` (successor, ``None`` at a
    deadlock).  *var* is the state atoms read: ``s``, or ``t`` under
    ``X``.  An atom missing from *masks* gets mask 0: it reads false.

    :raises UnsupportedFormulaError: outside the fragment.
    """
    if isinstance(formula, TrueFormula):
        return "True"
    if isinstance(formula, FalseFormula):
        return "False"
    if isinstance(formula, Atom):
        return "(%s & %d)" % (var, masks.get(formula.name, 0))
    if isinstance(formula, Not):
        return "(not %s)" % step_source(formula.operand, masks, var)
    if isinstance(formula, And):
        return "(%s and %s)" % (step_source(formula.left, masks, var),
                                step_source(formula.right, masks, var))
    if isinstance(formula, Or):
        return "(%s or %s)" % (step_source(formula.left, masks, var),
                               step_source(formula.right, masks, var))
    if isinstance(formula, Implies):
        return "(not %s or %s)" % (step_source(formula.left, masks, var),
                                   step_source(formula.right, masks, var))
    if isinstance(formula, Next):
        if var != "s":
            raise UnsupportedFormulaError("X nesting deeper than 1 is not supported")
        return "(t is None or %s)" % step_source(formula.operand, masks, "t")
    raise UnsupportedFormulaError(
        "formula %s is outside the supported safety fragment" % formula
    )


def compile_step(formula: Formula, atoms: Sequence[str]) -> Callable[[int, Optional[int]], object]:
    """Compile *formula* into ``step(s, t)``, truthy iff it holds over the
    transition ``s -> t`` of a structure over *atoms*."""
    masks = {atom: 1 << index for index, atom in enumerate(atoms)}
    return eval("lambda s, t: " + step_source(formula, masks), {"__builtins__": {}})


def _next_atoms(formula: Formula) -> FrozenSet[str]:
    """The atoms a propositional-plus-one-X *formula* reads under ``X``."""
    if isinstance(formula, Next):
        return formula.operand.atoms()
    if isinstance(formula, Not):
        return _next_atoms(formula.operand)
    if isinstance(formula, (And, Or, Implies)):
        return _next_atoms(formula.left) | _next_atoms(formula.right)
    return frozenset()


class ModelChecker:
    """Checks ``G``-shaped safety properties against a Kripke structure."""

    def __init__(self, model: KripkeStructure):
        self.model = model

    def check(self, formula: Formula, name="") -> CheckResult:
        """Model-check one property.

        :raises UnsupportedFormulaError: for formulas outside the
            ``G (propositional + X)`` fragment.
        """
        started = time.perf_counter()
        if isinstance(formula, Globally):
            body = formula.operand
        elif formula.is_propositional():
            # A bare propositional formula is treated as an invariant.
            body = formula
        else:
            raise UnsupportedFormulaError(
                "only G-shaped safety properties are supported, got %s" % formula
            )
        atoms = self.model.atoms
        step = compile_step(body, atoms)
        # ``step`` reads a successor only through these bits.
        read = _next_atoms(body)
        next_mask = sum(1 << index for index, atom in enumerate(atoms) if atom in read)

        reachable = self.model.reachable_states()
        # The distinct projections of each successor tuple, keyed by the
        # tuple's id: the model holds every tuple for the whole check.
        projections: Dict[int, Tuple[int, ...]] = {}
        transitions_checked = 0
        for state in reachable:
            successors = self.model.successors(state)
            if not successors:
                if not step(state, None):
                    return self._failure(name, state, None, started,
                                         len(reachable), transitions_checked)
                continue
            projected = projections.get(id(successors))
            if projected is None:
                projected = projections[id(successors)] = tuple(
                    dict.fromkeys([successor & next_mask for successor in successors]))
            for projection in projected:
                if not step(state, projection):
                    # Report the first real successor that fails.
                    for index, successor in enumerate(successors):
                        if not step(state, successor):
                            return self._failure(name, state, successor, started,
                                                 len(reachable),
                                                 transitions_checked + index + 1)
            transitions_checked += len(successors)
        return CheckResult(
            holds=True,
            property_name=name,
            states_explored=len(reachable),
            transitions_checked=transitions_checked,
            elapsed_seconds=time.perf_counter() - started,
        )

    def check_suite(self, properties) -> List[CheckResult]:
        """Check a list of ``(name, formula)`` pairs (or PropertySpec-like)."""
        results = []
        for item in properties:
            if hasattr(item, "name") and hasattr(item, "formula"):
                name, formula = item.name, item.formula
            else:
                name, formula = item
            results.append(self.check(formula, name=name))
        return results

    def _failure(self, name, state, successor, started, states, transitions):
        path = self.model.path_to(state)
        if successor is not None:
            path.append(successor)
        return CheckResult(
            holds=False,
            property_name=name,
            states_explored=states,
            transitions_checked=transitions,
            elapsed_seconds=time.perf_counter() - started,
            counterexample=[self.model.as_dict(entry) for entry in path],
        )
