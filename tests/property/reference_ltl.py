"""The Kripke build and the model-checking loop the shared-tuple versions
replaced, kept as a test oracle.

:class:`ReferenceKripkeStructure` is :class:`repro.ltl.kripke.KripkeStructure`
with the breadth-first :meth:`build` it had before equal successor tuples
were shared: every state stores its own tuple and scans it for new
states.  :class:`ReferenceModelChecker` is
:class:`repro.ltl.model_checker.ModelChecker` with the :meth:`check` it
had before successors were projected onto the atoms a property reads
under ``X``: it evaluates ``step`` once per reachable transition.  Both
methods are copied here unchanged, so that
``test_property_memory_and_ltl.py`` can compare the two builds state by
state and the two checks result by result.  Everything else -- the
queries, ``as_dict``, ``compile_step`` and the counterexample -- is
inherited.
"""

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ltl.ast import Formula, Globally
from repro.ltl.kripke import KripkeStructure
from repro.ltl.model_checker import (
    CheckResult,
    ModelChecker,
    UnsupportedFormulaError,
    compile_step,
)


class ReferenceKripkeStructure(KripkeStructure):
    """The structure with one successor tuple per state."""

    @classmethod
    def build(cls, atoms: Sequence[str], initial: Iterable[int],
              successors: Callable[[int], Iterable[int]],
              max_states=100000) -> "KripkeStructure":
        """Explore a model breadth-first from the *initial* states.

        *successors* maps a state to an iterable of successor states
        (duplicates collapse).  Every discovered state must set only bits
        of *atoms*.

        :raises ValueError: for a state with bits outside *atoms*.
        :raises RuntimeError: when more than *max_states* states are
            discovered.
        """
        atoms = tuple(atoms)
        outside = ~((1 << len(atoms)) - 1)
        parents: Dict[int, Optional[int]] = {}
        order: List[int] = []

        def discover(state, parent):
            if state & outside:
                raise ValueError("state %#x sets bits outside the %d atoms %s"
                                 % (state, len(atoms), atoms))
            if len(parents) >= max_states:
                raise RuntimeError("state-space exploration exceeded %d states" % max_states)
            parents[state] = parent
            order.append(state)

        for state in initial:
            if state not in parents:
                discover(state, None)
        initial_states = list(order)
        edges: Dict[int, Tuple[int, ...]] = {}
        # ``order`` grows while it is walked: a FIFO queue.
        for state in order:
            targets = edges[state] = tuple(dict.fromkeys(successors(state)))
            for target in targets:
                if target not in parents:
                    discover(target, state)
        return cls(atoms, initial_states, edges, parents)


class ReferenceModelChecker(ModelChecker):
    """The checker that evaluates every reachable transition."""

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
        step = compile_step(body, self.model.atoms)

        reachable = self.model.reachable_states()
        transitions_checked = 0
        for state in reachable:
            successors = self.model.successors(state)
            if not successors and not step(state, None):
                return self._failure(name, state, None, started,
                                     len(reachable), transitions_checked)
            for successor in successors:
                if not step(state, successor):
                    transitions_checked += successors.index(successor) + 1
                    return self._failure(name, state, successor, started,
                                         len(reachable), transitions_checked)
            transitions_checked += len(successors)
        return CheckResult(
            holds=True,
            property_name=name,
            states_explored=len(reachable),
            transitions_checked=transitions_checked,
            elapsed_seconds=time.perf_counter() - started,
        )
