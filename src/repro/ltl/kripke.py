"""Kripke structures: the state-transition models fed to the model checker.

A :class:`KripkeStructure` is a finite set of states, each labelled with
the set of atomic propositions that hold in it, plus a transition
relation and a set of initial states.  The monitor models in
:mod:`repro.ltl.properties` are built by exhaustively composing the
monitor FSM logic with a nondeterministic environment (every combination
of the input atoms), which is exactly what an RTL model checker such as
NuSMV does symbolically.

States are plain ints over the structure's ``atoms`` tuple: bit *i* is
set iff ``atoms[i]`` holds, so a state with ``atoms == ("p", "q")`` and
value ``0b10`` is ``{p: false, q: true}``.  :meth:`KripkeStructure.build`
explores breadth-first from the initial states, so every stored state is
reachable, states are kept in discovery order, and each state records
the BFS parent it was first reached from: following parents back gives a
shortest path from an initial state.  :meth:`KripkeStructure.as_dict`
renders a state for people and for the trace checker.

States share successor tuples: every state whose successor set equals
an earlier state's holds that state's tuple object, so a model whose
states all step into the same environment stores its successors once
(the VRASED model's 512 states hold 4 tuples), and the model checker
can work per tuple instead of per transition.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, KeysView, List, Optional, Sequence, Tuple


class KripkeStructure:
    """A finite transition system over int-coded states."""

    def __init__(self, atoms: Sequence[str], initial: Iterable[int],
                 successors: Dict[int, Tuple[int, ...]], parents: Dict[int, Optional[int]]):
        self.atoms: Tuple[str, ...] = tuple(atoms)
        self._initial: FrozenSet[int] = frozenset(initial)
        self._successors = successors
        self._parents = parents

    @classmethod
    def build(cls, atoms: Sequence[str], initial: Iterable[int],
              successors: Callable[[int], Iterable[int]],
              max_states=100000) -> "KripkeStructure":
        """Explore a model breadth-first from the *initial* states.

        *successors* maps a state to an iterable of successor states
        (duplicates collapse).  Every discovered state must set only bits
        of *atoms*.  States with equal successor tuples share one tuple
        object.

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
        # Each distinct successor tuple, mapped to itself.
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # ``order`` grows while it is walked: a FIFO queue.
        for state in order:
            targets = tuple(dict.fromkeys(successors(state)))
            stored = edges[state] = shared.setdefault(targets, targets)
            # A tuple stored before had all its targets discovered then.
            if stored is targets:
                for target in targets:
                    if target not in parents:
                        discover(target, state)
        return cls(atoms, initial_states, edges, parents)

    # ------------------------------------------------------------ queries

    @property
    def states(self) -> KeysView[int]:
        """All states, in BFS discovery order."""
        return self._successors.keys()

    @property
    def initial_states(self) -> FrozenSet[int]:
        """The initial states."""
        return self._initial

    def successors(self, state: int) -> Tuple[int, ...]:
        """The successors of *state*."""
        return self._successors[state]

    def path_to(self, state: int) -> List[int]:
        """A shortest path from an initial state to *state*."""
        path = [state]
        parent = self._parents[state]
        while parent is not None:
            path.append(parent)
            parent = self._parents[parent]
        path.reverse()
        return path

    def as_dict(self, state: int) -> Dict[str, bool]:
        """Render *state* as an ``{atom: bool}`` dictionary."""
        return {atom: bool(state >> index & 1) for index, atom in enumerate(self.atoms)}

    def state_count(self):
        """Number of states."""
        return len(self._successors)

    def transition_count(self):
        """Number of transitions."""
        return sum(len(targets) for targets in self._successors.values())

    def reachable_states(self) -> KeysView[int]:
        """States reachable from the initial set: all of them, since
        :meth:`build` only stores what it reaches."""
        return self._successors.keys()

    def is_total(self):
        """``True`` if every reachable state has at least one successor."""
        return all(self._successors.values())
