"""The verified property suites and their abstract monitor models.

The paper reports that ASAP's verification covers **21 LTL properties**
(the ASAP-specific property LTL 4 plus everything inherited from APEX
and VRASED) in about 150 s under NuSMV.  This module reproduces that
verification workload:

* abstract Kripke models of the monitor logic composed with a
  nondeterministic environment (every combination of the monitor-visible
  input signals), built with the same update rules as the hardware FSMs
  over int-coded states: each builder names its ``atoms`` and sets bit
  *i* of a state for ``atoms[i]``;
* property suites -- :func:`vrased_property_suite` (10 properties),
  :func:`apex_property_suite` (VRASED + 9 APEX properties including
  LTL 1-3) and :func:`asap_property_suite` (21 properties: the VRASED
  10, the 8 APEX properties retained by ASAP, and 3 new [AP1]
  properties including LTL 4).

Atoms follow the paper's signal names: ``pc_in_er``, ``pc_at_ermin``,
``pc_at_ermax``, ``irq``, ``exec``, ``Wen_ivt`` (CPU write to IVT),
``DMA_ivt`` (DMA write to IVT), ``guard_run`` (the Fig. 3 FSM state),
``write_er`` / ``write_or_unauth`` / ``write_meta`` / ``dma_during_er``
for the memory-protection rules, and ``pc_in_swatt`` / ``key_access`` /
``dma_key`` / ``key_write`` / ``swatt_write`` / ``reset`` for VRASED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.ltl.ast import Formula
from repro.ltl.kripke import KripkeStructure
from repro.ltl.parser import parse_ltl


@dataclass(frozen=True)
class PropertySpec:
    """One verifiable property: a name, its formula and its model."""

    name: str
    formula_text: str
    model: str
    origin: str  # "vrased", "apex" or "asap"
    description: str = ""

    @property
    def formula(self) -> Formula:
        """The parsed LTL formula."""
        return parse_ltl(self.formula_text)


# --------------------------------------------------------------------------
# Abstract environment enumeration helpers
# --------------------------------------------------------------------------

def _masks(atoms):
    """One bit mask per atom: bit *i* of a state is ``atoms[i]``."""
    return [1 << index for index in range(len(atoms))]


def _combinations(masks):
    """Every assignment of the atoms with the given *masks*, as int
    states (the first atom varies slowest)."""
    states = [0]
    for mask in masks:
        states = [state | value for state in states for value in (0, mask)]
    return states


# --------------------------------------------------------------------------
# Model: ER control flow (LTL 1-3)
# --------------------------------------------------------------------------

def build_er_flow_model(enforce_ltl3: bool) -> KripkeStructure:
    """The EXEC flag driven by the control-flow rules (LTL 1, 2 and
    optionally the APEX-only LTL 3)."""
    atoms = ("pc_in_er", "pc_at_ermin", "pc_at_ermax", "irq", "exec")
    in_er, at_ermin, at_ermax, irq, exec_ = _masks(atoms)
    # The four mutually exclusive program-counter classes: outside ER,
    # at ER_min, inside ER (neither boundary), at ER_max.
    pc_classes = (0, in_er | at_ermin, in_er, in_er | at_ermax)
    environment = [pc | irq_value for pc in pc_classes for irq_value in (0, irq)]

    def successors(state):
        for inputs in environment:
            violation = False
            if state & in_er and not inputs & in_er and not state & at_ermax:
                violation = True  # LTL 1: illegal exit
            if not state & in_er and inputs & in_er and not inputs & at_ermin:
                violation = True  # LTL 2: illegal entry
            if enforce_ltl3 and state & in_er and state & irq:
                violation = True  # LTL 3: interrupt during ER (APEX only)
            if violation:
                exec_next = 0
            elif inputs & at_ermin:
                exec_next = exec_
            else:
                exec_next = state & exec_
            yield inputs | exec_next

    # Initial states: every input combination with EXEC low.
    return KripkeStructure.build(atoms, environment, successors)


# --------------------------------------------------------------------------
# Model: memory protection (ER/OR/metadata/DMA rules)
# --------------------------------------------------------------------------

def build_memory_protection_model() -> KripkeStructure:
    """The EXEC flag driven by the memory-protection rules (shared by
    APEX and ASAP)."""
    atoms = ("pc_at_ermin", "write_er", "write_or_unauth", "write_meta",
             "dma_during_er", "exec")
    at_ermin, write_er, write_or, write_meta, dma_during_er, exec_ = _masks(atoms)
    violations = write_er | write_or | write_meta | dma_during_er
    environment = _combinations((at_ermin, write_er, write_or, write_meta, dma_during_er))

    def successors(state):
        for inputs in environment:
            if state & violations:
                exec_next = 0
            elif inputs & at_ermin:
                exec_next = exec_
            else:
                exec_next = state & exec_
            yield inputs | exec_next

    # Initial states: every input combination with EXEC low.
    return KripkeStructure.build(atoms, environment, successors)


# --------------------------------------------------------------------------
# Model: the ASAP IVT guard (Fig. 3 / LTL 4)
# --------------------------------------------------------------------------

def build_ivt_guard_model() -> KripkeStructure:
    """The Fig. 3 FSM composed with a nondeterministic environment.

    ``guard_run`` is the FSM state (Run vs NotExec); ``exec`` is the
    EXEC output constrained by the guard (EXEC can only be 1 in Run).
    """
    atoms = ("Wen_ivt", "DMA_ivt", "pc_at_ermin", "guard_run", "exec")
    wen_ivt, dma_ivt, at_ermin, guard_run, exec_ = _masks(atoms)
    environment = _combinations((wen_ivt, dma_ivt, at_ermin))

    def successors(state):
        ivt_write = state & (wen_ivt | dma_ivt)
        if ivt_write:
            run = 0
        elif not state & guard_run and state & at_ermin:
            run = guard_run
        else:
            run = state & guard_run
        for inputs in environment:
            if ivt_write:
                exec_next = 0
            elif inputs & at_ermin and run:
                exec_next = exec_
            else:
                exec_next = exec_ if state & exec_ and run else 0
            yield inputs | run | exec_next

    return KripkeStructure.build(
        atoms, [inputs | guard_run for inputs in environment], successors)


# --------------------------------------------------------------------------
# Model: VRASED access control and SW-Att atomicity
# --------------------------------------------------------------------------

def build_vrased_model() -> KripkeStructure:
    """The VRASED monitor's reset/violation logic.

    ``reset`` models the monitor's "violation detected, MCU must reset"
    output; once raised it stays raised until the (modelled) reset
    brings the machine back to an initial state, which is sound for the
    safety properties checked here.
    """
    atoms = ("pc_in_swatt", "pc_at_swatt_entry", "pc_at_swatt_exit", "key_access",
             "dma_key", "key_write", "swatt_write", "irq", "dma_active", "reset")
    masks = _masks(atoms)
    (in_swatt, at_entry, at_exit, key_access, dma_key, key_write,
     swatt_write, irq, dma_active, reset) = masks
    # Keep the PC classification consistent: boundary flags imply being
    # inside SW-Att, and the entry is not the exit.
    boundary = at_entry | at_exit
    environment = [
        inputs for inputs in _combinations(masks[:-1])
        if (inputs & in_swatt or not inputs & boundary)
        and inputs & boundary != boundary
    ]

    def successors(state):
        inside = state & in_swatt
        violation = False
        if state & key_access and not inside:
            violation = True
        if state & (dma_key | key_write | swatt_write):
            violation = True
        if inside and state & (irq | dma_active):
            violation = True
        for inputs in environment:
            step_violation = violation
            if inside and not inputs & in_swatt and not state & at_exit:
                step_violation = True
            if not inside and inputs & in_swatt and not inputs & at_entry:
                step_violation = True
            reset_next = reset if state & reset or step_violation else 0
            yield inputs | reset_next

    return KripkeStructure.build(atoms, environment, successors)


#: Registry of model builders, keyed by the names used in PropertySpec.
MODEL_BUILDERS: Dict[str, Callable[[], KripkeStructure]] = {
    "er_flow_apex": lambda: build_er_flow_model(enforce_ltl3=True),
    "er_flow_asap": lambda: build_er_flow_model(enforce_ltl3=False),
    "memory_protection": build_memory_protection_model,
    "ivt_guard": build_ivt_guard_model,
    "vrased": build_vrased_model,
}


def build_apex_model() -> KripkeStructure:
    """The control-flow model with LTL 3 enforced (APEX)."""
    return build_er_flow_model(enforce_ltl3=True)


def build_asap_model() -> KripkeStructure:
    """The control-flow model without LTL 3 (ASAP)."""
    return build_er_flow_model(enforce_ltl3=False)


# --------------------------------------------------------------------------
# Property suites
# --------------------------------------------------------------------------

def vrased_property_suite() -> List[PropertySpec]:
    """The ten VRASED sub-properties inherited by APEX and ASAP."""
    return [
        PropertySpec(
            "vrased-key-access-control",
            "G (key_access & !pc_in_swatt -> X reset)",
            "vrased", "vrased",
            "The attestation key is only readable from within SW-Att.",
        ),
        PropertySpec(
            "vrased-key-no-dma",
            "G (dma_key -> X reset)",
            "vrased", "vrased",
            "DMA can never touch the key region.",
        ),
        PropertySpec(
            "vrased-key-immutable",
            "G (key_write -> X reset)",
            "vrased", "vrased",
            "The key region is never written at run time.",
        ),
        PropertySpec(
            "vrased-swatt-immutable",
            "G (swatt_write -> X reset)",
            "vrased", "vrased",
            "SW-Att code is never modified at run time.",
        ),
        PropertySpec(
            "vrased-swatt-no-interrupt",
            "G (pc_in_swatt & irq -> X reset)",
            "vrased", "vrased",
            "SW-Att execution is never interrupted.",
        ),
        PropertySpec(
            "vrased-swatt-no-dma",
            "G (pc_in_swatt & dma_active -> X reset)",
            "vrased", "vrased",
            "DMA stays quiet while SW-Att executes.",
        ),
        PropertySpec(
            "vrased-swatt-atomic-exit",
            "G (pc_in_swatt & !X pc_in_swatt & !pc_at_swatt_exit -> X reset)",
            "vrased", "vrased",
            "SW-Att is left only from its last instruction.",
        ),
        PropertySpec(
            "vrased-swatt-atomic-entry",
            "G (!pc_in_swatt & X pc_in_swatt & !X pc_at_swatt_entry -> X reset)",
            "vrased", "vrased",
            "SW-Att is entered only at its first instruction.",
        ),
        PropertySpec(
            "vrased-reset-is-sticky",
            "G (reset -> X reset)",
            "vrased", "vrased",
            "A detected violation keeps the reset request asserted.",
        ),
        PropertySpec(
            "vrased-clean-run-no-reset",
            "G (!reset & !key_access & !dma_key & !key_write & !swatt_write "
            "& !pc_in_swatt & !X pc_in_swatt -> !X reset)",
            "vrased", "vrased",
            "Benign behaviour that stays outside SW-Att never triggers a reset.",
        ),
    ]


def _apex_core_properties(model_suffix) -> List[PropertySpec]:
    """The control-flow and memory-protection properties shared by APEX
    and ASAP (8 properties)."""
    flow_model = "er_flow_%s" % model_suffix
    return [
        PropertySpec(
            "pox-ltl1-exit-only-at-ermax",
            "G (pc_in_er & !X pc_in_er -> pc_at_ermax | !X exec)",
            flow_model, "apex",
            "Paper LTL 1: ER may only be left from its last instruction.",
        ),
        PropertySpec(
            "pox-ltl2-entry-only-at-ermin",
            "G (!pc_in_er & X pc_in_er -> X pc_at_ermin | !X exec)",
            flow_model, "apex",
            "Paper LTL 2: ER may only be entered at its first instruction.",
        ),
        PropertySpec(
            "pox-exec-rises-only-at-ermin",
            "G (!exec & X exec -> X pc_at_ermin)",
            flow_model, "apex",
            "The EXEC flag can only rise when execution restarts at ER_min.",
        ),
        PropertySpec(
            "pox-er-immutable",
            "G (write_er -> !X exec)",
            "memory_protection", "apex",
            "Any write to ER clears EXEC.",
        ),
        PropertySpec(
            "pox-or-protected-from-software",
            "G (write_or_unauth -> !X exec)",
            "memory_protection", "apex",
            "Writes to OR from outside ER clear EXEC.",
        ),
        PropertySpec(
            "pox-metadata-immutable",
            "G (write_meta -> !X exec)",
            "memory_protection", "apex",
            "Writes to the challenge/parameter area clear EXEC.",
        ),
        PropertySpec(
            "pox-no-dma-during-er",
            "G (dma_during_er -> !X exec)",
            "memory_protection", "apex",
            "DMA activity during ER execution clears EXEC.",
        ),
        PropertySpec(
            "pox-exec-recovers-at-ermin",
            "G (write_er | write_or_unauth | write_meta | dma_during_er "
            "-> !X exec | X pc_at_ermin)",
            "memory_protection", "apex",
            "EXEC stays low after a violation until a fresh ER_min restart.",
        ),
    ]


def apex_property_suite() -> List[PropertySpec]:
    """The APEX property suite: VRASED's 10 plus 9 APEX properties
    (the shared 8 plus LTL 3)."""
    suite = vrased_property_suite()
    suite.extend(_apex_core_properties("apex"))
    suite.append(
        PropertySpec(
            "apex-ltl3-no-interrupts",
            "G (pc_in_er & irq -> !X exec)",
            "er_flow_apex", "apex",
            "Paper LTL 3: any interrupt during ER execution clears EXEC "
            "(removed by ASAP).",
        )
    )
    return suite


def asap_new_property_suite() -> List[PropertySpec]:
    """The three new [AP1] properties introduced by ASAP."""
    return [
        PropertySpec(
            "asap-ltl4-ivt-immutability",
            "G (Wen_ivt | DMA_ivt -> !X exec)",
            "ivt_guard", "asap",
            "Paper LTL 4 ([AP1]): a CPU or DMA write to the IVT clears EXEC.",
        ),
        PropertySpec(
            "asap-guard-trips-on-ivt-write",
            "G (Wen_ivt | DMA_ivt -> !X guard_run)",
            "ivt_guard", "asap",
            "Fig. 3: any IVT write drives the guard FSM to NotExec.",
        ),
        PropertySpec(
            "asap-guard-recovers-only-at-ermin",
            "G (!guard_run & X guard_run -> pc_at_ermin)",
            "ivt_guard", "asap",
            "Fig. 3: the guard returns to Run only when execution restarts "
            "at ER_min.",
        ),
    ]


def asap_property_suite() -> List[PropertySpec]:
    """The full ASAP suite: 21 properties (10 VRASED + 8 shared APEX +
    3 new [AP1] properties), mirroring the paper's verification scope."""
    suite = vrased_property_suite()
    suite.extend(_apex_core_properties("asap"))
    suite.extend(asap_new_property_suite())
    return suite


def build_model(name: str) -> KripkeStructure:
    """Build the abstract model called *name*.

    :raises KeyError: for unknown model names.
    """
    return MODEL_BUILDERS[name]()
