"""Finite-trace LTL semantics.

The simulator produces finite traces, so the checker uses the standard
finite-path interpretation:

* ``G phi`` holds at *i* iff *phi* holds at every position ``j >= i``;
* ``F phi`` / ``phi U psi`` require the witness to occur within the
  trace;
* ``X phi`` at the last position follows the *weak* interpretation by
  default (vacuously true, appropriate for safety properties sampled
  from a truncated execution); pass ``strict_next=True`` for the strong
  interpretation.

A trace is a sequence of states; each state is a mapping from atom name
to a truthy/falsy value (missing atoms read as false).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.ltl.ast import (
    And,
    Atom,
    FalseFormula,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueFormula,
    Until,
)


def evaluate_at(formula: Formula, trace: Sequence[Mapping], position: int,
                strict_next=False) -> bool:
    """Evaluate *formula* on *trace* at *position*."""
    if position < 0 or position >= len(trace):
        raise IndexError("position %d outside trace of length %d" % (position, len(trace)))

    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, Atom):
        return bool(trace[position].get(formula.name, False))
    if isinstance(formula, Not):
        return not evaluate_at(formula.operand, trace, position, strict_next)
    if isinstance(formula, And):
        return evaluate_at(formula.left, trace, position, strict_next) and evaluate_at(
            formula.right, trace, position, strict_next
        )
    if isinstance(formula, Or):
        return evaluate_at(formula.left, trace, position, strict_next) or evaluate_at(
            formula.right, trace, position, strict_next
        )
    if isinstance(formula, Implies):
        return (not evaluate_at(formula.left, trace, position, strict_next)) or evaluate_at(
            formula.right, trace, position, strict_next
        )
    if isinstance(formula, Next):
        if position + 1 >= len(trace):
            return not strict_next
        return evaluate_at(formula.operand, trace, position + 1, strict_next)
    if isinstance(formula, Globally):
        return all(
            evaluate_at(formula.operand, trace, index, strict_next)
            for index in range(position, len(trace))
        )
    if isinstance(formula, Finally):
        return any(
            evaluate_at(formula.operand, trace, index, strict_next)
            for index in range(position, len(trace))
        )
    if isinstance(formula, Until):
        for index in range(position, len(trace)):
            if evaluate_at(formula.right, trace, index, strict_next):
                return True
            if not evaluate_at(formula.left, trace, index, strict_next):
                return False
        return False
    raise TypeError("unknown formula type: %r" % (formula,))


def check_trace(formula: Formula, trace: Sequence[Mapping], strict_next=False) -> bool:
    """Return ``True`` if *formula* holds at the start of *trace*."""
    if not trace:
        return True
    return evaluate_at(formula, trace, 0, strict_next=strict_next)


def find_violation(formula: Formula, trace: Sequence[Mapping],
                   strict_next=False) -> Optional[int]:
    """For ``G``-shaped formulas, return the first violating position.

    For a formula ``G phi`` the function returns the first index where
    ``phi`` fails (or ``None``); for any other formula it returns ``0``
    when the formula does not hold at the start of the trace.
    """
    if not trace:
        return None
    if isinstance(formula, Globally):
        for index in range(len(trace)):
            if not evaluate_at(formula.operand, trace, index, strict_next):
                return index
        return None
    return None if check_trace(formula, trace, strict_next) else 0


def bundles_to_trace(bundles, config, ivt_region=None):
    """Convert signal bundles into LTL trace states over the paper's atoms.

    Atoms produced per state:

    ``pc_in_er``, ``pc_at_ermin``, ``pc_at_ermax``, ``irq``, ``Wen``,
    ``Daddr_in_ivt``, ``DMA_en``, ``DMA_addr_in_ivt``,
    ``write_in_er``, ``write_in_or``, ``write_in_meta``.

    *config* is a :class:`~repro.apex.regions.PoxConfig`; *ivt_region*
    defaults to the architectural IVT.
    """
    from repro.memory.ivt import IVT_BASE, IVT_END
    from repro.memory.layout import MemoryRegion

    if ivt_region is None:
        ivt_region = MemoryRegion(IVT_BASE, IVT_END, "ivt")
    executable = config.executable
    trace = []
    for bundle in bundles:
        trace.append(
            {
                "pc_in_er": executable.contains(bundle.pc),
                "pc_at_ermin": bundle.pc == executable.er_min,
                "pc_at_ermax": bundle.pc == executable.er_max,
                "irq": bundle.irq,
                "Wen": bundle.wen,
                "Daddr_in_ivt": bundle.writes_into(ivt_region),
                "DMA_en": bundle.dma_en,
                # DMA reads count: the atom is the DMA address, not a write.
                "DMA_addr_in_ivt": bundle.dma_touches(ivt_region),
                "write_in_er": bundle.writes_into(executable.region)
                or bundle.dma_writes_into(executable.region),
                "write_in_or": bundle.writes_into(config.output.region)
                or bundle.dma_writes_into(config.output.region),
                "write_in_meta": bundle.writes_into(config.metadata.region)
                or bundle.dma_writes_into(config.metadata.region),
            }
        )
    return trace
