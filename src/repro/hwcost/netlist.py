"""Netlist primitives and the LUT4 packing model.

The cost model targets an Artix-7-class FPGA fabric (the paper's Basys3
board) in a deliberately simple way:

* one flip-flop per state bit,
* combinational logic packed into 4-input LUTs: a *k*-input boolean
  function costs ``ceil((k - 1) / 3)`` LUT4s (each extra LUT in a
  reduction tree absorbs three new inputs),
* an equality comparison against a constant is a *k*-input function,
* a magnitude comparison uses the carry chain and costs roughly one LUT
  per two bits,
* a range check is two magnitude comparisons plus an AND.

These choices are calibrated against published LUT counts for small
MSP430 monitoring modules (VRASED/APEX/RATA report their overheads in
the same units) and are documented here; the Fig. 6 reproduction
(experiment E4-E5, see "Running the experiments" in ``README.md``) only
relies on *differences* between two modules built from the same
primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Component:
    """A leaf netlist element with fixed LUT and register costs."""

    name: str
    luts: int = 0
    registers: int = 0


def _lut4_for_inputs(inputs):
    """LUT4 count for a single boolean function of *inputs* variables."""
    if inputs <= 1:
        return 0
    return max(1, math.ceil((inputs - 1) / 3))


def register(name, width=1):
    """A *width*-bit register (flip-flops only)."""
    return Component(name=name, luts=0, registers=width)


def logic_function(name, inputs, outputs=1):
    """Combinational logic: *outputs* functions of *inputs* variables each."""
    return Component(name=name, luts=outputs * _lut4_for_inputs(inputs), registers=0)


def equality_comparator(name, width=16):
    """Equality comparison of a *width*-bit signal against a constant."""
    return Component(name=name, luts=_lut4_for_inputs(width), registers=0)


def magnitude_comparator(name, width=16):
    """Magnitude comparison (>=/<=) of a *width*-bit signal against a constant."""
    return Component(name=name, luts=math.ceil(width / 2), registers=0)


def range_checker(name, width=16):
    """Check that a *width*-bit address lies inside a constant range.

    Two magnitude comparisons plus the combining AND.
    """
    luts = 2 * math.ceil(width / 2) + 1
    return Component(name=name, luts=luts, registers=0)


def aligned_region_decoder(name, significant_bits):
    """Decode membership in a power-of-two aligned region.

    A region such as the 32-byte IVT at the top of the address space
    only needs the upper ``significant_bits`` address bits compared for
    equality, which is much cheaper than a full range check -- exactly
    the trick the ASAP IVT guard benefits from.
    """
    return Component(name=name, luts=_lut4_for_inputs(significant_bits), registers=0)


def fsm_state(name, states, transition_inputs):
    """An FSM: state register plus next-state/output logic.

    ``states`` is the number of FSM states (encoded in
    ``ceil(log2(states))`` flip-flops); ``transition_inputs`` is the
    number of distinct input signals feeding the transition logic.
    """
    state_bits = max(1, math.ceil(math.log2(max(states, 2))))
    next_state_luts = state_bits * _lut4_for_inputs(transition_inputs + state_bits)
    return Component(name=name, luts=next_state_luts, registers=state_bits)


@dataclass
class Module:
    """A named collection of components and submodules."""

    name: str
    components: List[Component] = field(default_factory=list)
    submodules: List["Module"] = field(default_factory=list)

    def add(self, component: Component):
        """Add a leaf component; returns it for chaining."""
        self.components.append(component)
        return component

    def add_module(self, module: "Module"):
        """Add a submodule; returns it for chaining."""
        self.submodules.append(module)
        return module

    def total_luts(self):
        """Total LUT count including submodules."""
        return sum(component.luts for component in self.components) + sum(
            module.total_luts() for module in self.submodules
        )

    def total_registers(self):
        """Total register count including submodules."""
        return sum(component.registers for component in self.components) + sum(
            module.total_registers() for module in self.submodules
        )

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Per-child cost summary (both leaf components and submodules)."""
        table: Dict[str, Dict[str, int]] = {}
        for component in self.components:
            table[component.name] = {
                "luts": component.luts,
                "registers": component.registers,
            }
        for module in self.submodules:
            table[module.name] = {
                "luts": module.total_luts(),
                "registers": module.total_registers(),
            }
        return table

    def flatten_components(self) -> List[Component]:
        """All leaf components, recursively."""
        out = list(self.components)
        for module in self.submodules:
            out.extend(module.flatten_components())
        return out
