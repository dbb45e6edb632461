"""Hardware-cost model: LUT/register estimates for the monitor modules.

The paper's Fig. 6 compares the FPGA resource overhead of APEX and ASAP
(look-up tables and registers added on top of the unmodified core) and
finds that ASAP needs ~24 fewer LUTs and ~3 fewer registers than APEX:
dropping the global ``irq``-monitoring logic (LTL 3) saves more than the
new two-state IVT-guard FSM costs.

Without a synthesis tool, the reproduction estimates costs structurally:
each monitor is described as a netlist of primitives (registers,
equality/range comparators, FSM state, glue logic), and a simple LUT4
packing model converts combinational fan-in into LUT counts.  Absolute
numbers are therefore estimates, but the *relative* comparison -- which
architecture is larger and by roughly how much -- is derived from the
same structural differences the paper describes (Section 5).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Component": "repro.hwcost.netlist",
    "Module": "repro.hwcost.netlist",
    "register": "repro.hwcost.netlist",
    "equality_comparator": "repro.hwcost.netlist",
    "magnitude_comparator": "repro.hwcost.netlist",
    "range_checker": "repro.hwcost.netlist",
    "logic_function": "repro.hwcost.netlist",
    "fsm_state": "repro.hwcost.netlist",
    "vrased_hwmod": "repro.hwcost.monitors",
    "apex_hwmod": "repro.hwcost.monitors",
    "asap_hwmod": "repro.hwcost.monitors",
    "apex_overhead_module": "repro.hwcost.monitors",
    "asap_overhead_module": "repro.hwcost.monitors",
    "CostReport": "repro.hwcost.report",
    "ComparisonReport": "repro.hwcost.report",
    "synthesize_monitor": "repro.hwcost.report",
    "compare_costs": "repro.hwcost.report",
    "figure6_comparison": "repro.hwcost.report",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
