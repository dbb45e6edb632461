"""CPU core: fetch/decode/execute engine and the per-cycle signal bundle.

The hardware monitors of VRASED, APEX and ASAP are combinational/FSM
logic wired to a handful of CPU and bus signals (program counter,
interrupt request, data-write enable and address, DMA enable and
address).  :class:`repro.cpu.signals.SignalBundle` is the Python
rendering of that wire bundle: the CPU emits one bundle per executed
step, and every monitor consumes the same bundles.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SignalBundle": "repro.cpu.signals",
    "MemoryWrite": "repro.cpu.signals",
    "MemoryRead": "repro.cpu.signals",
    "CPU": "repro.cpu.core",
    "CPUError": "repro.cpu.core",
    "DecodeCache": "repro.cpu.decode_cache",
    "InterpreterEngine": "repro.cpu.engine",
    "engine_name": "repro.cpu.engine",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
