"""Device composition: the full MCU (CPU + memory + peripherals + monitors).

:class:`repro.device.Device` is the reproduction's stand-in for the
openMSP430 SoC the paper prototyped on: it wires the CPU core, the
memory, the interrupt controller and the peripherals together, lets
security monitors (VRASED / APEX / ASAP hardware modules) observe every
per-step signal bundle, and records traces that the waveform benches
turn into the paper's Fig. 5.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DecodeCache": "repro.cpu.decode_cache",
    "TraceRecorder": "repro.device.trace",
    "TraceEntry": "repro.device.trace",
    "Waveform": "repro.device.trace",
    "Device": "repro.device.mcu",
    "DeviceConfig": "repro.device.mcu",
    "ScheduledEvent": "repro.device.mcu",
    "VcdWriter": "repro.device.vcd",
    "export_vcd": "repro.device.vcd",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
