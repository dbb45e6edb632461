"""Peripheral models: GPIO ports, timer, UART, DMA engine and watchdog.

Peripheral registers live in the memory-mapped peripheral region at the
bottom of the address space (see :data:`repro.peripherals.registers`),
so firmware configures them with ordinary ``MOV``/``BIS``/``BIC``
instructions.  Each peripheral synchronises its internal state with its
registers once per simulated step via :meth:`Peripheral.tick` and
reports pending interrupts to the :class:`InterruptController`.

The DMA engine is the one peripheral the security architecture cares
about directly: APEX and ASAP both monitor the DMA address lines, and
the reproduction's attack scenarios use it to attempt writes to the IVT
and output region behind the CPU's back.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PeripheralRegisters": "repro.peripherals.registers",
    "Peripheral": "repro.peripherals.base",
    "GpioPort": "repro.peripherals.gpio",
    "TimerA": "repro.peripherals.timer",
    "Uart": "repro.peripherals.uart",
    "DmaController": "repro.peripherals.dma",
    "Watchdog": "repro.peripherals.watchdog",
    "InterruptController": "repro.peripherals.interrupt_controller",
    "InterruptSource": "repro.peripherals.interrupt_controller",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
