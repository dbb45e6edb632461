"""Firmware: the application programs, scenario harness and attack suite.

The paper motivates ASAP with a syringe-pump application (Section 3) and
evaluates it with firmware whose trusted ISRs are linked inside ER
(Fig. 4).  This package contains:

* :mod:`repro.firmware.testbench` -- :class:`PoxTestbench`, a one-call
  harness that links firmware, builds a device, attaches the chosen
  monitor (APEX or ASAP) and wires up the PoX protocol; used by the
  examples, the tests and every bench.
* :mod:`repro.firmware.syringe_pump` -- the interrupt-driven syringe
  pump (timer-controlled dosage + asynchronous abort) and its busy-wait
  workaround variant.
* :mod:`repro.firmware.sensor_logger` -- a sensor-sampling application
  with a UART command ISR.
* :mod:`repro.firmware.blinker` -- the paper's minimal Fig. 4 example
  (a dummy loop plus a GPIO ISR that drives PORT5).
* :mod:`repro.firmware.attacks` -- adversarial scenarios exercising the
  security argument (IVT tampering, ER/OR modification, untrusted
  interrupts, mid-ER entry, report forgery).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PoxTestbench": "repro.firmware.testbench",
    "TestbenchConfig": "repro.firmware.testbench",
    "blinker_firmware": "repro.firmware.blinker",
    "syringe_pump_firmware": "repro.firmware.syringe_pump",
    "busy_wait_pump_firmware": "repro.firmware.syringe_pump",
    "PumpParameters": "repro.firmware.syringe_pump",
    "PUMP_OUTPUT_LAYOUT": "repro.firmware.syringe_pump",
    "sensor_logger_firmware": "repro.firmware.sensor_logger",
    "SensorParameters": "repro.firmware.sensor_logger",
    "AttackScenario": "repro.firmware.attacks",
    "attack_suite": "repro.firmware.attacks",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
