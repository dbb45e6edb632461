"""Declarative scenario specifications for campaign sweeps.

Every paper artifact is a sweep of (firmware x attack x configuration)
scenarios.  :class:`ScenarioSpec` describes one such scenario as plain
data -- which firmware builder to call, which events to schedule, which
:class:`~repro.firmware.testbench.TestbenchConfig` knobs to override,
how to drive the run, what to observe and what to expect -- and
:func:`repro.sim.runner.run_scenario` builds and runs it.

Everything open-ended goes through a small string-keyed registry
(firmware builders, event kinds, observers), so user code can extend
the vocabulary without touching this module::

    from repro.sim import register_firmware_builder

    register_firmware_builder("my-firmware", my_firmware_builder)
    spec = ScenarioSpec("smoke", firmware=FirmwareRef.of("my-firmware"))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro._lazy import resolve


# --------------------------------------------------------------------------
# Firmware references
# --------------------------------------------------------------------------

#: Named firmware builders a :class:`FirmwareRef` can point at: the
#: registered ones and the built-ins resolved so far.  A spec carries
#: the *name*, resolved back to the callable at execution time.
FIRMWARE_BUILDERS: Dict[str, Callable] = {}

#: The built-in builders, as ``"module:function"``.  Each is imported
#: and entered in :data:`FIRMWARE_BUILDERS` when a reference first names
#: it, unless a builder was registered under that name before.
_BUILTIN_BUILDERS = {
    "blinker": "repro.firmware.blinker:blinker_firmware",
    "syringe_pump": "repro.firmware.syringe_pump:syringe_pump_firmware",
    "busy_wait_pump": "repro.firmware.syringe_pump:busy_wait_pump_firmware",
    "sensor_logger": "repro.firmware.sensor_logger:sensor_logger_firmware",
}


def register_firmware_builder(name, builder):
    """Register *builder* under *name* for use in :class:`FirmwareRef`."""
    FIRMWARE_BUILDERS[name] = builder
    return builder


@dataclass(frozen=True)
class FirmwareRef:
    """A reference to a registered firmware builder.

    ``kwargs`` is a tuple of ``(name, value)`` pairs passed to the
    builder; parameter dataclasses (``PumpParameters`` etc.) are plain
    data.
    """

    builder: str
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, builder, **kwargs) -> "FirmwareRef":
        """Convenience constructor: ``FirmwareRef.of("blinker", authorized=True)``."""
        return cls(builder, tuple(sorted(kwargs.items())))

    def build(self):
        """Resolve the builder name and produce the firmware spec."""
        builder = FIRMWARE_BUILDERS.get(self.builder)
        if builder is None:
            if self.builder not in _BUILTIN_BUILDERS:
                known = set(FIRMWARE_BUILDERS) | set(_BUILTIN_BUILDERS)
                raise KeyError("unknown firmware builder %r (registered: %s)"
                               % (self.builder, ", ".join(sorted(known))))
            builder = FIRMWARE_BUILDERS.setdefault(
                self.builder, resolve(_BUILTIN_BUILDERS[self.builder]))
        return builder(**dict(self.kwargs))


# --------------------------------------------------------------------------
# Event schedule
# --------------------------------------------------------------------------

#: Event kinds: each maps to ``apply(device, event)``.  Kinds whose
#: effect is scheduled use ``event.step``; setup-time kinds (for example
#: ``dma_configure``) act immediately when the scenario starts.
EVENT_KINDS: Dict[str, Callable] = {}


def register_event_kind(name, apply_function):
    """Register an event kind; ``apply_function(device, event)``."""
    EVENT_KINDS[name] = apply_function
    return apply_function


@dataclass(frozen=True)
class EventSpec:
    """One declarative external event of a scenario's schedule."""

    kind: str
    step: int = 0
    args: Tuple = ()

    def apply(self, device):
        """Apply (schedule or perform) this event on *device*."""
        try:
            apply_function = EVENT_KINDS[self.kind]
        except KeyError:
            raise KeyError(
                "unknown event kind %r (registered: %s)"
                % (self.kind, ", ".join(sorted(EVENT_KINDS)))
            ) from None
        apply_function(device, self)


def _apply_button_press(device, event):
    pin_mask = event.args[0] if event.args else 0x01
    device.schedule_button_press(event.step, pin_mask=pin_mask)


def _apply_uart_rx(device, event):
    device.schedule_uart_rx(event.step, bytes(event.args[0]))


def _apply_write_word(device, event):
    address, value = event.args
    device.schedule(
        event.step,
        lambda d: d.write_word_as_cpu(address, value),
        label="write-word",
    )


def _apply_dma_configure(device, event):
    source, destination, size_words = event.args
    device.dma.configure(source=source, destination=destination,
                         size_words=size_words)


def _apply_dma_trigger(device, event):
    device.schedule(event.step, lambda d: d.dma.trigger(), label="dma-trigger")


register_event_kind("button_press", _apply_button_press)
register_event_kind("uart_rx", _apply_uart_rx)
register_event_kind("write_word", _apply_write_word)
register_event_kind("dma_configure", _apply_dma_configure)
register_event_kind("dma_trigger", _apply_dma_trigger)


# --------------------------------------------------------------------------
# Stop condition and observations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StopSpec:
    """Declarative stop condition for ``mode="run"`` scenarios.

    ``kind="steps"`` runs exactly ``value`` steps
    (:meth:`~repro.device.mcu.Device.run_steps`); ``kind="pc"`` runs
    until the program counter reaches ``value``.
    """

    kind: str = "steps"
    value: int = 0

    def __post_init__(self):
        if self.kind not in ("steps", "pc"):
            raise ValueError("stop kind must be 'steps' or 'pc', got %r" % self.kind)
        if self.kind == "steps" and self.value < 1:
            raise ValueError("stop kind 'steps' needs a positive step count, "
                             "got %r" % self.value)
        if self.kind == "pc" and not 0 <= self.value <= 0xFFFF:
            raise ValueError("stop kind 'pc' needs a 16-bit address, got %r"
                             % self.value)


@dataclass(frozen=True)
class Observe:
    """One named observation to extract after a scenario ran.

    ``name`` selects a registered observer; ``key`` renames the value in
    the result row (defaults to ``name``); ``args`` are observer-specific
    (for example the word index of ``output_word``).
    """

    name: str
    key: Optional[str] = None
    args: Tuple = ()

    @property
    def row_key(self):
        return self.key if self.key is not None else self.name


#: Observers: ``fn(context, observe_spec) -> value`` where *context* is a
#: :class:`ScenarioContext` built by the runner after the scenario ran.
OBSERVERS: Dict[str, Callable] = {}


def register_observer(name, function):
    """Register an observation extractor under *name*."""
    OBSERVERS[name] = function
    return function


@dataclass
class ScenarioContext:
    """What an observer can look at: the finished testbench plus the
    protocol result (``None`` for runs that never attested)."""

    bench: object
    pox_result: object = None


def _require_pox_result(context):
    if context.pox_result is None:
        raise ValueError("scenario produced no protocol result to observe")
    return context.pox_result


register_observer("accepted", lambda ctx, obs: _require_pox_result(ctx).accepted)
register_observer("reason", lambda ctx, obs: _require_pox_result(ctx).reason)
register_observer("exec_flag", lambda ctx, obs: ctx.bench.exec_flag)
register_observer("total_cycles", lambda ctx, obs: ctx.bench.device.total_cycles)
register_observer("steps", lambda ctx, obs: ctx.bench.device.step_number)
register_observer("crashed", lambda ctx, obs: ctx.bench.device.crashed)
register_observer("crash_reason", lambda ctx, obs: ctx.bench.device.crash_reason)
register_observer("output_word",
                  lambda ctx, obs: ctx.bench.output_word(*(obs.args or (0,))))
register_observer("final_signal",
                  lambda ctx, obs: ctx.bench.waveform([obs.args[0]])
                  .final_value(obs.args[0]))


def _first_irq_in_er(context, observe):
    """Did the first serviced interrupt vector into the executable region?"""
    irq_entries = context.bench.device.trace.steps_with_irq()
    if not irq_entries:
        return None
    return context.bench.executable.contains(irq_entries[0].next_pc)


def _sleep_steps(context, observe):
    return sum(1 for entry in context.bench.trace_entries()
               if entry.instruction == "(sleep)")


def _active_steps(context, observe):
    return sum(1 for entry in context.bench.trace_entries()
               if entry.instruction != "(sleep)")


register_observer("first_irq_in_er", _first_irq_in_er)
register_observer("sleep_steps", _sleep_steps)
register_observer("active_steps", _active_steps)


# --------------------------------------------------------------------------
# The scenario specification
# --------------------------------------------------------------------------

#: Run modes for ``kind="pox"`` scenarios.
POX_MODES = ("pox", "execution_only", "execution_attest", "run")
#: Spec kinds the campaign executor knows how to run.
SPEC_KINDS = ("pox", "attack", "ltl", "job")


def _as_pairs(value):
    """Normalise a dict (or pair iterable) field to a tuple of pairs."""
    if isinstance(value, dict):
        return tuple(value.items())
    return tuple(tuple(pair) for pair in value)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative description of one campaign scenario.

    ``kind`` selects the executor:

    * ``"pox"`` -- build a :class:`~repro.firmware.testbench.PoxTestbench`
      from ``firmware``/``config``/``config_overrides``, schedule
      ``events``, drive it according to ``mode`` (full PoX exchange,
      execution only, execution + ``post_steps`` + attestation, or a raw
      ``run`` bounded by ``stop``), then extract ``observe``.
    * ``"attack"`` -- run the named scenario from the attack gallery
      (:func:`repro.firmware.attacks.attack_suite`).
    * ``"ltl"`` -- model-check the named property of the ASAP suite.
    * ``"job"`` -- invoke a registered report job (for example the
      Fig. 6 hardware-cost comparison).

    ``expect`` maps row keys to required values; a scenario is ``ok``
    when it ran without error and every expectation matched.  ``meta``
    contributes constant row columns (labels, sweep coordinates).
    """

    name: str
    kind: str = "pox"
    firmware: Optional[FirmwareRef] = None
    config: Optional[TestbenchConfig] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    events: Tuple[EventSpec, ...] = ()
    mode: str = "pox"
    post_steps: int = 0
    max_steps: int = 20000
    stop: Optional[StopSpec] = None
    attack: Optional[str] = None
    ltl_property: Optional[str] = None
    job: Optional[str] = None
    observe: Tuple[Observe, ...] = ()
    expect: Tuple[Tuple[str, object], ...] = ()
    meta: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in SPEC_KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % (", ".join(SPEC_KINDS), self.kind))
        if self.kind == "pox" and self.mode not in POX_MODES:
            raise ValueError("mode must be one of %s, got %r"
                             % (", ".join(POX_MODES), self.mode))
        # Accept dicts for the pair-tuple fields (ergonomics) but store
        # tuples so specs stay immutable and cheap to compare.
        object.__setattr__(self, "config_overrides", _as_pairs(self.config_overrides))
        object.__setattr__(self, "expect", _as_pairs(self.expect))
        object.__setattr__(self, "meta", _as_pairs(self.meta))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "observe", tuple(self.observe))

    # ------------------------------------------------------------ helpers

    def testbench_config(self) -> TestbenchConfig:
        """The effective testbench configuration (base + overrides)."""
        from repro.firmware.testbench import TestbenchConfig

        base = self.config if self.config is not None else TestbenchConfig()
        if self.config_overrides:
            base = dataclasses.replace(base, **dict(self.config_overrides))
        return base

    def apply_events(self, device):
        """Schedule/apply every declared event on *device*."""
        for event in self.events:
            event.apply(device)

    def expectations(self) -> Dict[str, object]:
        """The expectation mapping as a dict."""
        return dict(self.expect)

    def metadata(self) -> Dict[str, object]:
        """The constant row columns as a dict (insertion order kept)."""
        return dict(self.meta)
