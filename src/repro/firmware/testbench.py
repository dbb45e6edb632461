"""The PoX testbench: firmware + device + monitor + protocol in one object.

Every experiment in the reproduction follows the same recipe: link a
firmware image with the ER linker, flash it onto a fresh device, attach
either the APEX or the ASAP monitor, provision the verifier and run the
proof-of-execution exchange while the scenario injects asynchronous
events.  :class:`PoxTestbench` packages that recipe so examples, tests
and benches stay short and consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro._lru import LruDict
from repro.apex.hwmod import ApexMonitor
from repro.apex.pox import PoxProtocol, PoxVerifier
from repro.apex.regions import MetadataRegion, OutputRegion, PoxConfig
from repro.core.hwmod import AsapMonitor
from repro.core.linker import ErLinker
from repro.core.pox import AsapPoxProtocol, AsapPoxVerifier
from repro.device.mcu import Device, DeviceConfig
from repro.peripherals.registers import PeripheralRegisters


@dataclass(frozen=True)
class FirmwareSpec:
    """A linkable firmware: assembly source plus its ISR declarations."""

    name: str
    source: str
    trusted_isrs: Dict[int, str] = field(default_factory=dict)
    untrusted_isrs: Dict[int, str] = field(default_factory=dict)
    reset_symbol: str = "main"
    description: str = ""


#: Per-process cache of linked firmware images.  Linking (two-pass
#: assembly plus section placement) dominates testbench construction,
#: and a campaign rebuilds the same handful of images for every
#: scenario.  Sharing a :class:`~repro.core.linker.LinkedFirmware`
#: across testbenches is safe: it is read-only after linking
#: (``load_into`` copies bytes out of the image into the device, never
#: the other way around), and the cache key covers everything that
#: influences the link.  LRU-bounded: a generated-firmware corpus
#: makes every image unique, and an unbounded dict would leak a full
#: linked image per scenario.
_LINK_CACHE_CAP = 64
_LINK_CACHE = LruDict(_LINK_CACHE_CAP)


def _link_cache_key(firmware: FirmwareSpec, er_base: int) -> tuple:
    return (
        firmware.source,
        tuple(sorted(firmware.trusted_isrs.items())),
        tuple(sorted(firmware.untrusted_isrs.items())),
        firmware.reset_symbol,
        er_base,
    )


def clear_link_cache():
    """Drop every cached linked firmware image (tests, memory pressure)."""
    _LINK_CACHE.clear()


@dataclass
class TestbenchConfig:
    """Geometry and architecture selection for a :class:`PoxTestbench`."""

    #: Not a pytest test class (the name just happens to start with "Test").
    __test__ = False

    architecture: str = "asap"
    er_base: int = 0xE000
    or_start: int = 0x0600
    or_end: int = 0x063F
    metadata_start: int = 0x0400
    device_id: str = "prover-1"
    enable_port1_interrupts: bool = True
    enable_uart_rx_interrupts: bool = False
    trace_enabled: bool = True
    #: Forwarded to :class:`~repro.device.mcu.DeviceConfig`: the decoded-
    #: instruction cache (on by default).
    decode_cache_enabled: bool = True

    def __post_init__(self):
        if self.architecture not in ("asap", "apex"):
            raise ValueError("architecture must be 'asap' or 'apex', got %r"
                             % self.architecture)


class PoxTestbench:
    """A ready-to-run proof-of-execution scenario."""

    def __init__(self, firmware: FirmwareSpec, config: Optional[TestbenchConfig] = None,
                 pox_verifier=None):
        """``pox_verifier`` (optional) supplies an existing verifier to
        provision against instead of a private one -- the fleet service
        (:mod:`repro.net.fleet`) enrolls every device of a fleet into
        one shared verifier this way.  It must match the configured
        architecture (:class:`~repro.core.pox.AsapPoxVerifier` for
        ``"asap"``, :class:`~repro.apex.pox.PoxVerifier` for ``"apex"``).
        """
        self.spec = firmware
        self.config = config or TestbenchConfig()

        self.device = Device(DeviceConfig(
            trace_enabled=self.config.trace_enabled,
            decode_cache_enabled=self.config.decode_cache_enabled,
        ))
        self.linker = ErLinker(layout=self.device.layout, er_base=self.config.er_base)
        self.firmware = self._linked_firmware(firmware)
        self.pox_config = PoxConfig(
            executable=self.firmware.executable,
            output=OutputRegion.spanning(self.config.or_start, self.config.or_end),
            metadata=MetadataRegion.at(self.config.metadata_start),
        )
        self.pox_config.validate_against(self.device.layout)

        if self.config.architecture == "asap":
            self.monitor = AsapMonitor(self.pox_config)
            self.pox_verifier = pox_verifier or AsapPoxVerifier()
            self.protocol = AsapPoxProtocol(
                self.device, self.pox_verifier, self.config.device_id,
                self.pox_config, self.monitor,
            )
        else:
            self.monitor = ApexMonitor(self.pox_config)
            self.pox_verifier = pox_verifier or PoxVerifier()
            self.protocol = PoxProtocol(
                self.device, self.pox_verifier, self.config.device_id,
                self.pox_config, self.monitor,
            )

        self.device.attach_monitor(self.monitor)
        self.firmware.load_into(self.device)
        self.device.reset()
        self._enable_configured_interrupt_sources()
        self.protocol.provision()

    # ------------------------------------------------------------ setup

    def _linked_firmware(self, firmware: FirmwareSpec):
        """Link *firmware*, through the per-process cache."""
        key = _link_cache_key(firmware, self.config.er_base)
        linked = _LINK_CACHE.get(key)
        if linked is None:
            linked = _LINK_CACHE.setdefault(key, self._link(firmware))
        return linked

    def _link(self, firmware: FirmwareSpec):
        return self.linker.link(
            firmware.source,
            trusted_isrs=firmware.trusted_isrs,
            untrusted_isrs=firmware.untrusted_isrs,
            reset_symbol=firmware.reset_symbol,
        )

    def _enable_configured_interrupt_sources(self):
        if self.config.enable_port1_interrupts:
            self.device.memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        if self.config.enable_uart_rx_interrupts:
            self.device.memory.load_bytes(PeripheralRegisters.URCTL, bytes([0x01]))

    # ------------------------------------------------------------ running

    def run_pox(self, setup: Optional[Callable[[Device], None]] = None,
                max_steps=20000):
        """Run the full PoX exchange; returns the verification result."""
        return self.protocol.run(max_steps=max_steps, setup=setup)

    def run_execution_only(self, setup: Optional[Callable[[Device], None]] = None,
                           max_steps=20000):
        """Deliver a challenge and execute ER without attesting yet."""
        self.protocol.deliver_challenge()
        return self.protocol.call_executable(max_steps=max_steps, setup=setup)

    def attest_and_verify(self):
        """Attest the current device state and verify the report."""
        report = self.protocol.attest()
        return self.protocol.verify(report)

    # ------------------------------------------------------------ inspection

    @property
    def executable(self):
        """The linked executable region."""
        return self.firmware.executable

    @property
    def exec_flag(self):
        """The monitor's current EXEC value."""
        return self.monitor.exec_value()

    def output_bytes(self):
        """The current contents of the output region."""
        return self.device.memory.dump_region(self.pox_config.output.region)

    def output_word(self, index=0):
        """Read the *index*-th word of the output region."""
        return self.device.memory.peek_word(self.pox_config.output.region.start + 2 * index)

    def waveform(self, signals=("EXEC", "irq", "PC")):
        """Extract a waveform of *signals* from the recorded trace."""
        return self.device.trace.waveform(signals)

    def trace_entries(self):
        """The raw trace entries recorded so far."""
        return list(self.device.trace)
