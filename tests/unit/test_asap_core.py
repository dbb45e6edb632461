"""Unit tests for the ASAP core: IVT guard, monitor, linker and verifier."""

import pytest

from repro.apex.regions import MetadataRegion, OutputRegion, PoxConfig
from repro.core.hwmod import AsapMonitor
from repro.core.ivt_guard import IvtGuard, IvtGuardState
from repro.core.linker import ErLinker, LinkError
from repro.core.pox import AsapPoxVerifier, IVT_SNAPSHOT
from repro.cpu.signals import MemoryWrite, SignalBundle
from repro.memory.ivt import IVT_BASE, IVT_END
from repro.memory.layout import MemoryRegion
from repro.peripherals.registers import InterruptVectors
from repro.vrased.swatt import AttestationReport


ER_MIN = 0xE000
ER_MAX = 0xE07E
IVT_REGION = MemoryRegion(IVT_BASE, IVT_END, "ivt")


def bundle(pc, next_pc=None, irq=False, writes=(), dma_writes=(), cycle=1):
    return SignalBundle(
        cycle=cycle,
        pc=pc,
        next_pc=pc + 2 if next_pc is None else next_pc,
        irq=irq,
        dma_en=bool(dma_writes),
        writes=[MemoryWrite(address, 0, 2) for address in writes],
        dma_writes=[MemoryWrite(address, 0, 2) for address in dma_writes],
    )


@pytest.fixture
def asap_monitor(pox_config):
    return AsapMonitor(pox_config)


class TestIvtGuard:
    @pytest.fixture
    def guard(self):
        return IvtGuard(IVT_REGION, ER_MIN)

    def test_initial_state_is_run(self, guard):
        assert guard.state is IvtGuardState.RUN
        assert guard.exec_allowed

    def test_cpu_write_to_ivt_trips_guard(self, guard):
        guard.observe(bundle(0xC000, writes=[IVT_BASE + 4]))
        assert guard.state is IvtGuardState.NOT_EXEC
        assert guard.tripped
        assert guard.events[0].initiator == "cpu"

    def test_dma_write_to_ivt_trips_guard(self, guard):
        guard.observe(bundle(0xC000, dma_writes=[IVT_BASE]))
        assert guard.state is IvtGuardState.NOT_EXEC
        assert guard.events[0].initiator == "dma"

    def test_write_outside_ivt_is_ignored(self, guard):
        guard.observe(bundle(0xC000, writes=[0x0600]))
        assert guard.state is IvtGuardState.RUN

    def test_recovery_only_at_er_min(self, guard):
        guard.observe(bundle(0xC000, writes=[IVT_BASE]))
        guard.observe(bundle(0xC002))
        assert guard.state is IvtGuardState.NOT_EXEC
        guard.observe(bundle(ER_MIN))
        assert guard.state is IvtGuardState.RUN

    def test_simultaneous_write_and_ermin_stays_tripped(self, guard):
        guard.observe(bundle(0xC000, writes=[IVT_BASE]))
        guard.observe(bundle(ER_MIN, writes=[IVT_BASE + 2]))
        assert guard.state is IvtGuardState.NOT_EXEC

    def test_reset(self, guard):
        guard.observe(bundle(0xC000, writes=[IVT_BASE]))
        guard.reset()
        assert guard.state is IvtGuardState.RUN
        assert not guard.tripped

    def test_observe_returns_the_tripping_write(self, guard):
        assert guard.observe(bundle(0xC000, writes=[0x0600])) is None
        event = guard.observe(bundle(0xC000, dma_writes=[IVT_BASE + 6]))
        assert (event.initiator, event.address) == ("dma", IVT_BASE + 6)
        assert guard.events == [event]
        assert guard.observe(bundle(ER_MIN)) is None
        assert guard.exec_allowed


class TestAsapMonitor:
    def test_authorized_interrupt_keeps_exec(self, asap_monitor, pox_config):
        isr = pox_config.executable.region.start + 0x20
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(ER_MIN + 4, next_pc=isr, irq=True))
        asap_monitor.observe(bundle(isr))
        assert asap_monitor.exec_flag
        assert not asap_monitor.violated

    def test_unauthorized_interrupt_clears_exec(self, asap_monitor):
        outside_isr = 0xC100
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(ER_MIN + 4, next_pc=outside_isr, irq=True))
        assert not asap_monitor.exec_flag
        assert asap_monitor.violations_for("ltl1-exit")

    def test_no_ltl3_rule_exists(self, asap_monitor):
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(ER_MIN + 4, next_pc=ER_MIN + 6, irq=True))
        assert asap_monitor.exec_flag
        assert not asap_monitor.violations_for("ltl3-interrupt")

    def test_ap1_cpu_write_to_ivt_clears_exec(self, asap_monitor):
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(ER_MIN + 4, writes=[IVT_BASE + 4]))
        assert not asap_monitor.exec_flag
        assert asap_monitor.violations_for("ap1-ivt-modified")
        assert not asap_monitor.ivt_guard.exec_allowed

    def test_ap1_dma_write_to_ivt_clears_exec(self, asap_monitor):
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(0xC000, dma_writes=[IVT_BASE]))
        assert asap_monitor.violations_for("ap1-ivt-modified")

    def test_ap1_records_one_violation_per_tripping_step(self, asap_monitor):
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(ER_MIN + 4, writes=[IVT_BASE + 4],
                                    dma_writes=[IVT_BASE]))
        (violation,) = asap_monitor.violations_for("ap1-ivt-modified")
        assert violation.detail == "CPU write to IVT address 0x%04X" % (IVT_BASE + 4)
        assert asap_monitor.ivt_guard.events[0].initiator == "cpu"

    def test_guard_signal_exported(self, asap_monitor):
        values = asap_monitor.signal_values()
        assert values["IVT_GUARD_OK"] == 1
        asap_monitor.observe(bundle(0xC000, writes=[IVT_BASE]))
        assert asap_monitor.signal_values()["IVT_GUARD_OK"] == 0

    def test_reset_clears_guard(self, asap_monitor):
        asap_monitor.observe(bundle(0xC000, writes=[IVT_BASE]))
        asap_monitor.reset()
        assert asap_monitor.ivt_guard.exec_allowed
        assert not asap_monitor.violated

    def test_memory_rules_inherited_from_apex(self, asap_monitor, pox_config):
        asap_monitor.observe(bundle(ER_MIN))
        asap_monitor.observe(bundle(0xC000, writes=[pox_config.executable.region.start]))
        assert asap_monitor.violations_for("er-modified")


LINKER_SOURCE = """
    .section exec.start
ER_entry:
    EINT
    CALL #work
    DINT
    BR #ER_exit

    .section exec.body
work:
    MOV #0, R6
    RET
trusted_isr:
    INC R10
    RETI

    .section exec.leave
ER_exit:
    RET

    .section .text
main:
    NOP
    JMP main
untrusted_isr:
    RETI
"""


class TestErLinker:
    def link(self, **kwargs):
        linker = ErLinker(er_base=0xE000)
        defaults = dict(
            trusted_isrs={InterruptVectors.PORT1: "trusted_isr"},
            untrusted_isrs={InterruptVectors.PORT5: "untrusted_isr"},
            reset_symbol="main",
        )
        defaults.update(kwargs)
        return linker.link(LINKER_SOURCE, **defaults)

    def test_er_sections_are_contiguous_from_base(self):
        firmware = self.link()
        assert firmware.executable.region.start == 0xE000
        assert firmware.executable.er_min == firmware.symbol("ER_entry")
        assert firmware.executable.er_max == firmware.symbol("ER_exit")

    def test_trusted_isr_inside_er(self):
        firmware = self.link()
        isr_address = firmware.symbol("trusted_isr")
        assert firmware.executable.contains(isr_address)
        assert firmware.executable.isr_entries[InterruptVectors.PORT1] == isr_address

    def test_untrusted_isr_outside_er(self):
        firmware = self.link()
        assert not firmware.executable.contains(firmware.symbol("untrusted_isr"))
        assert len(firmware.untrusted_isrs()) == 1
        assert len(firmware.trusted_isrs()) == 1

    def test_ivt_vectors_programmed_on_load(self, device):
        firmware = self.link()
        firmware.load_into(device)
        assert device.ivt.get_vector(InterruptVectors.PORT1) == firmware.symbol("trusted_isr")
        assert device.ivt.get_vector(InterruptVectors.PORT5) == firmware.symbol("untrusted_isr")
        assert device.ivt.get_reset_vector() == firmware.symbol("main")

    def test_trusted_isr_outside_er_rejected(self):
        with pytest.raises(LinkError):
            self.link(trusted_isrs={InterruptVectors.PORT1: "untrusted_isr"})

    def test_untrusted_isr_inside_er_rejected(self):
        with pytest.raises(LinkError):
            self.link(untrusted_isrs={InterruptVectors.PORT5: "trusted_isr"})

    def test_undefined_isr_symbol_rejected(self):
        with pytest.raises(LinkError):
            self.link(trusted_isrs={InterruptVectors.PORT1: "missing_isr"})

    def test_undefined_reset_symbol_rejected(self):
        with pytest.raises(LinkError):
            self.link(reset_symbol="nowhere")

    def test_same_index_trusted_and_untrusted_rejected(self):
        with pytest.raises(LinkError):
            self.link(
                trusted_isrs={InterruptVectors.PORT1: "trusted_isr"},
                untrusted_isrs={InterruptVectors.PORT1: "untrusted_isr"},
            )

    def test_source_without_er_sections_rejected(self):
        linker = ErLinker(er_base=0xE000)
        with pytest.raises(LinkError):
            linker.link(".section .text\nNOP\n")

    def test_er_base_outside_program_memory_rejected(self):
        with pytest.raises(LinkError):
            ErLinker(er_base=0x0300)

    def test_er_bytes_roundtrip(self, device):
        firmware = self.link()
        firmware.load_into(device)
        er_bytes = firmware.er_bytes(device.memory)
        assert len(er_bytes) == firmware.executable.region.size


class TestAsapPoxVerifierPolicy:
    def make_verifier(self, pox_config, expected_isrs):
        verifier = AsapPoxVerifier()
        verifier.enroll("dev")
        verifier.register_asap_deployment(
            "dev", pox_config, b"\x00" * pox_config.executable.region.size,
            expected_isrs,
        )
        return verifier

    def ivt_snapshot(self, entries):
        data = bytearray(32)
        for index, address in entries.items():
            data[2 * index] = address & 0xFF
            data[2 * index + 1] = (address >> 8) & 0xFF
        return bytes(data)

    def test_policy_check_flags_unexpected_er_entry(self, pox_config):
        verifier = self.make_verifier(pox_config, {2: 0xE020})
        reference = verifier.reference("dev")
        report = AttestationReport(
            device_id="dev", challenge=b"\x00" * 32, measurement=b"\x00" * 32,
            claims={"EXEC": 1},
            snapshots={IVT_SNAPSHOT: self.ivt_snapshot({2: 0xE020, 4: 0xE004})},
        )
        error = verifier._post_measurement_checks("dev", report, reference)
        assert error is not None and "IVT entry 4" in error

    def test_policy_check_accepts_expected_entries(self, pox_config):
        verifier = self.make_verifier(pox_config, {2: 0xE020})
        reference = verifier.reference("dev")
        report = AttestationReport(
            device_id="dev", challenge=b"\x00" * 32, measurement=b"\x00" * 32,
            claims={"EXEC": 1},
            snapshots={IVT_SNAPSHOT: self.ivt_snapshot({2: 0xE020, 9: 0xA400})},
        )
        assert verifier._post_measurement_checks("dev", report, reference) is None

    def test_policy_check_flags_swapped_handler(self, pox_config):
        verifier = self.make_verifier(pox_config, {2: 0xE020, 9: 0xE030})
        reference = verifier.reference("dev")
        report = AttestationReport(
            device_id="dev", challenge=b"\x00" * 32, measurement=b"\x00" * 32,
            claims={"EXEC": 1},
            snapshots={IVT_SNAPSHOT: self.ivt_snapshot({2: 0xE030, 9: 0xE020})},
        )
        error = verifier._post_measurement_checks("dev", report, reference)
        assert error is not None and "intended handler" in error

    def test_policy_check_requires_snapshot(self, pox_config):
        verifier = self.make_verifier(pox_config, {2: 0xE020})
        reference = verifier.reference("dev")
        report = AttestationReport(
            device_id="dev", challenge=b"\x00" * 32, measurement=b"\x00" * 32,
            claims={"EXEC": 1}, snapshots={},
        )
        error = verifier._post_measurement_checks("dev", report, reference)
        assert error is not None and "IVT" in error


class TestShiftedIvtRegion:
    """A non-default (partial) ``ivt_region`` must attribute handlers to
    the interrupt sources that actually vector through it."""

    #: Covers sources 4..15 only (the table's last 24 bytes).
    SHIFTED = MemoryRegion(IVT_BASE + 8, IVT_END, "ivt-tail")

    def make_verifier(self, pox_config, expected_isrs):
        verifier = AsapPoxVerifier()
        verifier.enroll("dev")
        verifier.register_asap_deployment(
            "dev", pox_config, b"\x00" * pox_config.executable.region.size,
            expected_isrs, ivt_region=self.SHIFTED,
        )
        return verifier

    def shifted_snapshot(self, entries):
        """Snapshot of the shifted region; *entries* keyed by source index."""
        data = bytearray(self.SHIFTED.size)
        for index, address in entries.items():
            offset = 2 * index - (self.SHIFTED.start - IVT_BASE)
            assert 0 <= offset < len(data), "source %d outside the region" % index
            data[offset] = address & 0xFF
            data[offset + 1] = (address >> 8) & 0xFF
        return bytes(data)

    def test_entries_decode_from_region_offset(self):
        from repro.core.pox import _ivt_entries_from_bytes

        snapshot = self.shifted_snapshot({4: 0xE020, 6: 0xE030})
        entries = _ivt_entries_from_bytes(snapshot, self.SHIFTED.start)
        assert entries[4] == 0xE020 and entries[6] == 0xE030
        assert min(entries) == 4  # indexed from the region's offset, not 0

    def test_correct_entries_accepted_through_shifted_region(self, pox_config):
        verifier = self.make_verifier(pox_config, {4: 0xE020, 6: 0xE030})
        reference = verifier.reference("dev")
        report = AttestationReport(
            device_id="dev", challenge=b"\x00" * 32, measurement=b"\x00" * 32,
            claims={"EXEC": 1},
            snapshots={IVT_SNAPSHOT: self.shifted_snapshot(
                {4: 0xE020, 6: 0xE030})},
        )
        assert verifier._post_measurement_checks("dev", report, reference) is None

    def test_swapped_handlers_flagged_through_shifted_region(self, pox_config):
        # Sources 4 and 6 have their intended handlers swapped.  Before
        # the fix the decoder labelled them sources 0 and 2 (which have
        # no expectations), so the per-source handler check silently
        # passed and the ISR-entry policy was applied to the wrong
        # interrupt sources.
        verifier = self.make_verifier(pox_config, {4: 0xE020, 6: 0xE030})
        reference = verifier.reference("dev")
        report = AttestationReport(
            device_id="dev", challenge=b"\x00" * 32, measurement=b"\x00" * 32,
            claims={"EXEC": 1},
            snapshots={IVT_SNAPSHOT: self.shifted_snapshot(
                {4: 0xE030, 6: 0xE020})},
        )
        error = verifier._post_measurement_checks("dev", report, reference)
        assert error is not None and "intended handler" in error
        assert "IVT entry 4" in error
