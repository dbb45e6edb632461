"""Differential oracles for the monitors' fast path.

The APEX/ASAP monitors test the PC with integer compares, skip the
memory rules on write-free steps, and test regions by comparing byte
spans with region bounds.  The reference here is the rule-by-rule
version they replace: every rule on every step, each region test made
by expanding the step's accesses into byte addresses.

* the four :class:`SignalBundle` region helpers and
  :func:`first_byte_in` must agree with the byte lists of
  ``_expand_addresses`` over random sized accesses, wrap at 0xFFFF
  included;
* after every step of a random bundle sequence, ``ApexMonitor`` and
  ``AsapMonitor`` must equal the reference on violations, EXEC,
  started/completed, exported signals and the IVT guard's state/events.
"""

from hypothesis import given, settings, strategies as st

from repro.apex.hwmod import ApexMonitor, ExecViolation
from repro.apex.regions import ExecutableRegion, MetadataRegion, OutputRegion, PoxConfig
from repro.core.hwmod import AsapMonitor
from repro.core.ivt_guard import IvtGuardState, IvtWriteEvent
from repro.cpu.signals import (
    MemoryRead,
    MemoryWrite,
    SignalBundle,
    _expand_addresses,
    first_byte_in,
)
from repro.memory.ivt import IVT_BASE, IVT_END
from repro.memory.layout import MemoryRegion


# ---------------------------------------------------------------- reference

def _writes_into(bundle, region):
    return any(region.contains(address) for address in _expand_addresses(bundle.writes))


def _dma_writes_into(bundle, region):
    return any(region.contains(address) for address in _expand_addresses(bundle.dma_writes))


class ReferenceIvtGuard:
    """The Fig. 3 FSM, scanning byte lists on every step."""

    def __init__(self, ivt_region, er_min):
        self.ivt_region = ivt_region
        self.er_min = er_min & 0xFFFF
        self.state = IvtGuardState.RUN
        self.events = []

    def ivt_write_in(self, bundle):
        for address in _expand_addresses(bundle.writes):
            if self.ivt_region.contains(address):
                return IvtWriteEvent(bundle.cycle, "cpu", address)
        for address in _expand_addresses(bundle.dma_writes):
            if self.ivt_region.contains(address):
                return IvtWriteEvent(bundle.cycle, "dma", address)
        return None

    def observe(self, bundle):
        write_event = self.ivt_write_in(bundle)
        if write_event is not None:
            self.events.append(write_event)
            self.state = IvtGuardState.NOT_EXEC
        elif self.state is IvtGuardState.NOT_EXEC and bundle.pc == self.er_min:
            self.state = IvtGuardState.RUN
        return write_event


class ReferenceMonitor:
    """APEX (``ltl3=True``) or ASAP (``ivt_region`` given), rule by rule."""

    def __init__(self, config, ltl3=False, ivt_region=None):
        self.config = config
        self.ltl3 = ltl3
        self.ivt_guard = (None if ivt_region is None
                          else ReferenceIvtGuard(ivt_region, config.executable.er_min))
        self.exec_flag = False
        self.violations = []
        self.execution_started = False
        self.execution_completed = False
        self._last_pc_in_er = False

    def signal_values(self):
        values = {
            "EXEC": 1 if self.exec_flag else 0,
            "PC_in_ER": 1 if self._last_pc_in_er else 0,
        }
        if self.ivt_guard is not None:
            values["IVT_GUARD_OK"] = 1 if self.ivt_guard.state is IvtGuardState.RUN else 0
        return values

    def observe(self, bundle):
        violations_before = len(self.violations)
        self._check_common_rules(bundle)
        self._check_extra_rules(bundle)
        violated_now = len(self.violations) > violations_before

        if violated_now:
            self.exec_flag = False
        elif bundle.pc == self.config.executable.er_min:
            self.exec_flag = True
            self.execution_started = True
            self.execution_completed = False

        if (
            self.execution_started
            and not self.execution_completed
            and bundle.pc == self.config.executable.er_max
            and not self.config.executable.contains(bundle.next_pc)
        ):
            self.execution_completed = True

        self._last_pc_in_er = self.config.executable.contains(bundle.pc)

    def _check_common_rules(self, bundle):
        executable = self.config.executable
        output = self.config.output
        metadata = self.config.metadata

        pc_in_er = executable.contains(bundle.pc)
        next_in_er = executable.contains(bundle.next_pc)

        if pc_in_er and not next_in_er and bundle.pc != executable.er_max:
            self._record(
                "ltl1-exit", bundle,
                "ER left from 0x%04X (legal exit is 0x%04X)"
                % (bundle.pc, executable.er_max),
            )
        if not pc_in_er and next_in_er and bundle.next_pc != executable.er_min:
            self._record(
                "ltl2-entry", bundle,
                "ER entered at 0x%04X (legal entry is 0x%04X)"
                % (bundle.next_pc, executable.er_min),
            )

        if _writes_into(bundle, executable.region) or _dma_writes_into(bundle, executable.region):
            self._record("er-modified", bundle, "write into the executable region")

        if _writes_into(bundle, output.region) and not pc_in_er:
            self._record(
                "or-modified", bundle,
                "output region written while PC=0x%04X is outside ER" % bundle.pc,
            )
        if _dma_writes_into(bundle, output.region):
            self._record("or-dma", bundle, "DMA write into the output region")

        if _writes_into(bundle, metadata.region) or _dma_writes_into(bundle, metadata.region):
            self._record("metadata-modified", bundle, "write into the metadata region")

        if pc_in_er and bundle.dma_en:
            self._record("dma-during-er", bundle, "DMA active during ER execution")

    def _check_extra_rules(self, bundle):
        if self.ltl3 and self.config.executable.contains(bundle.pc) and bundle.irq:
            self._record(
                "ltl3-interrupt", bundle,
                "interrupt requested while ER executes (APEX forbids all interrupts)",
            )
        if self.ivt_guard is not None:
            write_event = self.ivt_guard.observe(bundle)
            if write_event is not None:
                self._record(
                    "ap1-ivt-modified", bundle,
                    "%s write to IVT address 0x%04X"
                    % (write_event.initiator.upper(), write_event.address),
                )

    def _record(self, rule, bundle, detail=""):
        self.violations.append(ExecViolation(rule=rule, step=bundle.cycle, detail=detail))


# ---------------------------------------------------------------- region helpers

addresses = st.one_of(
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0xFFF0, max_value=0xFFFF),
    st.integers(min_value=-4, max_value=0x10004),
)
small_sizes = st.integers(min_value=-1, max_value=8)
#: Spans of 64 KiB and more cover the whole address space, some bytes twice.
sizes = st.one_of(small_sizes, st.sampled_from([0xFFFF, 0x10000, 0x10001]))


@st.composite
def regions(draw):
    bound = st.one_of(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0xFFF0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0x10),
    )
    start, end = sorted((draw(bound), draw(bound)))
    return MemoryRegion(start, end)


def accesses(kind, size=small_sizes):
    return st.lists(st.builds(kind, address=addresses, value=st.just(0), size=size),
                    max_size=3)


class TestRegionHelpersMatchByteLists:
    @given(accesses(MemoryWrite, sizes), regions())
    @settings(max_examples=300, deadline=None)
    def test_first_byte_in_is_the_first_listed_byte_in_the_region(self, writes, region):
        expected = next(
            (address for address in _expand_addresses(writes) if region.contains(address)),
            None,
        )
        assert first_byte_in(writes, region) == expected

    @given(accesses(MemoryWrite), accesses(MemoryRead), accesses(MemoryWrite),
           accesses(MemoryRead), regions())
    @settings(max_examples=300, deadline=None)
    def test_region_helpers_match_expanded_addresses(self, writes, reads, dma_writes,
                                                     dma_reads, region):
        bundle = SignalBundle(writes=writes, reads=reads, dma_en=True,
                              dma_writes=dma_writes, dma_reads=dma_reads)

        def touched(byte_addresses):
            return any(region.contains(address) for address in byte_addresses)

        assert bundle.writes_into(region) == touched(bundle.write_addresses)
        assert bundle.reads_from(region) == touched(bundle.read_addresses)
        assert bundle.dma_touches(region) == touched(bundle.dma_addresses)
        assert bundle.dma_writes_into(region) == touched(bundle.dma_write_addresses)

    def test_a_word_at_0xffff_wraps_to_0x0000(self):
        write = [MemoryWrite(0xFFFF, 0, 2)]
        assert first_byte_in(write, MemoryRegion(0x0000, 0x0003)) == 0x0000
        assert first_byte_in(write, MemoryRegion(0xFFFE, 0xFFFF)) == 0xFFFF
        assert first_byte_in(write, MemoryRegion(0x0001, 0x0003)) is None


# ---------------------------------------------------------------- monitors

#: In the first geometry, and the second IVT, every region starts odd and
#: ends even, so an aligned word write straddles each edge.  The second
#: geometry puts the metadata at 0x0000, where a word written at 0xFFFF
#: lands after the wrap.
CONFIGS = (
    PoxConfig(
        executable=ExecutableRegion.spanning(0xE001, 0xE080, entry=0xE001, exit=0xE07E),
        output=OutputRegion.spanning(0x0601, 0x0640),
        metadata=MetadataRegion.at(0x0401),
    ),
    PoxConfig(
        executable=ExecutableRegion.spanning(0xC000, 0xC0FF, entry=0xC002, exit=0xC0FD),
        output=OutputRegion.spanning(0x0201, 0x0220),
        metadata=MetadataRegion.at(0x0000),
    ),
)
IVT_REGIONS = (
    MemoryRegion(IVT_BASE, IVT_END, "ivt"),
    MemoryRegion(0xFFE1, 0xFFFE, "ivt"),
)


@st.composite
def monitored_runs(draw):
    """A geometry, an IVT and up to 40 steps probing every region edge."""
    config = draw(st.sampled_from(CONFIGS))
    ivt_region = draw(st.sampled_from(IVT_REGIONS))
    edges = {0x0800, 0xFFFF}
    for region in (config.executable.region, config.output.region,
                   config.metadata.region, ivt_region):
        for address in (region.start - 1, region.start, region.end, region.end + 1):
            edges.add(address & 0xFFFF)
    executable = config.executable
    pcs = sorted({
        executable.er_min - 1, executable.er_min, executable.er_min + 1,
        executable.er_max - 1, executable.er_max, executable.er_max + 1,
        executable.region.start, executable.region.end, executable.region.end + 1,
        0xA000,
        # Only the low 16 bits place a PC in ER; the entry/exit tests
        # compare the whole value.
        executable.er_min + 0x10000,
    })
    write = st.builds(MemoryWrite, address=st.sampled_from(sorted(edges)),
                      value=st.just(0), size=st.sampled_from([1, 2]))
    step = st.fixed_dictionaries({
        "pc": st.sampled_from(pcs),
        "next_pc": st.sampled_from(pcs),
        "irq": st.booleans(),
        "writes": st.lists(write, max_size=2),
        "dma_en": st.booleans(),
        "dma_writes": st.lists(write, max_size=2),
    })
    return config, ivt_region, draw(st.lists(step, min_size=1, max_size=40))


def _state(monitor):
    return (
        monitor.violations,
        monitor.exec_flag,
        monitor.execution_started,
        monitor.execution_completed,
        monitor.signal_values(),
    )


class TestMonitorsMatchReference:
    @given(monitored_runs())
    @settings(max_examples=300, deadline=None)
    def test_fast_monitors_match_the_rule_by_rule_reference(self, run):
        config, ivt_region, steps = run
        pairs = (
            (ApexMonitor(config), ReferenceMonitor(config, ltl3=True)),
            (AsapMonitor(config, ivt_region), ReferenceMonitor(config, ivt_region=ivt_region)),
        )
        for cycle, step in enumerate(steps, start=1):
            bundle = SignalBundle(cycle=cycle, **step)
            for monitor, reference in pairs:
                monitor.observe(bundle)
                reference.observe(bundle)
                assert _state(monitor) == _state(reference), (monitor.architecture, cycle)
            asap, reference = pairs[1]
            assert asap.ivt_guard.state is reference.ivt_guard.state
            assert asap.ivt_guard.events == reference.ivt_guard.events
