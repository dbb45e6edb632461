"""Simulation throughput: steps/sec with the decode cache on vs. off.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; every scenario sweep multiplies the cost of the step
loop.  This bench records the throughput trajectory of the interpreter
across the four corners of the fast-path matrix:

* decoded-instruction cache on / off (``DeviceConfig.decode_cache_enabled``),
* per-step trace recording on / off (``DeviceConfig.trace_enabled``),

measured on the paper's firmware images (the Fig. 4 blinker and the
Section 3 syringe pump).  The companion differential test
(``tests/integration/test_decode_cache_differential.py``) proves that
every configuration produces byte-for-byte identical traces and monitor
observations; this file only measures speed.  Every measurement goes
through the simulator's one step loop (``Device.run_steps``);
``test_interpreter_workload_rows`` also records the labeled
``BENCH_sim.json`` rows -- including the ASAP-monitored idle loop --
that ``benchmarks/compare_bench.py`` gates.

Run with ``pytest benchmarks/test_bench_sim_throughput.py --benchmark-only -s``
to see the table alongside the timing statistics.
"""

from __future__ import annotations

import statistics
import time

from repro.device.mcu import Device, DeviceConfig
from repro.firmware.blinker import blinker_firmware
from repro.firmware.syringe_pump import PumpParameters, busy_wait_pump_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.peripherals.registers import PeripheralRegisters

#: Steps per measurement pass.  Long enough that the per-pass overhead
#: (building the bench, warming the cache) is negligible.
MEASURE_STEPS = 30000
#: Measurement rounds; each runs every configuration once.  Tables and
#: rows report a configuration's best round, so a scheduling hiccup
#: cannot drag a number down.
REPEATS = 4
#: Required speedup of the decode cache (trace off, like for like).
#: Ten runs per firmware image on a 2-CPU x86-64 box measured 7.4-11.4x
#: (median within-round ratio; a miss decodes and compiles the
#: instruction, a hit runs its closure); a cache that stopped hitting
#: would measure ~1x, so this floor fails only for a real loss.
REQUIRED_SPEEDUP = 2.5


def _fresh_device(firmware, decode_cache, trace):
    """A monitor-less device running *firmware* from reset."""
    bench = PoxTestbench(firmware, TestbenchConfig(
        decode_cache_enabled=decode_cache, trace_enabled=trace,
    ))
    device = bench.device
    # The monitor pipeline is identical in every configuration (the
    # differential test proves it); detach it so the measurement sees
    # the raw step loop.
    device.detach_monitor(bench.monitor)
    return device


def _pass_rate(device):
    """Steps/sec of one measurement pass on a device fresh from reset."""
    device.run_steps(1000)  # settle: boot code, cold decode cache
    started = time.perf_counter()
    device.run_steps(MEASURE_STEPS)
    return MEASURE_STEPS / (time.perf_counter() - started)


def _rounds(firmware, corners):
    """Steps/sec per ``(decode_cache, trace)`` corner, one per round.

    Each of the ``REPEATS`` rounds measures every corner once, back to
    back, so the corners of one round share the host's state of the
    moment; ratios are taken within a round (:func:`_median_ratio`).
    """
    rates = {corner: [] for corner in corners}
    for _ in range(REPEATS):
        for corner in corners:
            rates[corner].append(_pass_rate(_fresh_device(firmware, *corner)))
    return rates


def _median_ratio(rates, numerator, denominator):
    """Median over rounds of the within-round rate ratio: a slow spell
    of the host that hits one side of one round cannot decide it."""
    return statistics.median(
        top / bottom for top, bottom in zip(rates[numerator], rates[denominator]))


def _matrix(firmware):
    """Measure all four cache/trace corners for *firmware*.

    The two trace-off corners run back to back, since their ratio is
    the asserted decode-cache speedup.
    """
    return _rounds(firmware, [(True, False), (False, False),
                              (True, True), (False, True)])


def _rows(name, matrix):
    rows = []
    for cache in (False, True):
        for trace in (False, True):
            rows.append({
                "firmware": name,
                "decode cache": "on" if cache else "off",
                "trace": "on" if trace else "off",
                "steps/sec": "%.0f" % max(matrix[(cache, trace)]),
            })
    return rows


def _assert_speedup(benchmark, table_printer, firmware, title):
    """Measure the matrix, print it, assert the cache speedup.

    The matrix itself is measured with ``perf_counter`` (the four cells
    must be like-for-like; the table shows each cell's best round); one
    pass of the fast configuration is also run under the ``benchmark``
    fixture so the test is collected by ``pytest benchmarks/
    --benchmark-only`` and leaves a trajectory sample.
    """
    matrix = _matrix(firmware)
    table_printer(title, _rows(title, matrix))
    speedup = _median_ratio(matrix, (True, False), (False, False))
    print("decode-cache speedup (trace off): %.2fx" % speedup)
    benchmark.pedantic(
        lambda: _fresh_device(firmware, True, False).run_steps(2000),
        rounds=1,
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_decode_cache_speedup_blinker(benchmark, table_printer):
    """The cache gives >= 2.5x steps/sec on the Fig. 4 blinker firmware."""
    _assert_speedup(benchmark, table_printer,
                    blinker_firmware(authorized=True),
                    "Simulation throughput (blinker)")


def test_decode_cache_speedup_syringe_pump(benchmark, table_printer):
    """The cache gives >= 2.5x steps/sec on the syringe-pump firmware."""
    _assert_speedup(benchmark, table_printer,
                    busy_wait_pump_firmware(PumpParameters(dosage_cycles=200)),
                    "Simulation throughput (busy-wait pump)")


def test_trace_recording_is_not_the_bottleneck(benchmark, table_printer):
    """With the cache on, tracing costs less than the decode loop did."""
    firmware = blinker_firmware(authorized=True)
    traced, untraced = (True, True), (False, False)
    rates = _rounds(firmware, [traced, untraced])
    table_printer("Tracing overhead vs. decode overhead", [
        {"configuration": "cache on, trace on",
         "steps/sec": "%.0f" % max(rates[traced])},
        {"configuration": "cache off, trace off",
         "steps/sec": "%.0f" % max(rates[untraced])},
    ])
    benchmark.pedantic(
        lambda: _fresh_device(firmware, True, True).run_steps(2000),
        rounds=1,
    )
    # Even paying for full trace recording, the cached interpreter beats
    # the uncached one running with tracing disabled.
    assert _median_ratio(rates, traced, untraced) > 1.0


_STOP_WATCHDOG = "MOV #0x5A80, &0x%04X\n" % PeripheralRegisters.WDTCTL

#: Memory-heavy copy/accumulate loop: autoincrement + indexed operands
#: and memory-destination writeback on every iteration.
MEMLOOP_SOURCE = _STOP_WATCHDOG + """
outer:
    MOV #0x0200, R5
    MOV #0x0300, R6
    MOV #16, R7
copy:
    MOV @R5+, R8
    ADD R8, R9
    MOV R8, 0(R6)
    ADD #2, R6
    DEC R7
    JNE copy
    JMP outer
"""

#: Attestation-shaped inner loop: streams a region through a running
#: digest state (rotate/swap/xor/decimal-add mix, PUSH/POP spill) --
#: Format II and DADD coverage on the silent path.
ATTEST_SOURCE = _STOP_WATCHDOG + """
    MOV #0x03FE, R1
    MOV #0x1234, R7
outer:
    MOV #0x0200, R5
    MOV #0x0240, R10
chunk:
    MOV @R5+, R6
    ADD R6, R7
    RRA R7
    SWPB R6
    XOR R6, R7
    PUSH R7
    DADD R6, R11
    POP R11
    CMP R10, R5
    JNE chunk
    JMP outer
"""


def _asm_device(source):
    """A trace-less raw device running bare assembly from 0xE000."""
    device = Device(DeviceConfig(trace_enabled=False))
    image = Assembler().assemble(".section .text\n" + source,
                                 section_addresses={".text": 0xE000})
    image.write_to(device.memory)
    device.ivt.set_reset_vector(0xE000)
    device.reset()
    return device


def _monitored_device():
    """The blinker with its ASAP monitor attached and tracing off: the
    shape of every PoX run (``BENCHMARK.json``'s ``pox`` workload)."""
    return PoxTestbench(blinker_firmware(authorized=True),
                        TestbenchConfig(trace_enabled=False)).device


#: The labeled workload matrix behind the ``BENCH_sim.json`` rows that
#: ``compare_bench.py --profile sim`` gates (normalized to
#: ``interp-idle``, so the gate tracks each workload's cost relative to
#: the bare idle loop, not absolute runner speed).
_WORKLOADS = (
    ("idle", lambda: _fresh_device(blinker_firmware(authorized=True),
                                   decode_cache=True, trace=False)),
    ("monitored", _monitored_device),
    ("memloop", lambda: _asm_device(MEMLOOP_SOURCE)),
    ("attest", lambda: _asm_device(ATTEST_SOURCE)),
)


def test_interpreter_workload_rows(benchmark, table_printer, bench_json):
    """Record the interpreter's labeled ``BENCH_sim.json`` rows.

    Trace off: the blinker's idle loop bare (``interp-idle``) and under
    its ASAP monitor (``interp-monitored``), a memory-heavy loop
    (``interp-memloop``) and an attestation inner loop
    (``interp-attest``), which ``benchmarks/compare_bench.py`` guards
    against the committed baseline.  This test only measures; the
    decode-cache differential suites
    (``tests/integration/test_decode_cache_differential.py``,
    ``tests/property/test_property_decode_cache.py``) pin the behaviour.
    """
    # Rounds run every workload once, back to back, so each row's best
    # samples the same stretch of host time as the reference row.
    best = dict.fromkeys(dict(_WORKLOADS), 0.0)
    last_device = {}
    for _ in range(REPEATS):
        for workload, make in _WORKLOADS:
            device = last_device[workload] = make()
            best[workload] = max(best[workload], _pass_rate(device))
    json_rows = []
    table_rows = []
    for workload, device in last_device.items():
        assert not device.crashed, device.crash_reason
        label = "interp-%s" % workload
        json_rows.append({
            "label": label,
            "workload": workload,
            "steps_per_sec": best[workload],
            "decode_cache": device.decode_cache.stats(),
        })
        table_rows.append({"row": label, "steps/sec": "%.0f" % best[workload]})
    table_printer("Interpreter workloads (trace off)", table_rows)

    bench_json("BENCH_sim.json", {
        "benchmark": "execution_engine_throughput",
        "unit": "steps/sec",
        "measure_steps": MEASURE_STEPS,
        "rows": json_rows,
    })

    benchmark.pedantic(
        lambda: _fresh_device(blinker_firmware(authorized=True),
                              True, False).run_steps(2000),
        rounds=1,
    )


def test_throughput_trajectory(benchmark):
    """Record the fast-path configuration in the bench trajectory."""
    firmware = blinker_firmware(authorized=True)

    def run():
        device = _fresh_device(firmware, decode_cache=True, trace=False)
        device.run_steps(MEASURE_STEPS)
        return device.step_number

    steps = benchmark(run)
    assert steps >= MEASURE_STEPS
