"""Experiment runners: regenerate every table and figure of the paper.

Every experiment is a **campaign**: a list of named
:class:`~repro.sim.runner.Scenario` objects built by a ``*_scenarios()``
function, run in-process by a :class:`~repro.sim.runner.CampaignRunner`
and folded into an :class:`ExperimentResult` with structured rows.  Each
scenario's body calls its workload directly -- a
:class:`~repro.firmware.testbench.PoxTestbench` exchange, an attack
from the gallery, a model check, the Fig. 6 cost report -- and returns
its observations.  The scenario lists are public so tests and notebooks
can re-run them, and :func:`write_json` exports a whole report for
machine consumption.  Each ``*_scenarios()`` function imports its own
experiment's stack, so a run loads only the experiments it selects.
"""

from __future__ import annotations

import functools
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim import CampaignRunner, Scenario


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment."""

    experiment_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    succeeded: bool = True

    def render(self) -> str:
        """Render the result as an aligned text block."""
        lines = ["## %s — %s" % (self.experiment_id, self.title)]
        if self.rows:
            columns = list(self.rows[0].keys())
            widths = {
                column: max(len(str(column)),
                            *(len(str(row.get(column, ""))) for row in self.rows))
                for column in columns
            }
            header = "  ".join(str(c).ljust(widths[c]) for c in columns)
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
        for note in self.notes:
            lines.append("note: %s" % note)
        lines.append("status: %s (%.2f s)" % ("ok" if self.succeeded else "FAILED",
                                              self.elapsed_seconds))
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serialisable view of the result."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": self.rows,
            "notes": self.notes,
            "elapsed_seconds": self.elapsed_seconds,
            "succeeded": self.succeeded,
        }


def _timed(function: Callable[[], ExperimentResult]) -> ExperimentResult:
    started = time.perf_counter()
    result = function()
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _campaign(campaign: Optional[CampaignRunner]) -> CampaignRunner:
    return campaign if campaign is not None else CampaignRunner()


def _failure_notes(outcome) -> List[str]:
    """One note per failed scenario of a campaign outcome."""
    return [failure.failure_summary() for failure in outcome.failures()]


# --------------------------------------------------------------------------
# E1-E3: Fig. 5 waveforms
# --------------------------------------------------------------------------

def _first_irq_in_er(bench):
    """Did the first serviced interrupt vector into the executable region?"""
    irq_entries = bench.device.trace.steps_with_irq()
    if not irq_entries:
        return None
    return bench.executable.contains(irq_entries[0].next_pc)


def fig5_scenarios() -> List[Scenario]:
    """The three Fig. 5 interrupt-handling scenarios as a campaign."""
    from repro.firmware.blinker import blinker_firmware
    from repro.firmware.testbench import PoxTestbench, TestbenchConfig

    def body(architecture, authorized):
        bench = PoxTestbench(blinker_firmware(authorized=authorized),
                             TestbenchConfig(architecture=architecture))
        result = bench.run_pox(setup=lambda device: device.schedule_button_press(6))
        return {
            "isr inside ER": _first_irq_in_er(bench),
            "final EXEC": bench.waveform(["EXEC"]).final_value("EXEC"),
            "proof accepted": result.accepted,
        }

    matrix = [
        ("Fig. 5(a)", "asap", True, True),
        ("Fig. 5(b)", "asap", False, False),
        ("Fig. 5(c)", "apex", True, False),
    ]
    return [
        Scenario(label, functools.partial(body, architecture, authorized),
                 expect={"proof accepted": expect_accept},
                 meta={"scenario": label, "architecture": architecture})
        for label, architecture, authorized, expect_accept in matrix
    ]


def run_fig5_waveforms(campaign: Optional[CampaignRunner] = None) -> ExperimentResult:
    """Replay the three Fig. 5 scenarios and summarise each waveform."""

    def body():
        outcome = _campaign(campaign).run(fig5_scenarios())
        return ExperimentResult(
            "E1-E3", "Fig. 5 interrupt-handling waveforms", outcome.rows(),
            notes=["paper: (a) EXEC stays 1, (b) and (c) EXEC drops to 0"]
            + _failure_notes(outcome),
            succeeded=outcome.all_ok(),
        )

    return _timed(body)


# --------------------------------------------------------------------------
# E4-E5: Fig. 6 hardware overhead
# --------------------------------------------------------------------------

def fig6_scenarios() -> List[Scenario]:
    """The Fig. 6 cost comparison as a one-scenario campaign."""

    def body():
        from repro.hwcost.report import figure6_comparison

        comparison = figure6_comparison()
        return {
            "rows": comparison.rows(),
            "lut_delta": comparison.lut_delta,
            "register_delta": comparison.register_delta,
        }

    return [Scenario("fig6-overhead", body)]


def run_fig6_overhead(campaign: Optional[CampaignRunner] = None) -> ExperimentResult:
    """Regenerate the Fig. 6 LUT/register comparison."""

    def body():
        outcome = _campaign(campaign).run(fig6_scenarios())
        result = outcome[0]
        if result.error is not None:
            return ExperimentResult(
                "E4-E5", "Fig. 6 hardware overhead (APEX vs. ASAP)",
                notes=[result.failure_summary()], succeeded=False,
            )
        lut_delta = result.observations["lut_delta"]
        register_delta = result.observations["register_delta"]
        return ExperimentResult(
            "E4-E5", "Fig. 6 hardware overhead (APEX vs. ASAP)",
            result.observations["rows"],
            notes=["paper: ASAP uses 24 fewer LUTs and 3 fewer registers than APEX",
                   "measured delta: %d LUTs, %d registers"
                   % (lut_delta, register_delta)],
            succeeded=lut_delta < 0 and register_delta < 0,
        )

    return _timed(body)


# --------------------------------------------------------------------------
# E6: verification cost
# --------------------------------------------------------------------------

def verification_scenarios() -> List[Scenario]:
    """The 21-property ASAP verification suite as a campaign.

    The list's scenarios share one model per name, built by the first
    property that checks it.  The builder is looked up in
    ``MODEL_BUILDERS`` at that call, not here, so a wrapper installed
    on an entry in between (``perfbench``'s ``ltl.build``) sees it.
    """
    from repro.ltl.model_checker import ModelChecker
    from repro.ltl.properties import MODEL_BUILDERS, asap_property_suite

    models = {}

    def body(prop):
        model = models.get(prop.model)
        if model is None:
            model = models[prop.model] = MODEL_BUILDERS[prop.model]()
        result = ModelChecker(model).check(prop.formula, name=prop.name)
        return {
            "property": prop.name,
            "origin": prop.origin,
            "holds": result.holds,
            "states": result.states_explored,
        }

    return [
        Scenario("ltl-%s" % prop.name, functools.partial(body, prop),
                 expect={"holds": True})
        for prop in asap_property_suite()
    ]


def run_verification_cost(campaign: Optional[CampaignRunner] = None) -> ExperimentResult:
    """Model-check the 21-property ASAP suite and report statistics."""

    def body():
        outcome = _campaign(campaign).run(verification_scenarios())
        rows = outcome.rows()
        return ExperimentResult(
            "E6", "Verification cost (21 LTL properties)", rows,
            notes=["paper: 21 properties, ~150 s under NuSMV; here: explicit-state "
                   "checking of the behavioural monitor models"]
            + _failure_notes(outcome),
            succeeded=outcome.all_ok() and len(rows) == 21,
        )

    return _timed(body)


# --------------------------------------------------------------------------
# E7: runtime overhead
# --------------------------------------------------------------------------

def runtime_scenarios() -> List[Scenario]:
    """The proved task under the APEX and ASAP monitors."""
    from repro.firmware.syringe_pump import PumpParameters, busy_wait_pump_firmware
    from repro.firmware.testbench import PoxTestbench, TestbenchConfig

    def body(architecture):
        bench = PoxTestbench(
            busy_wait_pump_firmware(params=PumpParameters(dosage_cycles=200)),
            TestbenchConfig(architecture=architecture))
        bench.run_execution_only()
        return {"cycles": bench.device.total_cycles}

    return [
        Scenario("runtime-%s" % architecture,
                 functools.partial(body, architecture),
                 meta={"configuration": architecture.upper()})
        for architecture in ("apex", "asap")
    ]


def run_runtime_overhead(campaign: Optional[CampaignRunner] = None) -> ExperimentResult:
    """Measure proved-task cycles under APEX and ASAP monitors."""

    def body():
        outcome = _campaign(campaign).run(runtime_scenarios())
        errors = _failure_notes(outcome)
        if any(result.error is not None for result in outcome):
            return ExperimentResult(
                "E7", "Runtime overhead of the proved task",
                notes=errors, succeeded=False,
            )
        cycles = {result.meta["configuration"]: result.observations["cycles"]
                  for result in outcome}
        rows = [
            {"configuration": configuration, "cycles": value,
             "overhead vs. unprotected": 0 if value == cycles["APEX"] else
             value - cycles["APEX"]}
            for configuration, value in cycles.items()
        ]
        return ExperimentResult(
            "E7", "Runtime overhead of the proved task", rows,
            notes=["paper: neither APEX nor ASAP adds execution time"],
            succeeded=cycles["APEX"] == cycles["ASAP"],
        )

    return _timed(body)


# --------------------------------------------------------------------------
# E8: busy-wait ablation
# --------------------------------------------------------------------------

def busywait_scenarios(dosage_cycles=400, abort_step=30) -> List[Scenario]:
    """Interrupt-driven vs. busy-wait pump, plus the mid-dose abort."""
    from repro.firmware.syringe_pump import (
        PUMP_OUTPUT_LAYOUT,
        PumpParameters,
        busy_wait_pump_firmware,
        syringe_pump_firmware,
    )
    from repro.firmware.testbench import PoxTestbench, TestbenchConfig

    pump = PumpParameters(dosage_cycles=dosage_cycles)

    def step_counts(firmware, architecture):
        bench = PoxTestbench(firmware(params=pump),
                             TestbenchConfig(architecture=architecture))
        bench.run_execution_only()
        entries = bench.trace_entries()
        sleep = sum(1 for entry in entries if entry.instruction == "(sleep)")
        return {"active steps": len(entries) - sleep, "sleep steps": sleep}

    def abort_mid_dose():
        bench = PoxTestbench(syringe_pump_firmware(params=pump))
        result = bench.run_pox(
            setup=lambda device: device.schedule_button_press(abort_step))
        return {
            "accepted": result.accepted,
            "delivered": bench.output_word(PUMP_OUTPUT_LAYOUT["delivered"]),
        }

    return [
        Scenario("pump-interrupt-driven",
                 functools.partial(step_counts, syringe_pump_firmware, "asap"),
                 meta={"variant": "interrupt-driven (ASAP)"}),
        Scenario("pump-busy-wait",
                 functools.partial(step_counts, busy_wait_pump_firmware, "apex"),
                 meta={"variant": "busy-wait (APEX workaround)"}),
        Scenario("pump-abort-mid-dose", abort_mid_dose,
                 expect={"accepted": True},
                 meta={"abort_step": abort_step, "dosage_cycles": dosage_cycles}),
    ]


def run_busywait_ablation(campaign: Optional[CampaignRunner] = None,
                          dosage_cycles=400, abort_step=30) -> ExperimentResult:
    """Compare the interrupt-driven pump with the busy-wait workaround."""

    def body():
        outcome = _campaign(campaign).run(
            busywait_scenarios(dosage_cycles=dosage_cycles, abort_step=abort_step))
        errors = _failure_notes(outcome)
        if any(result.error is not None for result in outcome):
            return ExperimentResult(
                "E8", "Busy-wait workaround vs. interrupt-driven pump",
                notes=errors, succeeded=False,
            )
        interrupt_result, busy_result, abort_result = outcome
        rows = [
            {"variant": interrupt_result.meta["variant"],
             "active steps": interrupt_result.observations["active steps"],
             "sleep steps": interrupt_result.observations["sleep steps"],
             "abort supported": True},
            {"variant": busy_result.meta["variant"],
             "active steps": busy_result.observations["active steps"],
             "sleep steps": busy_result.observations["sleep steps"],
             "abort supported": False},
        ]
        delivered = abort_result.observations["delivered"]
        succeeded = (
            interrupt_result.observations["sleep steps"]
            > interrupt_result.observations["active steps"]
            and busy_result.observations["sleep steps"] == 0
            and abort_result.ok
            and delivered < dosage_cycles
        )
        return ExperimentResult(
            "E8", "Busy-wait workaround vs. interrupt-driven pump", rows,
            notes=["abort at step %d delivers %d/%d ticks, proof accepted: %s"
                   % (abort_step, delivered, dosage_cycles,
                      abort_result.observations["accepted"])],
            succeeded=succeeded,
        )

    return _timed(body)


# --------------------------------------------------------------------------
# E9: security scenarios
# --------------------------------------------------------------------------

def security_scenarios() -> List[Scenario]:
    """The adversarial attack gallery as a campaign (one scenario per
    attack)."""
    from repro.firmware.attacks import attack_suite

    def body(attack):
        return attack.run().as_row()

    return [
        Scenario(attack.name, functools.partial(body, attack),
                 expect={"detected": True})
        for attack in attack_suite()
    ]


def run_security_scenarios(campaign: Optional[CampaignRunner] = None) -> ExperimentResult:
    """Run the adversarial scenario suite."""

    def body():
        outcome = _campaign(campaign).run(security_scenarios())
        return ExperimentResult(
            "E9", "Adversarial scenarios (security argument)", outcome.rows(),
            notes=_failure_notes(outcome),
            succeeded=outcome.all_ok(),
        )

    return _timed(body)


# --------------------------------------------------------------------------
# FLEET: cluster control plane (sharded verifiers over the net layer)
# --------------------------------------------------------------------------

def run_fleet_control(campaign: Optional[CampaignRunner] = None,
                      shards: int = 2,
                      heartbeat: Optional[float] = None,
                      size: int = 6,
                      exchanges_per_device: int = 2) -> ExperimentResult:
    """Deployment-story experiment: one verifier vs. a sharded cluster.

    Not a scenario campaign (*campaign* is accepted for registry-shape
    uniformity and ignored): the fleet harnesses drive the service
    stack directly.  One row for the single shared
    :class:`~repro.net.fleet.Fleet` service, one for a
    :class:`~repro.cluster.fleet.ClusterFleet` across *shards* verifier
    shards -- same devices, same attestation-only mix -- so the table
    shows the control plane costs nothing in verdicts while spreading
    the challenge tables.  ``--shards`` / ``--heartbeat`` on the CLI
    land here; with a heartbeat the cluster also runs its liveness
    monitor for the duration.
    """
    del campaign  # direct harness run; see docstring

    def body():
        from repro.cluster import ClusterFleet
        from repro.net import Fleet

        # Rows carry only deterministic counters, so they stay
        # byte-identical from run to run (perfbench/paper_rows.json
        # pins them); throughput numbers live in
        # benchmarks/test_bench_fleet.py instead.
        rows = []
        notes = []
        single = Fleet(size=size, architecture="asap").run(
            exchanges_per_device=exchanges_per_device, mix=("ra",))
        rows.append({
            "topology": "single-service",
            "devices": single.fleet_size,
            "shards": 1,
            "exchanges": single.exchanges,
            "accepted": single.accepted,
            "evictions": 0,
        })
        cluster = ClusterFleet(size=size, shards=shards,
                               architecture="asap",
                               heartbeat=heartbeat).run(
            exchanges_per_device=exchanges_per_device, mix=("ra",))
        rows.append({
            "topology": "cluster",
            "devices": cluster.fleet_size,
            "shards": cluster.shard_count,
            "exchanges": cluster.exchanges,
            "accepted": cluster.accepted,
            "evictions": cluster.evictions,
        })
        succeeded = single.all_accepted() and cluster.all_accepted()
        if not single.all_accepted():
            notes.append("single-service fleet: %d/%d accepted"
                         % (single.accepted, single.exchanges))
        if not cluster.all_accepted():
            notes.append("sharded cluster: %d/%d accepted"
                         % (cluster.accepted, cluster.exchanges))
        return ExperimentResult(
            "FLEET", "Cluster control plane (sharded verifier fleet)",
            rows, notes=notes, succeeded=succeeded,
        )

    return _timed(body)


# --------------------------------------------------------------------------
# All together
# --------------------------------------------------------------------------

#: The experiment registry: id -> runner(campaign).  Ordered; the CLI
#: and :func:`run_all_experiments` iterate it live, so tests (and
#: downstream code) can substitute entries.
EXPERIMENT_RUNNERS: "OrderedDict[str, Callable[[Optional[CampaignRunner]], ExperimentResult]]" = OrderedDict([
    ("E1-E3", run_fig5_waveforms),
    ("E4-E5", run_fig6_overhead),
    ("E6", run_verification_cost),
    ("E7", run_runtime_overhead),
    ("E8", run_busywait_ablation),
    ("E9", run_security_scenarios),
    ("FLEET", run_fleet_control),
])


def run_all_experiments(skip: Optional[List[str]] = None,
                        campaign: Optional[CampaignRunner] = None,
                        overrides: Optional[Dict[str, Callable]] = None,
                        ) -> List[ExperimentResult]:
    """Run every experiment (optionally skipping some ids); return results.

    *campaign* is the :class:`CampaignRunner` every experiment runs its
    scenarios through (a plain one by default).  *overrides*
    substitutes runners per id for this call only (the CLI uses it to
    bind ``--shards``/``--heartbeat`` into the FLEET runner without
    mutating the registry).
    """
    skip = set(skip or [])
    campaign = _campaign(campaign)
    results = []
    for experiment_id, runner in EXPERIMENT_RUNNERS.items():
        if experiment_id in skip:
            continue
        if overrides and experiment_id in overrides:
            runner = overrides[experiment_id]
        results.append(runner(campaign))
    return results


def write_json(results: List[ExperimentResult], path) -> None:
    """Export a list of experiment results as a JSON report file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([result.to_dict() for result in results], handle, indent=2)
        handle.write("\n")


def load_json(path) -> List[ExperimentResult]:
    """Load a JSON report written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [ExperimentResult(**entry) for entry in payload]
