"""The scenario-campaign engine.

``repro.sim`` turns the simulator into a sweep machine: a
:class:`ScenarioSpec` describes one (firmware x attack x configuration)
scenario as picklable data, and a :class:`CampaignRunner` executes lists
of them through a serial or process-pool backend with deterministic,
spec-ordered results.  The experiment runners
(:mod:`repro.experiments.runners`), the attack gallery and the campaign
benchmark are all built on top of it; see ``README.md`` for a worked
example.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BACKENDS": "repro.sim.runner",
    "CODE_EPOCH": "repro.sim.scenario",
    "CampaignResult": "repro.sim.runner",
    "CampaignRunner": "repro.sim.runner",
    "EventSpec": "repro.sim.scenario",
    "FirmwareRef": "repro.sim.scenario",
    "Observe": "repro.sim.scenario",
    "ResultStore": "repro.sim.store",
    "ScenarioContext": "repro.sim.scenario",
    "ScenarioResult": "repro.sim.runner",
    "ScenarioSpec": "repro.sim.scenario",
    "StopSpec": "repro.sim.scenario",
    "canonical_bytes": "repro.sim.scenario",
    "code_epoch": "repro.sim.scenario",
    "register_event_kind": "repro.sim.scenario",
    "register_firmware_builder": "repro.sim.scenario",
    "register_job": "repro.sim.runner",
    "register_observer": "repro.sim.scenario",
    "run_scenario": "repro.sim.runner",
    "shutdown_warm_pools": "repro.sim.runner",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
