"""The scenario-campaign engine.

``repro.sim`` turns the simulator into a sweep machine: a
:class:`ScenarioSpec` describes one (firmware x attack x configuration)
scenario as declarative data, and a :class:`CampaignRunner` runs lists
of them in-process, one after another, returning results in spec
order.  The experiment runners (:mod:`repro.experiments.runners`) and
the attack gallery are built on top of it; see ``README.md`` for a
worked example.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CampaignResult": "repro.sim.runner",
    "CampaignRunner": "repro.sim.runner",
    "EventSpec": "repro.sim.scenario",
    "FirmwareRef": "repro.sim.scenario",
    "Observe": "repro.sim.scenario",
    "ScenarioContext": "repro.sim.scenario",
    "ScenarioResult": "repro.sim.runner",
    "ScenarioSpec": "repro.sim.scenario",
    "StopSpec": "repro.sim.scenario",
    "register_event_kind": "repro.sim.scenario",
    "register_firmware_builder": "repro.sim.scenario",
    "register_job": "repro.sim.runner",
    "register_observer": "repro.sim.scenario",
    "run_scenario": "repro.sim.runner",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
