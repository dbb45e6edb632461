"""The campaign runner.

``repro.sim`` runs lists of named scenarios: a :class:`Scenario` pairs a
name with a ``body()`` that calls its workload directly and returns the
observations, and a :class:`CampaignRunner` runs a list of them
in-process, one after another, returning results in list order.  The
experiment runners (:mod:`repro.experiments.runners`) are built on top
of it; see ``README.md`` for a worked example.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CampaignResult": "repro.sim.runner",
    "CampaignRunner": "repro.sim.runner",
    "Scenario": "repro.sim.runner",
    "ScenarioResult": "repro.sim.runner",
    "run_scenario": "repro.sim.runner",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
