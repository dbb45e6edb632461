"""Programmatic experiment runners.

Each ``run_*`` function regenerates one artifact of the paper's
evaluation as a campaign of named scenarios (:mod:`repro.sim`) and
returns an :class:`ExperimentResult` with structured rows plus a
rendered text block.  The companion ``*_scenarios()`` functions return
the :class:`~repro.sim.runner.Scenario` lists, whose bodies call the
workloads directly, so sweeps can be re-run.
``python -m repro.experiments`` is the CLI (``--list``, ``--json``,
``--telemetry``, ...).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "EXPERIMENT_RUNNERS": "repro.experiments.runners",
    "ExperimentResult": "repro.experiments.runners",
    "busywait_scenarios": "repro.experiments.runners",
    "fig5_scenarios": "repro.experiments.runners",
    "fig6_scenarios": "repro.experiments.runners",
    "load_json": "repro.experiments.runners",
    "run_all_experiments": "repro.experiments.runners",
    "run_busywait_ablation": "repro.experiments.runners",
    "run_fig5_waveforms": "repro.experiments.runners",
    "run_fig6_overhead": "repro.experiments.runners",
    "run_runtime_overhead": "repro.experiments.runners",
    "run_security_scenarios": "repro.experiments.runners",
    "run_verification_cost": "repro.experiments.runners",
    "runtime_scenarios": "repro.experiments.runners",
    "security_scenarios": "repro.experiments.runners",
    "verification_scenarios": "repro.experiments.runners",
    "write_json": "repro.experiments.runners",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
