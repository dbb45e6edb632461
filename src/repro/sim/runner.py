"""Scenario execution and the campaign runner.

:func:`run_scenario` executes one :class:`~repro.sim.scenario.ScenarioSpec`
in complete isolation -- it builds a fresh testbench (or model, or attack
body) from the declarative spec, runs it, extracts the requested
observations and folds any exception into the returned
:class:`ScenarioResult` instead of letting it escape.

:class:`CampaignRunner` runs a list of specs in-process, one after
another, and returns their results in spec order.  Its ``on_result``
hook sees each result as it finishes (the CLI's ``--stream``), and
``fail_fast=True`` stops the campaign at the first failing scenario
(``--fail-fast``).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro._lru import LruDict
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.sim.scenario import (
    Observe,
    ScenarioContext,
    ScenarioSpec,
    OBSERVERS,
)

#: Default observations for ``kind="pox"`` scenarios that do not name
#: any: verdict-shaped for modes that end in an attestation, run-shaped
#: (step count + crash flag) for modes that never produce a protocol
#: result.
DEFAULT_POX_OBSERVE = (Observe("accepted"), Observe("exec_flag"))
DEFAULT_RUN_OBSERVE = (Observe("steps"), Observe("crashed"))


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """Outcome of one scenario: observations, verdict and provenance."""

    name: str
    kind: str
    observations: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    expected: Dict[str, object] = field(default_factory=dict)
    ok: bool = True
    error: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def row(self) -> Dict[str, object]:
        """Flat table row: constant meta columns then observations."""
        row = dict(self.meta)
        row.update(self.observations)
        return row

    def failure_summary(self) -> Optional[str]:
        """A one-line description of why the scenario is not ``ok``."""
        if self.ok:
            return None
        if self.error is not None:
            last_line = self.error.strip().splitlines()[-1]
            return "%s raised: %s" % (self.name, last_line)
        mismatches = [
            "%s=%r (expected %r)" % (key, self.observations.get(key), value)
            for key, value in self.expected.items()
            if self.observations.get(key) != value
        ]
        return "%s expectation failed: %s" % (self.name, "; ".join(mismatches))


@dataclass
class CampaignResult:
    """Outcome of a campaign: one :class:`ScenarioResult` per spec, in
    spec order."""

    results: List[ScenarioResult]
    elapsed_seconds: float = 0.0
    #: ``True`` when a ``fail_fast`` campaign stopped at the first
    #: failing result; ``results`` then ends with that result.
    aborted: bool = False

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def rows(self) -> List[Dict[str, object]]:
        """All result rows, in spec order."""
        return [result.row for result in self.results]

    def all_ok(self) -> bool:
        """``True`` when every scenario ran and met its expectations."""
        return all(result.ok for result in self.results)

    def failures(self) -> List[ScenarioResult]:
        """The scenarios that errored or missed an expectation."""
        return [result for result in self.results if not result.ok]


# --------------------------------------------------------------------------
# Single-scenario execution
# --------------------------------------------------------------------------

def _run_pox_spec(spec: ScenarioSpec) -> Dict[str, object]:
    """Execute a testbench scenario and return its observations."""
    from repro.firmware.testbench import PoxTestbench

    bench = PoxTestbench.from_spec(spec)
    context = ScenarioContext(bench=bench)
    if spec.mode == "pox":
        context.pox_result = bench.run_pox(setup=spec.apply_events,
                                           max_steps=spec.max_steps)
    elif spec.mode == "execution_only":
        bench.run_execution_only(setup=spec.apply_events,
                                 max_steps=spec.max_steps)
    elif spec.mode == "execution_attest":
        bench.run_execution_only(setup=spec.apply_events,
                                 max_steps=spec.max_steps)
        if spec.post_steps:
            bench.device.run_steps(spec.post_steps)
        context.pox_result = bench.attest_and_verify()
    elif spec.mode == "run":
        spec.apply_events(bench.device)
        if spec.stop is not None and spec.stop.kind == "pc":
            bench.device.run_until_pc(spec.stop.value, max_steps=spec.max_steps)
        else:
            count = spec.stop.value if spec.stop is not None else spec.max_steps
            bench.device.run_steps(count)
    else:  # pragma: no cover - rejected by ScenarioSpec.__post_init__
        raise ValueError("unknown mode %r" % spec.mode)

    if spec.observe:
        observe_list = spec.observe
    elif spec.mode in ("pox", "execution_attest"):
        observe_list = DEFAULT_POX_OBSERVE
    else:
        observe_list = DEFAULT_RUN_OBSERVE
    observations: Dict[str, object] = {}
    for observe in observe_list:
        try:
            observer = OBSERVERS[observe.name]
        except KeyError:
            raise KeyError(
                "unknown observer %r (registered: %s)"
                % (observe.name, ", ".join(sorted(OBSERVERS)))
            ) from None
        observations[observe.row_key] = observer(context, observe)
    return observations


def _run_attack_spec(spec: ScenarioSpec) -> Dict[str, object]:
    """Run one named scenario from the attack gallery."""
    from repro.firmware.attacks import attack_suite

    name = spec.attack if spec.attack is not None else spec.name
    for scenario in attack_suite():
        if scenario.name == name:
            outcome = scenario.run()
            observations = outcome.as_row()
            return observations
    raise KeyError("unknown attack scenario %r" % name)


#: Per-process cache of built LTL monitor models (a handful of models
#: back the 21-property suite; rebuilding them per property is
#: wasteful).  LRU-bounded: a generated-scenario corpus registering its
#: own model builders must not grow this without limit.
_MODEL_CACHE_CAP = 8
_MODEL_CACHE = LruDict(_MODEL_CACHE_CAP)
_PROPERTY_INDEX: Dict[str, object] = {}


def _run_ltl_spec(spec: ScenarioSpec) -> Dict[str, object]:
    """Model-check one property of the ASAP verification suite."""
    from repro.ltl.model_checker import ModelChecker
    from repro.ltl.properties import MODEL_BUILDERS, asap_property_suite

    if not _PROPERTY_INDEX:
        _PROPERTY_INDEX.update(
            (prop.name, prop) for prop in asap_property_suite()
        )
    name = spec.ltl_property if spec.ltl_property is not None else spec.name
    try:
        prop = _PROPERTY_INDEX[name]
    except KeyError:
        raise KeyError("unknown LTL property %r" % name) from None
    model = _MODEL_CACHE.get(prop.model)
    if model is None:
        model = _MODEL_CACHE.setdefault(prop.model, MODEL_BUILDERS[prop.model]())
    result = ModelChecker(model).check(prop.formula, name=prop.name)
    return {
        "property": prop.name,
        "origin": prop.origin,
        "holds": result.holds,
        "states": result.states_explored,
    }


def _figure6_job() -> Dict[str, object]:
    from repro.hwcost.report import figure6_comparison

    comparison = figure6_comparison()
    return {
        "rows": comparison.rows(),
        "lut_delta": comparison.lut_delta,
        "register_delta": comparison.register_delta,
    }


#: Registered report jobs for ``kind="job"`` specs.
JOBS: Dict[str, Callable[[], Dict[str, object]]] = {
    "figure6": _figure6_job,
}


def register_job(name, function):
    """Register a report job callable returning an observation dict."""
    JOBS[name] = function
    return function


def _run_job_spec(spec: ScenarioSpec) -> Dict[str, object]:
    name = spec.job if spec.job is not None else spec.name
    try:
        job = JOBS[name]
    except KeyError:
        raise KeyError("unknown job %r (registered: %s)"
                       % (name, ", ".join(sorted(JOBS)))) from None
    return job()


_KIND_RUNNERS = {
    "pox": _run_pox_spec,
    "attack": _run_attack_spec,
    "ltl": _run_ltl_spec,
    "job": _run_job_spec,
}


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario in isolation; never raises.

    Any exception from the scenario body is captured into
    ``result.error`` (full traceback) so one broken scenario cannot take
    down a sweep.
    """
    started = time.perf_counter()
    result = ScenarioResult(
        name=spec.name,
        kind=spec.kind,
        meta=spec.metadata(),
        expected=spec.expectations(),
    )
    try:
        result.observations = _KIND_RUNNERS[spec.kind](spec)
        result.ok = all(
            result.observations.get(key) == value
            for key, value in result.expected.items()
        )
    except Exception:
        result.error = traceback.format_exc()
        result.ok = False
    result.elapsed_seconds = time.perf_counter() - started
    return result


# --------------------------------------------------------------------------
# The campaign runner
# --------------------------------------------------------------------------

class CampaignRunner:
    """Run a list of :class:`ScenarioSpec` in-process, in spec order.

    ``on_result`` is called with each :class:`ScenarioResult` as it
    finishes -- the streaming hook the CLI's ``--stream`` uses.
    ``fail_fast=True`` stops at the first result with ``ok=False``: the
    returned :class:`CampaignResult` carries ``aborted=True`` and ends
    with that result.
    """

    def __init__(self,
                 on_result: Optional[Callable[[ScenarioResult], None]] = None,
                 fail_fast: bool = False):
        self.on_result = on_result
        self.fail_fast = fail_fast

    def run(self, specs: Sequence[ScenarioSpec]) -> CampaignResult:
        """Execute every spec; return a :class:`CampaignResult`.

        Publishes ``campaign.*`` metrics and one ``campaign.run`` span
        with a ``campaign.scenario`` child per scenario.
        """
        specs = list(specs)
        started = time.perf_counter()
        registry = get_registry()
        tracer = get_tracer()
        results: List[ScenarioResult] = []
        aborted = False
        with tracer.span("campaign.run",
                         attributes={"scenarios": len(specs)}) as campaign_span:
            for spec in specs:
                # Looked up in the module on every call, so a wrapper
                # installed on ``repro.sim.runner.run_scenario`` (a
                # profiler, perfbench's ``sim.scenario`` layer) sees
                # every scenario.
                result = run_scenario(spec)
                results.append(result)
                registry.counter("campaign.scenarios").inc()
                if not result.ok:
                    registry.counter("campaign.failures").inc()
                registry.histogram("campaign.scenario_seconds").record(
                    result.elapsed_seconds)
                tracer.add("campaign.scenario", result.elapsed_seconds,
                           attributes={"scenario": result.name,
                                       "kind": result.kind, "ok": result.ok})
                if self.on_result is not None:
                    self.on_result(result)
                if self.fail_fast and not result.ok:
                    aborted = True
                    break
            campaign_span.set_attribute("aborted", aborted)
        if aborted:
            registry.counter("campaign.aborted").inc()
        return CampaignResult(results=results,
                              elapsed_seconds=time.perf_counter() - started,
                              aborted=aborted)
