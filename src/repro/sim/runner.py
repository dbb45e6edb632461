"""Named scenarios and the campaign runner.

A :class:`Scenario` is one run of a paper experiment: a name, a
``body()`` that calls the workload directly (a testbench exchange, an
attack, a model check, a cost report) and returns the observations in
row order, the values some of them must take, and constant row columns.

:func:`run_scenario` runs one scenario in isolation: it times the body,
checks the expectations and folds any exception into the returned
:class:`ScenarioResult` instead of letting it escape.

:class:`CampaignRunner` runs a list of scenarios in-process, one after
another, and returns their results in list order.  Its ``on_result``
hook sees each result as it finishes (the CLI's ``--stream``), and
``fail_fast=True`` stops the campaign at the first failing scenario
(``--fail-fast``).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class Scenario:
    """One named run: ``body()`` returns its observations in row order.

    ``expect`` maps observation keys to required values; a scenario is
    ``ok`` when its body returned and every expectation matched.
    ``meta`` contributes constant row columns (labels, sweep
    coordinates) ahead of the observations.
    """

    name: str
    body: Callable[[], Dict[str, object]]
    expect: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class ScenarioResult:
    """Outcome of one scenario: observations, verdict and provenance."""

    name: str
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
    """Outcome of a campaign: one :class:`ScenarioResult` per scenario,
    in list order."""

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
        """All result rows, in list order."""
        return [result.row for result in self.results]

    def all_ok(self) -> bool:
        """``True`` when every scenario ran and met its expectations."""
        return all(result.ok for result in self.results)

    def failures(self) -> List[ScenarioResult]:
        """The scenarios that errored or missed an expectation."""
        return [result for result in self.results if not result.ok]


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario in isolation; never raises.

    Any exception from the body is captured into ``result.error`` (full
    traceback) so one broken scenario cannot take down a sweep.
    """
    started = time.perf_counter()
    result = ScenarioResult(name=scenario.name, meta=dict(scenario.meta),
                            expected=dict(scenario.expect))
    try:
        result.observations = scenario.body()
        result.ok = all(
            result.observations.get(key) == value
            for key, value in result.expected.items()
        )
    except Exception:
        result.error = traceback.format_exc()
        result.ok = False
    result.elapsed_seconds = time.perf_counter() - started
    return result


class CampaignRunner:
    """Run a list of :class:`Scenario` in-process, in list order.

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

    def run(self, scenarios: Sequence[Scenario]) -> CampaignResult:
        """Run every scenario; return a :class:`CampaignResult`.

        Publishes ``campaign.*`` metrics and one ``campaign.run`` span
        with a ``campaign.scenario`` child per scenario.
        """
        scenarios = list(scenarios)
        started = time.perf_counter()
        registry = get_registry()
        tracer = get_tracer()
        results: List[ScenarioResult] = []
        aborted = False
        with tracer.span("campaign.run",
                         attributes={"scenarios": len(scenarios)}) as campaign_span:
            for scenario in scenarios:
                # Looked up in the module on every call, so a wrapper
                # installed on ``repro.sim.runner.run_scenario`` (a
                # profiler, perfbench's ``sim.scenario`` layer) sees
                # every scenario.
                result = run_scenario(scenario)
                results.append(result)
                registry.counter("campaign.scenarios").inc()
                if not result.ok:
                    registry.counter("campaign.failures").inc()
                registry.histogram("campaign.scenario_seconds").record(
                    result.elapsed_seconds)
                tracer.add("campaign.scenario", result.elapsed_seconds,
                           attributes={"scenario": result.name, "ok": result.ok})
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
