"""Scenario execution and the parallel campaign runner.

:func:`run_scenario` executes one :class:`~repro.sim.scenario.ScenarioSpec`
in complete isolation -- it builds a fresh testbench (or model, or attack
body) from the declarative spec, runs it, extracts the requested
observations and folds any exception into the returned
:class:`ScenarioResult` instead of letting it escape.  Because both the
spec and the result are plain picklable data and the worker function is
a module-level callable, the same code path runs unchanged inside a
``multiprocessing`` pool.

:class:`CampaignRunner` sweeps a list of specs through a pluggable
backend:

* ``"serial"`` -- run in-process, one after another;
* ``"thread"`` -- fan out over a thread pool.  Correct because the
  workers are share-nothing (every scenario builds its own device,
  monitor and protocol; the few module-level caches are idempotent
  under the GIL), though CPU-bound sweeps only scale on runtimes
  without a GIL -- the backend exists so they can;
* ``"process"`` -- fan out over a process pool (``--jobs`` workers),
  with results returned in **spec order** regardless of completion
  order, so serial and parallel campaigns are row-for-row identical.
  With ``warm=True`` the pool is **persistent**: workers survive the
  campaign and keep their per-process caches hot (assembled firmware
  images, LTL monitor models, HMAC key states), so back-to-back sweeps
  skip the fork-and-rebuild cost.  :func:`shutdown_warm_pools` tears
  the pools down (also registered via :mod:`atexit`);
* ``"remote"`` -- ship each spec to a worker endpoint over the fleet
  service's message transport (:mod:`repro.net.remote`): specs and
  results cross real TCP sockets, the workers run the plain
  blocking-socket :func:`~repro.net.remote.worker_loop` that would run
  unchanged on another host, and results come back spec-ordered, so
  remote campaigns are row-for-row identical to serial ones.

Two orthogonal levers make campaigns *incremental*:

* **Result store** -- give the runner a
  :class:`~repro.sim.store.ResultStore` (``store=...``) and specs whose
  :meth:`~repro.sim.scenario.ScenarioSpec.fingerprint` is already on
  disk are served from cache (``result.cached``) without executing
  anything; only the misses go through the backend, and their results
  are written back.  A re-run of an unchanged sweep executes zero
  scenarios.
* **Streaming completion** -- :meth:`CampaignRunner.run_iter` yields
  each :class:`ScenarioResult` as it *finishes* (store hits first,
  then backend completions in arrival order -- the process backend
  streams via ``imap_unordered``, the remote backend surfaces the
  dispatcher's out-of-order arrivals) while still returning the final
  spec-ordered :class:`CampaignResult` as the generator's value.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro._lru import LruDict
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.sim.scenario import (
    Observe,
    ScenarioContext,
    ScenarioSpec,
    OBSERVERS,
)

#: Backends a :class:`CampaignRunner` accepts.
BACKENDS = ("serial", "thread", "process", "remote")

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
    #: ``True`` when this result was served from a
    #: :class:`~repro.sim.store.ResultStore` instead of being executed.
    #: Provenance only: deliberately *not* part of :attr:`row`, so
    #: cached rows stay byte-identical to recomputed ones.
    cached: bool = False

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
    spec order, plus sweep-level accounting."""

    results: List[ScenarioResult]
    backend: str
    jobs: int
    elapsed_seconds: float = 0.0
    #: Result-store accounting: specs served from cache vs executed.
    #: Both stay 0 when the campaign ran without a store.
    store_hits: int = 0
    store_misses: int = 0
    #: ``True`` when a ``fail_fast`` campaign stopped at the first
    #: failing result; ``results`` then holds only the scenarios that
    #: finished before the abort (still in spec order).
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

    @property
    def scenarios_per_second(self) -> float:
        """Sweep throughput (the campaign benchmark's metric).

        0.0 for empty and zero-elapsed campaigns: a rate of
        ``float("inf")`` would be meaningless *and* unserialisable as
        RFC-8259 JSON, which the bench payloads must stay.
        """
        if self.elapsed_seconds <= 0 or not self.results:
            return 0.0
        return len(self.results) / self.elapsed_seconds


# --------------------------------------------------------------------------
# Single-scenario execution (the worker function)
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
    down a sweep -- or a worker process.
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


def _run_indexed(item: Tuple[int, ScenarioSpec]) -> Tuple[int, ScenarioResult]:
    """Pool worker for the streaming backends: tag the result with its
    spec index so ``imap_unordered`` completions can be re-ordered."""
    index, spec = item
    return index, run_scenario(spec)


# --------------------------------------------------------------------------
# The campaign runner
# --------------------------------------------------------------------------

def _process_context():
    """The multiprocessing context for the process backend.

    ``fork`` (cheap, inherits the warm interpreter) where available;
    ``spawn`` elsewhere.  Specs and results are picklable and the worker
    is a module-level function, so both start methods execute; note that
    under ``spawn`` the workers re-import this package from scratch, so
    runtime registrations (``register_firmware_builder`` and friends)
    made in the parent are only visible to workers when they happen at
    import time of a module the spec's execution path imports.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


#: Persistent worker pools for ``warm=True`` campaigns, keyed by size.
#: A warm pool outlives the campaign that created it; its workers keep
#: their per-process caches (assembled firmware, LTL models, HMAC key
#: states), which is the whole point.  Guarded by a lock: a
#: check-then-act race between two threads would leak the displaced
#: pool's worker processes past shutdown_warm_pools().
_WARM_POOLS: Dict[int, object] = {}
_WARM_POOLS_LOCK = threading.Lock()


def _warm_pool(processes):
    with _WARM_POOLS_LOCK:
        pool = _WARM_POOLS.get(processes)
        if pool is None:
            pool = _process_context().Pool(processes=processes)
            _WARM_POOLS[processes] = pool
        return pool


def shutdown_warm_pools():
    """Terminate every persistent warm worker pool (idempotent)."""
    with _WARM_POOLS_LOCK:
        pools = list(_WARM_POOLS.values())
        _WARM_POOLS.clear()
    for pool in pools:
        pool.terminate()
        pool.join()


atexit.register(shutdown_warm_pools)


class CampaignRunner:
    """Run a list of :class:`ScenarioSpec` through a pluggable backend.

    ``jobs`` defaults to the machine's CPU count; the serial backend
    ignores it.  Results always come back in spec order (the parallel
    backends use an order-preserving ``Pool.map``), so campaigns are
    reproducible and differential-testable across backends.

    ``warm=True`` (process backend only) draws workers from a
    persistent, module-wide pool instead of forking a fresh one per
    campaign; see :func:`shutdown_warm_pools`.

    ``store`` (a :class:`~repro.sim.store.ResultStore` or a directory
    path) makes the campaign incremental: with ``reuse=True`` (the
    default) specs whose fingerprint is already stored are served from
    cache without executing, and every executed result is written back.
    ``reuse=False`` recomputes everything but still refreshes the
    store.  ``on_result`` is called with each :class:`ScenarioResult`
    as it completes (hits and misses alike), from :meth:`run` and
    :meth:`run_iter` both -- the streaming hook the CLI's ``--stream``
    uses.

    ``fail_fast=True`` aborts dispatch at the first result with
    ``ok=False``: in-flight work is torn down (the pool backends
    terminate their workers; the remote dispatcher drains its assigned
    workers and requeues nothing), the returned :class:`CampaignResult`
    carries ``aborted=True`` and holds only the scenarios that finished
    -- so fuzzing-shaped sweeps stop burning the rest of the campaign
    once a failure is in hand.
    """

    def __init__(self, backend: str = "serial", jobs: Optional[int] = None,
                 warm: bool = False,
                 heartbeat: Optional[float] = None,
                 store=None, reuse: bool = True,
                 on_result: Optional[Callable[[ScenarioResult], None]] = None,
                 fail_fast: bool = False):
        if backend not in BACKENDS:
            raise ValueError("backend must be one of %s, got %r"
                             % (", ".join(BACKENDS), backend))
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1, got %r" % jobs)
        if warm and backend != "process":
            raise ValueError("warm pools apply to the process backend only, "
                             "not %r" % backend)
        if heartbeat is not None and backend != "remote":
            raise ValueError("heartbeats apply to the remote backend only, "
                             "not %r" % backend)
        if store is not None and not hasattr(store, "get"):
            # A path-like: build the store in place (mkdir included).
            from repro.sim.store import ResultStore

            store = ResultStore(store)
        self.backend = backend
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.warm = warm
        #: Remote backend only: worker heartbeat interval in seconds;
        #: the dispatcher registry then evicts (and requeues for) any
        #: worker silent for three heartbeats.
        self.heartbeat = heartbeat
        self.store = store
        self.reuse = reuse
        self.on_result = on_result
        self.fail_fast = fail_fast

    def run(self, specs: Sequence[ScenarioSpec]) -> CampaignResult:
        """Execute every spec; return a :class:`CampaignResult`.

        Built on :meth:`run_iter`: the iterator is drained and its
        final value returned, so list-at-the-end and streaming callers
        share one execution path (and one set of store semantics).
        """
        iterator = self.run_iter(specs)
        while True:
            try:
                next(iterator)
            except StopIteration as finished:
                return finished.value

    def run_iter(self, specs: Sequence[ScenarioSpec]
                 ) -> Iterator[ScenarioResult]:
        """Generator: yield each :class:`ScenarioResult` as it finishes.

        Yield order is *completion* order -- store hits first (they
        are free), then backend results as they arrive (the process
        backend streams through ``imap_unordered``, the remote backend
        surfaces the dispatcher's out-of-order arrivals; serial and
        single-job campaigns complete in spec order by nature).  The
        generator's **return value** is the final spec-ordered
        :class:`CampaignResult`::

            def drive(runner, specs):
                outcome = yield from runner.run_iter(specs)
                return outcome

        Executed results are written back to the store as they land,
        so even an interrupted campaign leaves its finished work
        cached.
        """
        specs = list(specs)
        started = time.perf_counter()
        tracer = get_tracer()
        # The campaign span is explicit begin/finish, not a context
        # manager, and is never *activated*: a ``with tracer.span``
        # inside a generator body would leak the contextvar mutation
        # into the caller's context between yields.  Per-scenario spans
        # parent on it through the explicit ``trace_parent`` pair, which
        # also crosses the remote dispatcher's job frames.
        campaign_span = tracer.begin(
            "campaign.run", activate=False,
            attributes={"backend": self.backend, "jobs": self.jobs,
                        "scenarios": len(specs)})
        trace_parent = (campaign_span.trace_id, campaign_span.span_id)
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        fingerprints: Optional[List[str]] = None
        hits = 0
        aborted = False
        pending = list(range(len(specs)))
        try:
            if self.store is not None:
                fingerprints = [spec.fingerprint() for spec in specs]
                if self.reuse:
                    pending = []
                    for index, fingerprint in enumerate(fingerprints):
                        cached = self.store.get(fingerprint)
                        if cached is not None:
                            results[index] = cached
                            hits += 1
                            yield self._emit(cached, trace_parent)
                            if self.fail_fast and not cached.ok:
                                # A cached failure is a failure: nothing
                                # pending has been dispatched yet, so the
                                # abort is free.
                                aborted = True
                                pending = []
                                break
                        else:
                            pending.append(index)
            if not aborted:
                completions = self._execute_iter(
                    [(index, specs[index]) for index in pending],
                    trace_parent)
                for index, result in completions:
                    results[index] = result
                    if self.store is not None:
                        self.store.put(fingerprints[index], result)
                    yield self._emit(result, trace_parent)
                    if self.fail_fast and not result.ok:
                        # Tear down in-flight dispatch: closing the
                        # generator raises GeneratorExit at its yield
                        # point, which exits the pool context managers
                        # (terminating their workers) -- and, on the
                        # remote backend, runs the dispatcher's abort
                        # path (drain assigned workers, requeue
                        # nothing).
                        completions.close()
                        aborted = True
                        break
        finally:
            campaign_span.set_attribute("aborted", aborted)
            campaign_span.set_attribute("store_hits", hits)
            tracer.finish(campaign_span)
            if aborted:
                get_registry().counter("campaign.aborted").inc()
        if aborted:
            # Spec order, completed scenarios only; unfinished slots
            # are dropped rather than padded with placeholders.
            results = [result for result in results if result is not None]
        return CampaignResult(
            results=results,
            backend=self.backend,
            jobs=self.jobs,
            elapsed_seconds=time.perf_counter() - started,
            store_hits=hits,
            # Store accounting only makes sense when a store took part;
            # a store-less campaign "missed" nothing.
            store_misses=len(pending) if self.store is not None else 0,
            aborted=aborted,
        )

    def _emit(self, result: ScenarioResult,
              trace_parent: Optional[Tuple[str, str]] = None
              ) -> ScenarioResult:
        """Account one completed result: ``campaign.*`` metrics, a
        synthetic dispatch-side span (uniform across backends, built
        from the measured ``elapsed_seconds``), then the caller hook."""
        registry = get_registry()
        registry.counter("campaign.scenarios").inc()
        registry.counter("campaign.cached" if result.cached
                         else "campaign.executed").inc()
        if not result.ok:
            registry.counter("campaign.failures").inc()
        registry.histogram("campaign.scenario_seconds").record(
            result.elapsed_seconds)
        get_tracer().add(
            "campaign.scenario", result.elapsed_seconds,
            parent=trace_parent,
            attributes={"scenario": result.name, "kind": result.kind,
                        "cached": result.cached, "ok": result.ok})
        if self.on_result is not None:
            self.on_result(result)
        return result

    def _execute_iter(self, items: List[Tuple[int, ScenarioSpec]],
                      trace_parent: Optional[Tuple[str, str]] = None
                      ) -> Iterator[Tuple[int, ScenarioResult]]:
        """Run ``(index, spec)`` work items through the backend,
        yielding ``(index, result)`` in completion order."""
        if not items:
            return
        if self.backend == "remote":
            # Imported lazily: the campaign engine must not drag the
            # service layer in for the serial/thread/process backends.
            from repro.net.remote import run_remote_campaign_iter

            yield from run_remote_campaign_iter(
                items, jobs=self.jobs, heartbeat=self.heartbeat,
                trace_parent=trace_parent)
        elif self.jobs > 1 and len(items) > 1 and self.backend == "process":
            # chunksize=1 everywhere below: scenarios are coarse units
            # of seconds, not microtasks; per-item dispatch gives the
            # best load balance.
            if self.warm:
                # Sized by self.jobs (not len(items)) so repeat
                # campaigns of any length land on the same persistent
                # pool.
                yield from _warm_pool(self.jobs).imap_unordered(
                    _run_indexed, items, chunksize=1)
            else:
                context = _process_context()
                processes = min(self.jobs, len(items))
                with context.Pool(processes=processes) as pool:
                    yield from pool.imap_unordered(
                        _run_indexed, items, chunksize=1)
        elif self.jobs > 1 and len(items) > 1 and self.backend == "thread":
            from multiprocessing.pool import ThreadPool

            with ThreadPool(processes=min(self.jobs, len(items))) as pool:
                yield from pool.imap_unordered(
                    _run_indexed, items, chunksize=1)
        else:
            for index, spec in items:
                yield index, run_scenario(spec)
