"""Tests for the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import itertools

import pytest

import inputs
import stats
import tracing


def take(iterator, count):
    return list(itertools.islice(iterator, count))


# ---------------------------------------------------------------- percentiles

@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_BEYOND


def test_p95_needs_two_hundred_samples():
    assert stats.supports(200, 95)
    assert not stats.supports(199, 95)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# ---------------------------------------------------------------- self time

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    with tracer.span("root") as root:
        clock.now = 1.0
        with tracer.span("child") as child:
            clock.now = 2.0
            with tracer.span("grandchild"):
                clock.now = 2.5
            clock.now = 3.0
        clock.now = 4.0
        with tracer.span("child"):
            clock.now = 5.0
        clock.now = 10.0
    assert tracing.self_time(root) == pytest.approx(7.0)
    assert tracing.self_time(child) == pytest.approx(1.5)
    table = tracer.by_name()
    assert table["child"]["calls"] == 2
    assert table["child"]["self_s"] == pytest.approx(2.5)
    assert table["child"]["total_s"] == pytest.approx(3.0)
    assert sum(entry["self_s"] for entry in table.values()) == pytest.approx(root.duration)


def test_self_time_counts_overlapping_children_once():
    root = tracing.Span("root", None, 0.0)
    root.end = 10.0
    for start, end in ((1.0, 4.0), (2.0, 6.0), (8.0, 12.0)):
        child = tracing.Span("exchange", root, start)
        child.end = end
        root.children.append(child)
    # Union of children inside the root: 1..6 and 8..10.
    assert tracing.covered_time(root) == pytest.approx(7.0)
    root.inner = 1.0
    assert tracing.self_time(root) == pytest.approx(2.0)


class Worker:
    def step(self, value):
        return value + 1

    def run(self, count):
        return sum(self.step(index) for index in range(count))


class SubWorker(Worker):
    pass


def test_wrap_and_accumulate_charge_the_open_span_and_restore():
    tracer = tracing.Tracer()
    tracer.wrap(SubWorker, "run", "worker.run")
    tracer.accumulate(SubWorker, "step", "worker.step")
    assert SubWorker().run(3) == 6
    tracer.restore()
    assert "run" not in vars(SubWorker) and "step" not in vars(SubWorker)
    (span,) = tracer.spans
    assert span.name == "worker.run"
    seconds, calls = tracer.accumulators["worker.step"]
    assert calls == 3
    assert span.inner == pytest.approx(seconds)
    assert tracing.self_time(span) <= span.duration - seconds + 1e-9


def test_wrap_registry_entry_and_skip():
    tracer = tracing.Tracer()
    registry = {"model": lambda: "built"}
    original = registry["model"]
    tracer.wrap(registry, "model", "ltl.build")
    tracer.wrap(Worker, "step", "worker.step",
                skip=lambda current: current is not None and current.name == "ltl.build")
    with tracer.span("ltl.build"):
        Worker().step(1)
    assert registry["model"]() == "built"
    tracer.restore()
    assert registry["model"] is original
    assert [span.name for span in tracer.spans] == ["ltl.build", "ltl.build"]


def test_around_readings_stay_out_of_self_times():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    readings = iter((3.0, 5.0))

    def around():
        clock.now += 1.0
        return next(readings)

    def work():
        clock.now += 2.0

    module = type("Module", (), {"work": staticmethod(work)})
    tracer.wrap(module, "work", "piece", around=around)
    with tracer.span("root") as root:
        module.work()
    (piece,) = [span for span in tracer.spans if span.name == "piece"]
    assert piece.attrs["around"] == pytest.approx(4.0)
    assert tracing.self_time(piece) == pytest.approx(2.0)
    assert tracing.self_time(root) == pytest.approx(0.0)
    assert tracer.accumulators[tracing.AROUND] == [pytest.approx(2.0), 2]
    assert sum(entry["self_s"] for entry in tracer.by_name().values()) == pytest.approx(
        root.duration)


def test_wrapped_coroutine_spans_its_steps_not_its_waits():
    import asyncio

    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    class Link:
        async def call(self, value):
            clock.now += 1.0
            await asyncio.sleep(0)
            clock.now += 0.5
            return value * 2

    async def other_task():
        clock.now += 10.0
        await asyncio.sleep(0)

    async def main():
        return await asyncio.gather(Link().call(4), other_task())

    tracer.wrap(Link, "call", "net.rpc")
    assert asyncio.run(main()) == [8, None]
    tracer.restore()
    assert [(span.start, span.end) for span in tracer.spans] == [(0.0, 1.0), (11.0, 11.5)]


# ---------------------------------------------------------------- seeded inputs

def test_pox_inputs_are_deterministic_per_seed():
    assert take(inputs.pox_inputs(7), 50) == take(inputs.pox_inputs(7), 50)
    assert take(inputs.pox_inputs(7), 50) != take(inputs.pox_inputs(8), 50)


def test_pox_commands_land_inside_the_sampling_loop():
    last_step = inputs.POX_SAMPLES * inputs.STEPS_PER_SAMPLE - inputs.EDGE_STEPS
    for item in take(inputs.pox_inputs(3), 200):
        steps = [step for step, _ in item.commands]
        assert len(steps) == inputs.POX_COMMANDS
        assert inputs.EDGE_STEPS <= steps[0] and steps[-1] <= last_step
        assert all(later - earlier >= inputs.MIN_GAP
                   for earlier, later in zip(steps, steps[1:]))
        assert all(1 <= command <= 255 for _, command in item.commands)
        assert 0 <= item.sensor <= 255


def test_pox_expected_output():
    item = inputs.PoxInput(200, ((50, 7), (90, 9)))
    assert item.expected_output() == {
        "sum": (200 * inputs.POX_SAMPLES) & 0xFFFF,
        "count": inputs.POX_SAMPLES,
        "command": 9,
    }


def test_fleet_plan_is_deterministic_per_seed():
    assert inputs.fleet_plan(5, 8) == inputs.fleet_plan(5, 8)
    plan = inputs.fleet_plan(5, 8)
    assert sorted(plan.order) == list(range(8))
    assert sorted(plan.first_kind) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert any(inputs.fleet_plan(seed, 8) != plan for seed in range(6, 12))
