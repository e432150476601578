"""Tests of the benchmark's span accounting, layer instrumentation and
host-speed correction."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from hostspeed import REFERENCE_S, HostSpeed
from spans import Patcher, Tracer

HERE = Path(__file__).resolve().parent


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer")
    clock.advance(1.0)
    tracer.enter("inner")
    clock.advance(2.0)
    tracer.exit()
    clock.advance(0.5)
    tracer.enter("inner")
    clock.advance(3.0)
    tracer.exit()
    tracer.exit()

    assert tracer.total_s["outer"] == 6.5
    assert tracer.self_s["outer"] == 1.5
    assert tracer.self_s["inner"] == 5.0
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_sum() == tracer.total_s["outer"]
    assert tracer.open_spans == 0


def test_same_name_nesting_is_timed_once_and_counted_once():
    # A default batch method that calls another batch method of the same
    # layer: the naive sum of inclusive times would count 4 s twice.
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("core.request_batch")
    clock.advance(1.0)
    tracer.enter("core.request_batch")
    clock.advance(4.0)
    tracer.exit()
    tracer.exit()

    assert tracer.self_s["core.request_batch"] == 5.0
    assert tracer.calls["core.request_batch"] == 1
    assert tracer.self_sum() == 5.0


class Layer:
    def work(self, seconds, clock):
        clock.advance(seconds)
        return seconds

    def fail(self):
        raise ValueError("boom")

    def produce(self, clock):
        for item in (1, 2):
            clock.advance(1.0)
            yield item


def test_patcher_wraps_and_restores():
    clock = FakeClock()
    tracer = Tracer(clock)
    originals = dict(Layer.__dict__)
    seen = []
    with Patcher(tracer) as patcher:
        patcher.wrap(Layer, "work", lambda self, seconds, clock: f"layer.{seconds}")
        patcher.wrap(Layer, "fail", "layer.fail")
        patcher.wrap_iterator(
            Layer, "produce", "layer.produce", lambda item, nested: seen.append(item)
        )
        assert Layer().work(2.0, clock) == 2.0
        with pytest.raises(ValueError):
            Layer().fail()
        for _ in Layer().produce(clock):
            clock.advance(10.0)  # consumer time is outside the producer span
    assert dict(Layer.__dict__) == originals
    assert tracer.self_s["layer.2.0"] == 2.0
    assert tracer.calls["layer.fail"] == 1
    assert tracer.self_s["layer.produce"] == 2.0
    assert seen == [1, 2]
    assert tracer.open_spans == 0


def test_before_hook_can_bypass_the_span():
    tracer = Tracer(FakeClock())
    with Patcher(tracer) as patcher:
        patcher.wrap(Layer, "work", "layer.work", before=lambda *args: False)
        Layer().work(1.0, FakeClock())
    assert tracer.calls["layer.work"] == 0


def test_instrumented_run_matches_untraced_and_restores_every_layer():
    from layers import instrument, layer_metrics
    from workloads import result_digest

    from repro.config import ClusterSpec, SimulationConfig
    from repro.runtime.executor import execute_spec
    from repro.runtime.spec import GraphSpec, RunSpec, TopologySpec, WorkloadSpec

    spec = RunSpec(
        topology=TopologySpec.tree(
            ClusterSpec(
                intermediate_switches=2,
                racks_per_intermediate=2,
                machines_per_rack=3,
                brokers_per_rack=1,
            )
        ),
        graph=GraphSpec(dataset="facebook", users=150, seed=3),
        workload=WorkloadSpec(kind="synthetic", days=0.5, seed=3),
        strategy="dynasore_hmetis",
        config=SimulationConfig(extra_memory_pct=40.0, seed=3),
    )
    untraced = execute_spec(spec)

    tracer = Tracer()
    patcher = instrument(tracer)
    saved = list(patcher._saved)
    start = time.perf_counter()
    try:
        traced = execute_spec(spec)
    finally:
        patcher.restore()
    wall = time.perf_counter() - start
    assert len(saved) > 30
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, (owner, attr)

    assert result_digest(traced) == result_digest(untraced)
    metrics = layer_metrics(tracer, 1)
    assert metrics["socialgraph.builds"] == 1
    assert metrics["workload.events"] == traced.requests_executed
    assert metrics["core.request_batches"] > 0
    assert metrics["simulator.self_s"] <= metrics["simulator.run_s"]
    assert tracer.self_sum() <= wall
    assert tracer.open_spans == 0


def test_glossary_matches_benchmark_json():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    glossary = json.loads((HERE / "glossary.json").read_text(encoding="utf-8"))
    for kind in ("end_to_end", "per_layer"):
        declared = {entry["name"]: entry["unit"] for entry in benchmark[kind]}
        described = {entry["name"]: entry["unit"] for entry in glossary[kind]}
        assert declared == described, kind


def test_host_speed_removes_inner_probes_and_scales():
    speed = HostSpeed(cpu=0)
    # Probes ran at twice the reference time: the host was half as fast.
    speed.samples = [2 * REFERENCE_S] * 4
    speed.alarms = [(9.0, 0.5, 0.4), (10.5, 0.5, 0.4), (12.0, 0.5, 0.4)]
    speed.steal_s = 0.25
    wall, cpu = speed.correct(start=10.0, wall_s=2.0, cpu_s=1.0)
    # Only the probe at 10.5 lies inside [10, 12).
    assert wall == pytest.approx((2.0 - 0.5 - 0.25) / 2)
    assert cpu == pytest.approx((1.0 - 0.4) / 2)
    # Steal time never takes the wall time below the CPU time.
    speed.steal_s = 1.5
    wall, cpu = speed.correct(start=10.0, wall_s=2.0, cpu_s=1.0)
    assert wall == cpu


def test_host_speed_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed(cpu=min(os.sched_getaffinity(0))).start()
    deadline = time.perf_counter() + 0.35
    while time.perf_counter() < deadline:
        pass
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.alarms) >= 1
    assert len(speed.samples) == len(speed.alarms) + 2
