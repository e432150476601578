"""Outside-in instrumentation of the program's layers for the traced run.

:func:`instrument` wraps the public functions each layer exposes with
spans (see :mod:`spans`); nothing inside ``src/`` is edited.  Span names
are ``<layer>.<operation>``; :func:`layer_metrics` turns the tracer's
per-name self times, outermost call counts and boundary counts into the
``per_layer`` metrics of ``BENCHMARK.json``.

Strategy methods are wrapped on every class that defines them and label
the span by the calling instance: DynaSoRe is the ``core`` layer, every
other strategy the ``baselines`` layer.
"""

from __future__ import annotations

from repro.baselines.base import PlacementStrategy
from repro.core.api import DynaSoReStore
from repro.core.engine import DynaSoRe
from repro.experiments.registry import Experiment
from repro.persistence.backend import PersistentStore
from repro.runtime import executor as executor_module
from repro.runtime.executor import ResultCache, RuntimeExecutor
from repro.runtime.spec import GraphSpec, TopologySpec
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.graph import SocialGraph
from repro.traffic.accounting import TrafficAccountant
from repro.workload.stream import EventStream

from spans import Patcher, Tracer

#: Strategy entry points and the span operation each one opens.
STRATEGY_SPANS = {
    "execute_read": "request_single",
    "execute_write": "request_single",
    "execute_request_batch": "request_batch",
    "execute_read_batch": "request_batch",
    "execute_write_batch": "request_batch",
    "on_tick": "tick",
    "on_server_down": "fault",
    "on_server_up": "fault",
    "build_initial_placement": "initial_placement",
}

TRAFFIC_METHODS = (
    "record",
    "record_roundtrip",
    "record_batch",
    "record_roundtrip_batch",
    "count_messages",
)

BATCH_SPANS = ("core.request_batch", "baselines.request_batch")


def _strategy_classes() -> list[type]:
    classes, pending = [], [PlacementStrategy]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


def _strategy_span(operation: str):
    """Span label of a strategy method: the calling instance's layer."""

    def label(strategy, *args, **kwargs) -> str:
        layer = "core" if isinstance(strategy, DynaSoRe) else "baselines"
        return f"{layer}.{operation}"

    return label


def record_strategy(tracer: Tracer, strategy, accountant) -> None:
    """Add a finished strategy's decision counters and message count."""
    counts = tracer.counts
    counts["traffic.messages"] += accountant.message_count
    counters = getattr(strategy, "counters", None)
    if not isinstance(strategy, DynaSoRe) or counters is None:
        return
    counts["core.replicas_created"] += counters.replicas_created
    counts["core.replicas_removed"] += counters.replicas_removed
    counts["core.replicas_migrated"] += counters.replicas_migrated
    counts["core.proxy_migrations"] += (
        counters.read_proxy_migrations + counters.write_proxy_migrations
    )
    counts["core.recovered_from_memory"] += counters.views_recovered_from_memory
    counts["core.recovered_from_disk"] += counters.views_recovered_from_disk
    counts["core.creation_rejected_full"] += counters.creation_rejected_full


def instrument(tracer: Tracer) -> Patcher:
    """Install every layer wrapper; the caller must ``restore()`` them."""
    patcher = Patcher(tracer)
    try:
        _install(patcher, tracer)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _install(patcher: Patcher, tracer: Tracer) -> None:
    wrap = patcher.wrap
    depth = tracer.depth
    counts = tracer.counts

    # runtime: executor bookkeeping, one spec run, result-cache writes.
    wrap(RuntimeExecutor, "run", "runtime.executor")
    wrap(executor_module, "execute_spec", "runtime.run")
    wrap(ResultCache, "put", "runtime.cache_put")
    wrap(Experiment, "run", "experiments.assemble")

    # inputs: topology, graph, event stream.
    wrap(TopologySpec, "build", "topology.build")
    wrap(GraphSpec, "build", "socialgraph.build")

    def outside_build(*args):
        # Generation adds every edge through the same method; only edge
        # events replayed against a built graph are mutations.
        return depth["socialgraph.build"] == 0

    wrap(SocialGraph, "add_edge", "socialgraph.mutate", before=outside_build)
    wrap(SocialGraph, "remove_edge", "socialgraph.mutate", before=outside_build)

    def count_chunk(chunk, nested):
        # Composed streams (flash merge, scenario transforms) pull inner
        # streams from inside their own ``next()``: count the outer one.
        if not nested:
            counts["workload.events"] += len(chunk)

    patcher.wrap_iterator(EventStream, "chunks", "workload.generate", count_chunk)

    # simulator.
    wrap(ClusterSimulator, "prepare", "partitioning.initial_placement")

    def finished_run(result, simulator, *args):
        counts["requests"] += result.reads_executed + result.writes_executed
        record_strategy(tracer, simulator.strategy, simulator.accountant)

    wrap(ClusterSimulator, "run", "simulator.run", after=finished_run)

    # strategies: core (DynaSoRe) and baselines.
    def in_batch() -> bool:
        return any(depth[name] for name in BATCH_SPANS)

    def outside_batches(*args, **kwargs):
        if not in_batch():
            counts["singles_outside_batches"] += 1

    def batch_of(users):
        if not in_batch():
            counts["batches"] += 1
            counts["batch_events"] += len(users)

    def request_batch(strategy, kinds, users, timestamps):
        batch_of(users)

    def kind_batch(strategy, users, timestamps):
        batch_of(users)

    before = {
        "execute_read": outside_batches,
        "execute_write": outside_batches,
        "execute_request_batch": request_batch,
        "execute_read_batch": kind_batch,
        "execute_write_batch": kind_batch,
    }
    for cls in _strategy_classes():
        for attr, operation in STRATEGY_SPANS.items():
            function = cls.__dict__.get(attr)
            if function is None or getattr(function, "__isabstractmethod__", False):
                continue
            if operation == "initial_placement":
                label = "partitioning.initial_placement"
            else:
                label = _strategy_span(operation)
            wrap(cls, attr, label, before=before.get(attr))

    # traffic accounting.
    for attr in TRAFFIC_METHODS:
        wrap(TrafficAccountant, attr, "traffic.record")

    # persistence and the public store API.
    wrap(PersistentStore, "process_write", "persistence.write")
    wrap(PersistentStore, "fetch_view", "persistence.fetch")
    wrap(DynaSoReStore, "read", "core.api.read")
    wrap(DynaSoReStore, "write", "core.api.write")
    wrap(DynaSoReStore, "run_maintenance", "core.api.maintenance")


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-unit ``per_layer`` values of a tracer that saw ``units`` units.

    Times are self times (``simulator.run_s`` and ``core.api.maintenance_s``
    are the two inclusive exceptions, named in the glossary); counts are
    outermost calls or boundary counts.
    """
    s, total, n, c = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    created = c["core.replicas_created"]
    attempts = created + c["core.creation_rejected_full"]
    raw = {
        "runtime.cache_put_s": s["runtime.cache_put"],
        "runtime.runs": n["runtime.run"],
        "runtime.self_s": s["runtime.run"] + s["runtime.executor"],
        "topology.build_s": s["topology.build"],
        "socialgraph.build_s": s["socialgraph.build"],
        "socialgraph.builds": n["socialgraph.build"],
        "socialgraph.mutate_s": s["socialgraph.mutate"],
        "socialgraph.mutations": n["socialgraph.mutate"],
        "workload.generate_s": s["workload.generate"],
        "workload.events": c["workload.events"],
        "partitioning.initial_placement_s": s["partitioning.initial_placement"],
        "simulator.run_s": total["simulator.run"],
        "simulator.self_s": s["simulator.run"],
        "core.request_batch_s": s["core.request_batch"],
        "core.request_batches": n["core.request_batch"],
        "core.request_single_s": s["core.request_single"],
        "core.request_singles": n["core.request_single"],
        "core.tick_s": s["core.tick"],
        "core.ticks": n["core.tick"],
        "core.fault_s": s["core.fault"],
        "core.faults": n["core.fault"],
        "core.replicas_created": created,
        "core.replicas_removed": c["core.replicas_removed"],
        "core.replicas_migrated": c["core.replicas_migrated"],
        "core.proxy_migrations": c["core.proxy_migrations"],
        "core.recovered_from_memory": c["core.recovered_from_memory"],
        "core.recovered_from_disk": c["core.recovered_from_disk"],
        "baselines.request_batch_s": s["baselines.request_batch"],
        "baselines.request_single_s": s["baselines.request_single"],
        "baselines.tick_s": s["baselines.tick"],
        "baselines.fault_s": s["baselines.fault"],
        "traffic.record_s": s["traffic.record"],
        "traffic.record_calls": n["traffic.record"],
        "traffic.messages": c["traffic.messages"],
        "persistence.write_s": s["persistence.write"],
        "persistence.writes": n["persistence.write"],
        "persistence.fetch_s": s["persistence.fetch"],
        "core.api.read_self_s": s["core.api.read"],
        "core.api.write_self_s": s["core.api.write"],
        "core.api.maintenance_s": total["core.api.maintenance"],
        "experiments.assemble_s": s["experiments.assemble"],
    }
    metrics = {name: value / units for name, value in raw.items()}
    # Ratios are unit-free: computed from the sums, not divided again.
    metrics["simulator.per_event_share"] = (
        c["singles_outside_batches"] / c["requests"] if c["requests"] else 0.0
    )
    metrics["simulator.events_per_batch"] = (
        c["batch_events"] / c["batches"] if c["batches"] else 0.0
    )
    metrics["core.creation_accept_ratio"] = created / attempts if attempts else 0.0
    return metrics
