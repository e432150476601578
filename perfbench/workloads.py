"""The benchmark's four workloads, their inputs and their output checks.

Every workload turns ``--seed`` into its inputs (:func:`input_seed`), builds
them in :meth:`setup` and then repeats *units* of work: a unit is one
complete simulator grid (``sweep``, ``flash``, ``churn``; unit ``k`` of a
run replays input seed ``input_seed(seed + k)``) or one block of public-API
calls (``store_api``).  A unit returns its work count, the
operations it attempted and the ones that failed its output check.

Simulator units run serially in this process (``RuntimeExecutor(jobs=1)``,
one shard) against a fresh, empty ``ResultCache`` directory: the cache key
depends only on ``SPEC_VERSION``, so a reused cache could serve results of
older code.  Each ``SimulationResult`` is checked against the reference
digest stored for the seed in ``reference/<workload>.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import pickle
import shutil
import sys
import time
import traceback
from pathlib import Path

from repro.config import ExperimentProfile
from repro.constants import DAY, HOUR
from repro.core.api import DynaSoReStore
from repro.experiments.common import (
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
)
from repro.experiments.figure5 import flash_run_spec
from repro.experiments.registry import get_experiment
from repro.runtime.executor import ResultCache, RuntimeExecutor
from repro.runtime.grid import RunGrid
from repro.runtime.spec import ScenarioSpec
from repro.workload.stream import KIND_READ, KIND_WRITE

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Number of distinct inputs: ``--seed n`` selects input seed ``n % SEED_POOL``,
#: so every seed the benchmark can be given has stored reference digests.
SEED_POOL = 32


def input_seed(seed: int) -> int:
    return seed % SEED_POOL


def profile_for(seed: int, scale=ExperimentProfile.ci) -> ExperimentProfile:
    """An experiment scale (``ci`` by default) with the input seed."""
    return dataclasses.replace(scale(), seed=input_seed(seed))


def result_digest(result) -> str:
    """sha256 of a SimulationResult's canonical bytes (as tests/parity.py)."""
    payload = pickle.dumps(dataclasses.asdict(result), protocol=4)
    return hashlib.sha256(payload).hexdigest()


class _RecordingExecutor(RuntimeExecutor):
    """Serial executor that keeps every result it returns, in order."""

    def __init__(self, cache: ResultCache) -> None:
        super().__init__(jobs=1, cache=cache)
        self.results = []

    def run(self, specs):
        results = super().run(specs)
        self.results.extend(results)
        return results


@dataclasses.dataclass
class UnitOutcome:
    """One unit: work done, operations attempted and failed, host times."""

    work: int
    attempted: int
    failed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``time.perf_counter()`` when the timed part began.
    started: float = 0.0


class SimulatorWorkload:
    """A workload whose unit is one grid of simulator runs."""

    name = ""

    def setup(self, seed: int, work_dir: Path):
        self.base_seed = seed
        self.work_dir = work_dir
        self.references = load_reference(self.name)
        self._caches = itertools.count()
        self.load(input_seed(seed))

    def load(self, seed: int) -> None:
        """Declare the inputs of input seed ``seed`` (untimed)."""
        self.seed = seed
        self.profile = profile_for(seed)

    def execute(self, executor: RuntimeExecutor) -> None:
        raise NotImplementedError

    def run_unit(self, index: int = 0) -> UnitOutcome:
        """Unit ``index`` of a run: input seed ``input_seed(seed + index)``.

        Consecutive units replay different inputs, so one run's median
        covers several inputs rather than resting on one.
        """
        seed = input_seed(self.base_seed + index)
        if seed != self.seed:
            self.load(seed)
        results, error, started, wall, cpu = self.run_fresh()
        digests = [result_digest(result) for result in results]
        expected = self.references.get(str(seed))
        if expected is None:
            print(f"no reference digests for {self.name} seed {seed}", file=sys.stderr)
            count = max(1, len(digests))
            return UnitOutcome(0, count, count, wall, cpu, started)
        attempted = max(len(expected), len(digests))
        if error is not None:
            failed = attempted
        else:
            failed = attempted - sum(a == b for a, b in zip(digests, expected))
        work = sum(result.requests_executed for result in results)
        return UnitOutcome(work, attempted, failed, wall, cpu, started)

    def run_fresh(self):
        """Run one unit on a new, empty result cache.

        Returns ``(results, error, started, wall_s, cpu_s)``; only the
        execution is timed, not the cache clean-up or the digests.
        """
        cache_dir = self.work_dir / f"cache-{next(self._caches)}"
        if cache_dir.exists() and any(cache_dir.iterdir()):
            raise RuntimeError(f"result cache {cache_dir} is not empty")
        executor = _RecordingExecutor(ResultCache(cache_dir))
        error = None
        started, cpu = time.perf_counter(), time.process_time()
        try:
            self.execute(executor)
        except Exception as exc:  # counted as failed operations, reported
            traceback.print_exc(file=sys.stderr)
            error = exc
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu
        shutil.rmtree(cache_dir, ignore_errors=True)
        # Simulation objects form reference cycles.  Collecting them here,
        # untimed, keeps one unit's garbage out of the next unit's time and
        # makes peak memory that of one unit, not of however many units fit
        # in the run.
        gc.collect()
        return executor.results, error, started, wall, cpu


class Sweep(SimulatorWorkload):
    """Figure 3c: Facebook-like graph, tree cluster, five strategies x memory."""

    name = "sweep"

    def execute(self, executor):
        get_experiment("figure3c").run(self.profile, executor)


class Flash(SimulatorWorkload):
    """One Figure 5 repetition: DynaSoRe-hMETIS, 100-follower flash event."""

    name = "flash"
    DAYS = 3.0

    def load(self, seed):
        super().load(seed)
        self.spec = flash_run_spec(
            self.profile,
            "facebook",
            extra_memory_pct=30.0,
            followers=100,
            start_day=1.0,
            end_day=2.0,
            duration_days=self.DAYS,
            seed=seed,
        )

    def execute(self, executor):
        executor.run([self.spec])


class Churn(SimulatorWorkload):
    """Abrupt node churn (crashes with WAL recovery) under synthetic load."""

    name = "churn"
    DAYS = 3.0
    CHANGES = 180

    def load(self, seed):
        super().load(seed)
        profile = self.profile
        duration = self.DAYS * DAY
        churn = ScenarioSpec.of(
            "node_churn",
            start_time=0.05 * duration,
            end_time=0.95 * duration,
            changes=self.CHANGES,
            max_concurrent_down=3,
            graceful=False,
        )
        self.grid = RunGrid.product(
            topology_spec(profile),
            graph_spec(profile, "facebook"),
            dataclasses.replace(synthetic_workload_spec(profile), days=self.DAYS),
            simulation_config(profile, 50.0),
            ("random", "spar", "dynasore_hmetis"),
            scenarios=[churn],
        )

    def execute(self, executor):
        self.grid.run(executor)


class StoreApi:
    """One client in a closed loop on ``DynaSoReStore.read/write``.

    The call sequence is the read/write events of a seeded synthetic
    workload (the API has no follow/unfollow call, so edge events are
    dropped), replayed cyclically with time shifted forward by the
    sequence's length each pass.  ``run_maintenance`` runs every simulated
    hour.  Each read checks that every returned view's version equals the
    writes acknowledged for that user.
    """

    name = "store_api"
    DAYS = 1.0
    EXTRA_MEMORY_PCT = 30.0
    #: Calls per unit: one block of the closed loop.
    block = 1000

    def setup(self, seed: int, work_dir: Path):
        self.seed = input_seed(seed)
        # The laptop scale (6,000 users): a store deployment large enough
        # that building the graph and the initial placement shows in set-up.
        profile = profile_for(seed, ExperimentProfile.laptop)
        topology = topology_spec(profile).build()
        self.graph = graph_spec(profile, "facebook").build()
        self.store = DynaSoReStore(
            topology, self.graph, extra_memory_pct=self.EXTRA_MEMORY_PCT, seed=self.seed
        )
        stream, _ = dataclasses.replace(
            synthetic_workload_spec(profile), days=self.DAYS
        ).build_stream(self.graph)
        self.events = [
            (kind, timestamp, user)
            for chunk in stream.chunks()
            for kind, timestamp, user in zip(chunk.kinds, chunk.timestamps, chunk.users)
            if kind == KIND_READ or kind == KIND_WRITE
        ]
        self.period = self.DAYS * DAY
        self.position = 0
        self.offset = 0.0
        self.next_maintenance = HOUR
        self.acknowledged: dict[int, int] = {}
        self.read_latencies: list[float] = []
        self.write_latencies: list[float] = []

    def run_unit(self, index: int = 0) -> UnitOutcome:
        """The next ``block`` calls of the closed loop (``index`` is unused:
        the loop goes on where the previous unit stopped)."""
        store = self.store
        events = self.events
        acknowledged = self.acknowledged
        clock = time.perf_counter
        failed = 0
        calls = self.block
        started, cpu = clock(), time.process_time()
        for _ in range(calls):
            kind, timestamp, user = events[self.position]
            timestamp += self.offset
            self.position += 1
            if self.position == len(events):
                self.position = 0
                self.offset += self.period
            try:
                while timestamp >= self.next_maintenance:
                    store.advance_time(self.next_maintenance)
                    store.run_maintenance()
                    self.next_maintenance += HOUR
                store.advance_time(timestamp)
                if kind == KIND_READ:
                    start = clock()
                    views = store.read(user)
                    self.read_latencies.append(clock() - start)
                    if any(
                        view.version != acknowledged.get(target, 0)
                        for target, view in views.items()
                    ):
                        failed += 1
                else:
                    start = clock()
                    version = store.write(user)
                    self.write_latencies.append(clock() - start)
                    acknowledged[user] = acknowledged.get(user, 0) + 1
                    if version != acknowledged[user]:
                        failed += 1
            except Exception:  # counted as a failed call, reported
                traceback.print_exc(file=sys.stderr)
                failed += 1
        wall, cpu = clock() - started, time.process_time() - cpu
        return UnitOutcome(calls, calls, failed, wall, cpu, started)

    def final_check(self) -> UnitOutcome:
        """After the run every user must still have at least one replica."""
        lost = sum(1 for user in self.graph.users if self.store.replica_count(user) < 1)
        if lost:
            print(f"{lost} users have no replica", file=sys.stderr)
        return UnitOutcome(0, 1, int(lost > 0))


WORKLOADS = {cls.name: cls for cls in (Sweep, Flash, Churn, StoreApi)}


def load_reference(name: str) -> dict[str, list[str]]:
    """Stored digests by input seed (empty when none are stored: every
    unit then fails its check)."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {}
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)
