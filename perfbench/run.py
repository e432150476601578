"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: work per second, CPU
seconds per unit, set-up time (median of several fresh-interpreter
set-ups), peak resident memory.  ``--trace 1`` alternates untraced and
traced units and reports the per-layer metrics, measured by wrapping each
layer's public functions from outside (see ``layers.py``).

Everything runs in this one process on one CPU (set-up samples apart, on
the same CPU): serial executor, one shard, no thread pools.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the run's metadata.  Every simulator result is
checked against stored reference digests and every ``store_api`` read
against the acknowledged writes; a mismatch or an exception counts as a
failed operation.

End-to-end times are in *reference seconds*: the speed of a core on a
shared host drifts far beyond any bound worth setting, so each unit and
each set-up runs under :class:`hostspeed.HostSpeed`, which samples a fixed
probe throughout and scales the measured time, less steal time, to what it
would be when the probe runs at its reference speed.  The raw times are
kept in the metadata line.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed, pin_to_one_cpu  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per measured run (this process plus fresh interpreters).
SETUP_SAMPLES = 5
#: ``store_api`` calls per traced or untraced unit of a ``--trace 1`` run
#: (each unit also builds its own graph, store and call sequence).
TRACE_STORE_CALLS = 4000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "flash", "churn", "store_api")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")
    import workloads

    return workloads


def metric_units(kind: str) -> dict[str, str]:
    with (HERE / "glossary.json").open(encoding="utf-8") as handle:
        glossary = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in glossary[kind]}


def child_setup(args) -> dict[str, float]:
    """Set-up sample of a fresh interpreter (imports included), as printed
    by ``--setup-only``: ``{"raw_s", "setup_s"}``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def measure(workload, args, cpu, setup):
    """``--trace 0``: repeat units until the time is up; end-to-end metrics.

    ``cpu`` is the CPU this process is pinned to; ``setup`` is its set-up
    sample, and fresh interpreters add the others.
    """
    setups = [setup]
    setups.extend(child_setup(args) for _ in range(SETUP_SAMPLES - 1))
    units, corrected = [], []
    deadline = time.perf_counter() + args.seconds
    while not units or time.perf_counter() < deadline:
        speed = HostSpeed(cpu).start()
        try:
            unit = workload.run_unit(len(units))
        finally:
            speed.stop()
        units.append(unit)
        corrected.append(speed.correct(unit.started, unit.wall_s, unit.cpu_s))
    checks = list(units)
    if hasattr(workload, "final_check"):
        checks.append(workload.final_check())
    metrics = {
        "events_per_s": statistics.median(
            unit.work / wall for unit, (wall, _) in zip(units, corrected)
        ),
        "cpu_s": statistics.median(cpu for _, cpu in corrected),
        "setup_s": statistics.median(sample["setup_s"] for sample in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "units": len(units),
        "unit_raw_wall_s": [unit.wall_s for unit in units],
        "unit_raw_cpu_s": [unit.cpu_s for unit in units],
        "setup_raw_s": [sample["raw_s"] for sample in setups],
    }
    return metrics, checks, extra


def trace(workload_class, workload, args, work_dir):
    """``--trace 1``: pairs of untraced and traced units; per-layer metrics."""
    from layers import instrument, layer_metrics, record_strategy
    from spans import Tracer

    store_api = workload_class.name == "store_api"
    tracer = Tracer()
    checks, untraced, traced = [], [], []
    latencies = {"read": [], "write": []}

    def unit():
        """One unit, always on the first input seed, so per-unit counts do
        not depend on how many units fit in the time; a store_api unit
        includes its own set-up, so graph building and the initial
        placement show in the trace."""
        if not store_api:
            return workload.run_unit(), None
        start = time.perf_counter()
        fresh = workload_class()
        fresh.setup(args.seed, work_dir)
        fresh.block = TRACE_STORE_CALLS
        outcome = fresh.run_unit()
        outcome.wall_s = time.perf_counter() - start
        checks.append(fresh.final_check())
        return outcome, fresh

    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        outcome, fresh = unit()
        checks.append(outcome)
        untraced.append(outcome.wall_s)
        if fresh is not None:
            latencies["read"] += fresh.read_latencies
            latencies["write"] += fresh.write_latencies

        with instrument(tracer):
            outcome, fresh = unit()
        if tracer.open_spans:
            raise RuntimeError("trace left spans open")
        if fresh is not None:
            tracer.counts["requests"] += outcome.work
            record_strategy(tracer, fresh.store.strategy, fresh.store.accountant)
        checks.append(outcome)
        traced.append(outcome.wall_s)

    metrics = layer_metrics(tracer, len(traced))
    wall = sum(traced)
    if tracer.self_sum() > wall:
        raise RuntimeError(f"self times {tracer.self_sum()} exceed traced wall {wall}")
    metrics["trace.overhead_ratio"] = wall / sum(untraced)
    metrics["trace.wall_s"] = wall / len(traced)
    metrics["trace.self_sum_s"] = tracer.self_sum() / len(traced)
    for kind, samples in latencies.items():
        metrics[f"core.api.{kind}_samples"] = len(samples)
        for label, share in (("p50", 0.5), ("p99", 0.99)):
            value = percentile(samples, share) * 1e6 if samples else 0.0
            metrics[f"core.api.{kind}_{label}_us"] = value
    return metrics, checks, {"pairs": len(traced)}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = HERE / "_work" / str(os.getpid())
    cpu = pin_to_one_cpu()
    speed = HostSpeed(cpu).start()
    try:
        workloads = import_program()
        workload_class = workloads.WORKLOADS[args.workload]
        workload = workload_class()
        workload.setup(args.seed, work_dir)
        raw_setup = time.perf_counter() - START
    finally:
        speed.stop()
    setup = {"raw_s": raw_setup, "setup_s": speed.correct(START, raw_setup, 0.0)[0]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    try:
        if args.trace:
            metrics, checks, extra = trace(workload_class, workload, args, work_dir)
            units = metric_units("per_layer")
        else:
            metrics, checks, extra = measure(workload, args, cpu, setup)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    if args.trace:
        metrics["run.failed_share"] = failed / attempted
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "first_input_seed": workloads.input_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        **extra,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
