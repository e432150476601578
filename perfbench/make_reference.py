"""Regenerate the reference digests the benchmark checks results against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --workload sweep

Runs one unit of a simulator workload for every input seed and writes the
``SimulationResult`` digests, in run order, to ``reference/<workload>.json``.
Run it only on a commit whose results are known to be right: every later
commit is checked against these digests.
"""

import argparse
import json
import shutil
import sys

from run import HERE, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "flash", "churn"))
    args = parser.parse_args(argv)
    workloads = import_program()
    work_dir = HERE / "_work" / f"reference-{args.workload}"
    digests = {}
    try:
        for seed in range(workloads.SEED_POOL):
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(seed, work_dir)
            results, error, *_ = workload.run_fresh()
            if error is not None:
                raise SystemExit(f"seed {seed} failed: {error!r}")
            digests[str(seed)] = [workloads.result_digest(r) for r in results]
            print(f"{args.workload} seed {seed}: {len(results)} runs", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
