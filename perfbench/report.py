"""Print every benchmark metric, by name and with its unit, for each workload.

Usage (from the root of a checkout):
    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...] [--trace]
    python3 perfbench/report.py --record-digests

For each workload this runs the same measurement as ``run.py --trace 0`` and
prints ``setup_s``, ``wall_s``, ``rounds_per_s`` and ``peak_rss_mb`` together
with ``failed_frac``, the failed jobs over the attempted ones.  ``--trace``
adds a traced run per workload and prints every per-layer metric, including
the per-function self times that BENCHMARK.json does not list.

``--record-digests`` runs one job per workload on the default seed and
writes the sha256 of each output file to ``digests.json``; do this only when
a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, plan


def record_digests() -> int:
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        jobdir = run.WORK / f"digests-{workload}"
        try:
            job = run.run_job(plan(workload, DEFAULT_SEED), jobdir, traced=False)
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        if job.problems:
            print(f"{workload}: not recorded: {job.problems}", file=sys.stderr)
            return 1
        recorded["workloads"][workload] = job.digests
    run.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {run.DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="also report per-layer metrics")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (run.SRC / "adamftrl" / "__init__.py").is_file():
        print(f"no adamftrl sources under {run.SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()

    seconds = run.default_seconds() if args.seconds is None else args.seconds
    all_correct = True
    for workload in args.workload:
        for trace in (False, True) if args.trace else (False,):
            result = run.measure(workload, args.seed, seconds, trace)
            all_correct &= result.correct
            print(f"{workload} ({'traced' if trace else 'untraced'}, "
                  f"{result.jobs} timed jobs) {json.dumps(result.record, sort_keys=True)}")
            for problem in result.problems:
                print(f"  FAILED {problem}")
            metrics = dict(result.metrics)
            if not trace:
                metrics["failed_frac"] = result.failed / result.attempted
            run.print_metrics(metrics, prefix="  ")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
