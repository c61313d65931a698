"""Benchmark runner for the adamftrl CLI.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing.  Each job is a fresh child process
(``child.py``) that runs the workload's commands through ``adamftrl.cli.main``
with BLAS/OpenMP pinned to one thread.  After one warm-up job, jobs repeat
until ``--seconds`` have passed (and at least ``MIN_JOBS`` ran); every job's
outputs pass the correctness gate below, and a run stops at the first job
that fails it.

``--trace 0`` reports the end-to-end metrics over the timed jobs, scaled to a
reference CPU speed by a probe timed between jobs (see ``end_to_end_metrics``).
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics from the traced ones (see ``tracer.py``) plus the tracing
overhead; their exact counts must repeat exactly from one traced job to the
next.  Metric names and units come from ``BENCHMARK.json``.

Correctness gate, per job: exit code 0 from the child and every command;
``contracts_ok`` (or both lemmas holding) in every JSON summary; every JSON
output parses with NaN and Infinity rejected; CSV row counts equal ``T`` or
the number of grid points, and sweeps run the expected points; outputs are
byte-identical to the first job's; and on the default seed their sha256
digests equal those in ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import MODULES
from workloads import DEFAULT_SEED, WORKLOADS, Command, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

MIN_JOBS = 3          # timed untraced jobs in a --trace 0 run
MIN_TRACE_PAIRS = 2   # untraced and traced jobs each, in a --trace 1 run
RUN_DEADLINE_S = 100  # start no job after this, so a run ends within 180 s
JOB_TIMEOUT_S = 60
PROBE_ROWS = 20_000
REFERENCE_PROBE_S = 0.075  # the probe's typical time on a 2-vCPU Xeon VM, Python 3.11

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass
class Job:
    traced: bool
    t_spawn: int = 0
    result: dict | None = None
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Running and checking one job
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _summary_problems(cmd: Command, summary: dict) -> list[str]:
    if cmd.subcommand == "verify-lemmas":
        return [f"{lemma} does not hold" for lemma in ("lemma_a1", "lemma_a2")
                if summary.get(lemma, {}).get("holds") is not True]
    problems = []
    if summary.get("contracts_ok") is not True:
        problems.append("contracts_ok is not true")
    if cmd.points_ok is not None:
        got = (summary.get("points_total"), summary.get("points_ok"))
        if got != (cmd.csv_rows, cmd.points_ok):
            problems.append(f"(points_total, points_ok) = {got}, "
                            f"expected {(cmd.csv_rows, cmd.points_ok)}")
    elif summary.get("T") != cmd.config["T"]:
        problems.append(f"T = {summary.get('T')}, expected {cmd.config['T']}")
    return problems


def check_outputs(commands: list[Command], jobdir: Path) -> tuple[list[str], dict[str, str]]:
    """Gate one job's output files; returns the problems found and each file's sha256."""
    problems, digests = [], {}
    for cmd in commands:
        for name in cmd.outputs:
            path = jobdir / name
            if not path.is_file():
                problems.append(f"{name}: missing")
                continue
            data = path.read_bytes()
            digests[name] = hashlib.sha256(data).hexdigest()
            if name.endswith(".csv"):
                rows = data.count(b"\n") - 1
                if rows != cmd.csv_rows:
                    problems.append(f"{name}: {rows} rows, expected {cmd.csv_rows}")
                continue
            try:
                summary = json.loads(data, parse_constant=_reject_constant)
            except ValueError as exc:
                problems.append(f"{name}: not strict JSON ({exc})")
                continue
            problems += [f"{name}: {p}" for p in _summary_problems(cmd, summary)]
    return problems, digests


def run_job(commands: list[Command], jobdir: Path, traced: bool) -> Job:
    """Run one child process in a fresh ``jobdir`` and gate its outputs."""
    job = Job(traced=traced)
    shutil.rmtree(jobdir, ignore_errors=True)
    jobdir.mkdir(parents=True)
    for cmd in commands:
        if cmd.config is not None:
            (jobdir / cmd.config_file).write_text(
                json.dumps(cmd.config, sort_keys=True, indent=2), encoding="utf-8")
    spec = jobdir / "spec.json"
    spec.write_text(json.dumps([cmd.argv() for cmd in commands]), encoding="utf-8")
    result_path = jobdir / "result.json"
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), spec.name, result_path.name,
            "1" if traced else "0"]
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    with open(jobdir / "stdout.txt", "wb") as out, open(jobdir / "stderr.txt", "wb") as err:
        job.t_spawn = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=jobdir, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = f"killed after {JOB_TIMEOUT_S} s"
        finally:  # also on an interrupt: leave no child running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (jobdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        job.problems.append(f"child exit code {code}: {tail.strip()}")
    if result_path.is_file():
        job.result = json.loads(result_path.read_text(encoding="utf-8"))
        job.problems += [f"{cmd.subcommand} {cmd.name} exited {rc}"
                         for cmd, rc in zip(commands, job.result["codes"]) if rc != 0]
    elif code == 0:
        job.problems.append("child wrote no result")
    problems, job.digests = check_outputs(commands, jobdir)
    job.problems += problems
    return job


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded output digests, checked on the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return recorded["workloads"][workload]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _seconds(ns: int) -> float:
    return ns / 1e9


def cpu_probe() -> float:
    """Seconds a fixed pure-Python task takes: how fast this CPU runs right now.

    The task builds rows of floats, formats them as text and files them in a
    dict, the kind of work the CLI does, so it slows down with the jobs when
    other tenants load the machine.
    """
    start = time.perf_counter()
    rows = [(i, i * 0.37, math.sqrt(i + 1.0)) for i in range(PROBE_ROWS)]
    "\n".join(",".join(format(v, ".17g") for v in row) for row in rows)
    buckets = {}
    for row in rows:
        buckets[row[0] % 997] = row
    return time.perf_counter() - start


def end_to_end_metrics(jobs: list[Job], rounds: int, probes: list[float]) -> dict[str, float]:
    """Times over the timed jobs, scaled to the reference CPU speed.

    This machine's speed drifts by up to 1.5x over minutes with other tenants'
    load, and flips between a fast and a slow state within seconds.  The probe,
    timed between jobs on the same CPU, samples that state; the run's mean job
    time over its mean probe time cancels the drift.  Means, not medians, so
    that both average over the same mix of states.  The unscaled means are
    kept as ``raw_*``; peak RSS is the median.
    """
    setup = [_seconds(job.result["t_import"] - job.t_spawn + job.result["config_ns"])
             for job in jobs]
    wall = [_seconds(job.result["t_end"] - job.t_spawn) for job in jobs]
    probe_s = statistics.fmean(probes)
    speed = REFERENCE_PROBE_S / probe_s
    raw_setup, raw_wall = statistics.fmean(setup), statistics.fmean(wall)
    return {
        "setup_s": raw_setup * speed,
        "wall_s": raw_wall * speed,
        "rounds_per_s": rounds / ((raw_wall - raw_setup) * speed),
        "peak_rss_mb": statistics.median(job.result["maxrss_kb"] / 1024.0 for job in jobs),
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "cpu_probe_ms": probe_s * 1e3,
    }


def _job_layer_metrics(trace: dict, rounds: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced job: (exact counts and ratios, times)."""
    exact, timed = {}, {}
    for name, stat in trace.items():
        exact[f"{name}.calls"] = stat["calls"]
        timed[f"{name}.self_s"] = _seconds(stat["self_ns"])
    for layer in MODULES:
        timed[f"{layer}.self_s"] = _seconds(sum(
            stat["self_ns"] for name, stat in trace.items() if name.startswith(layer + ".")))
    csv, sweep = trace["harness.render_csv"], trace["harness.sweep"]
    exact["harness.render_csv.rows"] = csv["rows"]
    exact["harness.render_csv.bytes"] = csv["bytes"]
    exact["harness.write_outputs.bytes"] = trace["harness.write_outputs"]["bytes"]
    timed["harness.render.self_s"] = _seconds(
        csv["self_ns"] + trace["harness.render_json"]["self_ns"])
    bound_calls = sum(stat["calls"] for name, stat in trace.items()
                      if name.startswith("bounds."))
    exact["bounds.evals_per_round"] = bound_calls / rounds
    exact["harness.sweep.points_ok_frac"] = (
        sweep["points_ok"] / sweep["points_total"] if sweep["points_total"] else 0.0)
    exact["harness.sweep.rows_built_per_row_emitted"] = (
        trace["harness.run_experiment"]["rows_in_sweep"] / sweep["rows"]
        if sweep["rows"] else 0.0)
    return exact, timed


def percentiles_ms(samples: list[int]) -> tuple[float, float, float]:
    """Median, tail and the tail's percentile of per-call durations.

    The tail is the highest percentile with ten samples beyond it, i.e. the
    eleventh-largest duration; with fewer than eleven samples it is the largest.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return (statistics.median(ordered) / 1e6, ordered[n - 1 - beyond] / 1e6,
            100.0 * (n - beyond) / n)


def layer_metrics(plain: list[Job], traced: list[Job], rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from a trace run, and one line per traced job whose counts differ."""
    per_job = [_job_layer_metrics(job.result["trace"], rounds) for job in traced]
    exact = per_job[0][0]
    mismatches = []
    for i, (counts, _) in enumerate(per_job[1:], start=2):
        differ = [f"{key} = {counts[key]} (first: {exact[key]})"
                  for key in exact if counts[key] != exact[key]]
        if differ:
            mismatches.append(f"traced job {i}: " + ", ".join(differ))
    metrics = dict(exact)
    for key in per_job[0][1]:
        metrics[key] = statistics.median(timed[key] for _, timed in per_job)
    for name in ("harness.validate", "harness.run_experiment"):
        samples = [s for job in traced for s in job.result["trace"][name]["samples_ns"]]
        (metrics[f"{name}.p50_ms"], metrics[f"{name}.tail_ms"],
         metrics[f"{name}.tail_pct"]) = percentiles_ms(samples)
        metrics[f"{name}.samples"] = len(samples)
    metrics["process.import_s"] = statistics.median(
        _seconds(job.result["import_ns"]) for job in plain + traced)
    wall = {kind: statistics.median(_seconds(job.result["t_end"] - job.t_spawn) for job in jobs)
            for kind, jobs in (("plain", plain), ("traced", traced))}
    metrics["trace_overhead_frac"] = wall["traced"] / wall["plain"] - 1.0
    return metrics, mismatches


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "adamftrl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(jobs: list[Job], workload: str, seed: int, trace: bool,
                   nproc: int) -> dict:
    first = next(job.result for job in jobs if job.result)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": first["python"],
        "numpy": first["numpy"],
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    record: dict
    problems: list[str]
    jobs: int


def measure(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run jobs of ``workload`` for ``seconds`` and reduce them to metrics."""
    commands = plan(workload, seed)
    rounds = sum(cmd.rounds for cmd in commands)
    expected = expected_digests(workload, seed)
    jobdir = WORK / f"{workload}-{os.getpid()}"
    jobs: list[Job] = []
    probes: list[float] = []
    # The parent and its children share one CPU, so the probe times the CPU
    # the jobs run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    start = time.monotonic()
    try:
        while True:
            timed = jobs[1:]  # the first job warms caches and is not timed
            plain = sum(not job.traced for job in timed)
            traced = len(timed) - plain
            enough = (min(plain, traced) >= MIN_TRACE_PAIRS if trace
                      else plain >= MIN_JOBS)
            elapsed = time.monotonic() - start
            if jobs:
                probes.append(cpu_probe())
            if jobs and (jobs[-1].problems or elapsed >= RUN_DEADLINE_S
                         or (enough and elapsed >= seconds)):
                break
            job = run_job(commands, jobdir, traced=trace and plain > traced)
            if expected is not None and job.digests != expected:
                job.problems.append(f"output digests differ from {DIGESTS.name}: "
                                    f"{_diff(job.digests, expected)}")
            if jobs and job.digests != jobs[0].digests:
                job.problems.append("outputs differ from the first job's: "
                                    f"{_diff(job.digests, jobs[0].digests)}")
            jobs.append(job)
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    problems = [f"job {i}: {p}" for i, job in enumerate(jobs) for p in job.problems]
    failed = sum(bool(job.problems) for job in jobs)
    timed = [job for job in jobs[1:] if job.result]
    metrics: dict[str, float] = {}
    if not failed:
        plain = [job for job in timed if not job.traced]
        if trace:
            metrics, mismatches = layer_metrics(
                plain, [job for job in timed if job.traced], rounds)
            problems += mismatches
            failed += len(mismatches)
        else:
            metrics = end_to_end_metrics(plain, rounds, probes)
    record = (machine_record(jobs, workload, seed, trace, nproc=len(cpus))
              if any(job.result for job in jobs) else {})
    return RunResult(correct=not problems, attempted=len(jobs), failed=failed,
                     metrics=metrics, record=record, problems=problems, jobs=len(timed))


def _diff(got: dict, want: dict) -> str:
    return ", ".join(sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k)))


def unit_of(name: str) -> str:
    """The unit of a computed metric, from its name."""
    for suffix, unit in (("rounds_per_s", "rounds/s"), ("_mb", "MB"), (".calls", "count"), (".rows", "count"), (".samples", "count"),
                         (".bytes", "bytes"), ("_pct", "%"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def declared_metrics(trace: bool) -> list[str]:
    """The metric names BENCHMARK.json declares for this mode, checked against ``unit_of``."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    wrong = [m["name"] for m in declared if m["unit"] != unit_of(m["name"])]
    if wrong:
        raise SystemExit(f"{BENCHMARK.name}: units disagree with unit_of for {wrong}")
    return [m["name"] for m in declared]


def default_seconds() -> float:
    return float(json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"])


def print_metrics(metrics: dict[str, float], prefix: str = "") -> None:
    for name in sorted(metrics):
        print(f"{prefix}{name:48s} {metrics[name]:>16.6g} {unit_of(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adamftrl" / "__init__.py").is_file():
        print(f"no adamftrl sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Terminated, a run still stops its child (run_job) and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = declared_metrics(bool(args.trace))
    seconds = default_seconds() if args.seconds is None else args.seconds
    run = measure(args.workload, args.seed, seconds, bool(args.trace))
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    missing = [name for name in names if name not in run.metrics]
    if run.metrics and missing:
        print(f"benchmark error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"record": run.record}, sort_keys=True))
    print_metrics(run.metrics, prefix="  ")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit_of(name)}
                    for name in names if name in run.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
