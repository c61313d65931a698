"""One benchmark job: run a workload's commands through ``adamftrl.cli.main``.

Usage: python3 child.py SRC_DIR SPEC_JSON RESULT_JSON TRACE

Runs in the job directory, which holds the generated configs.  It imports
``adamftrl`` from SRC_DIR only, runs each command of SPEC_JSON in order, and
writes RESULT_JSON with CLOCK_MONOTONIC timestamps (comparable with the
parent's), each command's exit code, its own peak RSS and, when TRACE is 1,
the tracer's per-function counters.  Exits 0 only if every command did.

Untraced, one hook is installed: ``ExperimentConfig.from_dict`` is timed so
that config load and validation count toward ``setup_s``.
"""

import time

T_START = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _time_config_loads(harness, totals: dict) -> None:
    cls = harness.ExperimentConfig
    original = cls.__dict__["from_dict"].__func__

    def from_dict(klass, raw):
        start = time.monotonic_ns()
        try:
            return original(klass, raw)
        finally:
            totals["config_ns"] += time.monotonic_ns() - start

    cls.from_dict = classmethod(from_dict)


def main() -> int:
    src, spec_path, result_path, trace = sys.argv[1:5]
    commands = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, src)
    t_before_import = time.monotonic_ns()
    import adamftrl
    from adamftrl import cli, harness
    t_import = time.monotonic_ns()
    if not Path(adamftrl.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"adamftrl was imported from {adamftrl.__file__}, not {src}", file=sys.stderr)
        return 3
    import numpy

    totals = {"config_ns": 0}
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        _time_config_loads(harness, totals)

    codes = [cli.main(argv) for argv in commands]
    t_end = time.monotonic_ns()

    result = {
        "t_start": T_START,
        "t_import": t_import,
        "import_ns": t_import - t_before_import,
        "config_ns": totals["config_ns"],
        "t_end": t_end,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "trace": tracer.summary() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
