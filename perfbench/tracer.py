"""Call-site tracer: wraps the package's public functions to attribute time and counts.

Every name in the package's modules that refers to a traced function is
replaced by one wrapper, so a function imported into several modules
(``alpha_at`` is called from ``learner``, ``bounds``, ``regret`` and
``harness``) is counted at every call site.  A wrapper records its calls,
its self time (its duration minus that of the traced calls it made) and,
for functions that run once per experiment or sweep point, each call's
duration for percentiles.  Some wrappers also count what the call produced:
CSV rows and bytes, bytes written, trace rows built inside a sweep, and sweep
points run.

Nothing in the package changes: the wrappers are installed in the child
process only, after ``import adamftrl``.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = ("cli", "harness", "learner", "regret", "bounds", "adversaries")

# (metric name, module, class or None, attribute, keep per-call durations)
TRACED = (
    ("cli.main", "cli", None, "main", False),
    ("harness.from_dict", "harness", "ExperimentConfig", "from_dict", False),
    ("harness.validate", "harness", "ExperimentConfig", "validate", True),
    ("harness.run_experiment", "harness", None, "run_experiment", True),
    ("harness.sweep", "harness", None, "sweep", False),
    ("harness.render_csv", "harness", None, "render_csv", False),
    ("harness.render_json", "harness", None, "render_json", False),
    ("harness.write_outputs", "harness", None, "write_outputs", False),
    ("learner.ingest_gradient", "learner", None, "ingest_gradient", False),
    ("learner.propose_update", "learner", None, "propose_update", False),
    ("learner.alpha_at", "learner", None, "alpha_at", False),
    ("learner.ftrl_eta_from_losses", "learner", None, "ftrl_eta_from_losses", False),
    ("regret.accumulate_discounted_regret", "regret", None,
     "accumulate_discounted_regret", False),
    ("bounds.theorem1", "bounds", None, "bound_theorem1_discounted", False),
    ("bounds.corollary1", "bounds", None, "bound_corollary1_discounted", False),
    ("bounds.theorem3", "bounds", None, "bound_theorem3_discounted", False),
    ("bounds.b_from_stats", "bounds", None, "bound_b_from_stats", False),
    ("bounds.b_undiscounted", "bounds", None, "bound_b_undiscounted", False),
    ("adversaries.gradient_stream", "adversaries", "RandomUniform", "gradient_stream", False),
    ("adversaries.gradient_stream", "adversaries", "FixedSequence", "gradient_stream", False),
    ("adversaries.run_tightness_experiment", "adversaries", None,
     "run_tightness_experiment", False),
    ("adversaries.run_nonoblivious_experiment", "adversaries", None,
     "run_nonoblivious_experiment", False),
    ("adversaries.verify_lemma_a1", "adversaries", None, "verify_lemma_a1", False),
    ("adversaries.verify_lemma_a2", "adversaries", None, "verify_lemma_a2", False),
)


def _count_csv(stat, text, caller):
    stat["rows"] += text.count("\n") - 1
    stat["bytes"] += len(text.encode("utf-8"))


def _count_written(stat, paths, caller):
    stat["bytes"] += sum(path.stat().st_size for path in paths)


def _count_built(stat, result, caller):
    if caller == "harness.sweep":
        stat["rows_in_sweep"] += len(result.csv_rows)


def _count_sweep(stat, result, caller):
    stat["rows"] += len(result.csv_rows)
    stat["points_ok"] += result.summary["points_ok"]
    stat["points_total"] += result.summary["points_total"]


MEASURES = {
    "harness.render_csv": _count_csv,
    "harness.write_outputs": _count_written,
    "harness.run_experiment": _count_built,
    "harness.sweep": _count_sweep,
}


class Tracer:
    """Per-function counters; install once, read with :meth:`summary`."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_ns = [0]   # per open traced call: time of traced calls it made
        self._callers = [None]

    def _wrap(self, name, fn, keep_samples):
        stat = self.stats.setdefault(
            name, {"calls": 0, "self_ns": 0, "samples_ns": array("q"),
                   "rows": 0, "bytes": 0, "rows_in_sweep": 0,
                   "points_ok": 0, "points_total": 0})
        measure = MEASURES.get(name)
        child_ns, callers = self._child_ns, self._callers
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            callers.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callers.pop()
                stat["calls"] += 1
                stat["self_ns"] += elapsed - child_ns.pop()
                child_ns[-1] += elapsed
                if keep_samples:
                    stat["samples_ns"].append(elapsed)
            if measure is not None:
                # counting is tracer work: charge it to no layer
                begin = clock()
                measure(stat, result, callers[-1])
                child_ns[-1] += clock() - begin
            return result

        return traced

    def install(self, package: str = "adamftrl") -> None:
        modules = [importlib.import_module(f"{package}.{name}") for name in MODULES]
        modules.append(importlib.import_module(package))
        by_name = dict(zip(MODULES, modules))
        for name, module, owner, attr, keep_samples in TRACED:
            if owner is not None:
                cls = getattr(by_name[module], owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, keep_samples)))
                else:
                    setattr(cls, attr, self._wrap(name, raw, keep_samples))
                continue
            original = getattr(by_name[module], attr)
            wrapper = self._wrap(name, original, keep_samples)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        return {name: dict(stat, samples_ns=list(stat["samples_ns"]))
                for name, stat in self.stats.items()}
