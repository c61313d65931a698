"""The library's records: NamedTuples, and two slotted classes for the mutable learner state.

``dataclasses`` builds each class's methods with ``exec`` at every process start; a
``NamedTuple`` or a class with ``__slots__`` does no such work.  The validated records check
their fields in ``__new__``, with the messages they have always had.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import adamftrl.learner as learner
import adamftrl.regret as regret
from adamftrl import (
    AlphaSchedule,
    FixedSequence,
    GeometricSequence,
    HyperParams,
    NonObliviousPair,
    RandomUniform,
)
from adamftrl.regret import drive_batch
from conftest import trace_columns

SRC = Path(__file__).parents[1] / "src" / "adamftrl"


def test_the_package_neither_imports_nor_applies_dataclass():
    # an AST scan, so a later module that reaches for @dataclass fails here, not in a benchmark
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "dataclasses" for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path
            elif isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    assert name != "dataclass", f"{path}: {node.name}"


CONSTANT = AlphaSchedule.constant(0.5)


@pytest.mark.parametrize("record,args,message", [
    (HyperParams, (0.0, 0.5, CONSTANT), "beta1 must be in (0, 1), got 0.0"),
    (HyperParams, (1.0, 0.5, CONSTANT), "beta1 must be in (0, 1), got 1.0"),
    (HyperParams, (math.nan, 0.5, CONSTANT), "beta1 must be in (0, 1), got nan"),
    (HyperParams, (0.5, 0.0, CONSTANT), "beta2 must be in (0, 1), got 0.0"),
    (HyperParams, (0.5, 1.5, CONSTANT), "beta2 must be in (0, 1), got 1.5"),
    (HyperParams, (1.5, 1.5, CONSTANT), "beta1 must be in (0, 1), got 1.5"),
    (HyperParams, (0.5, 0.5, CONSTANT, 0.0), "domain half-width must be positive, got 0.0"),
    (HyperParams, (0.5, 0.5, CONSTANT, math.nan), "domain half-width must be positive, got nan"),
    (HyperParams, (1.5, 0.5, CONSTANT, -1.0), "beta1 must be in (0, 1), got 1.5"),
    (FixedSequence, ((),), "need at least the seed gradient"),
    (FixedSequence, ([],), "need at least the seed gradient"),
    (FixedSequence, ((0.0, 1.0),), "seed gradient must be nonzero"),
    (FixedSequence, ((1.0, math.inf),), "gradients must be finite"),
    (FixedSequence, ((1.0, math.nan),), "gradients must be finite"),
    (FixedSequence, ((0.0, math.nan),), "seed gradient must be nonzero"),
    (RandomUniform, (0, "normal"), "unknown distribution 'normal'"),
    (RandomUniform, (-1,), "need seed >= 0, got -1"),
    (RandomUniform, (-1, "normal"), "unknown distribution 'normal'"),
    (GeometricSequence, (0.0, 2.0), "need v0 > 0, got 0.0"),
    (GeometricSequence, (math.nan, 2.0), "need v0 > 0, got nan"),
    (GeometricSequence, (1.0, 1.0), "need kappa > 1, got 1.0"),
    (GeometricSequence, (-1.0, 0.5), "need v0 > 0, got -1.0"),
    (NonObliviousPair, (0.0, 0.5, 1.0), "need a, b in (0, 1), got a=0.0, b=0.5"),
    (NonObliviousPair, (0.5, 1.0, 1.0), "need a, b in (0, 1), got a=0.5, b=1.0"),
    (NonObliviousPair, (0.2, 0.5, 0.0), "need v > 0, got 0.0"),
    (NonObliviousPair, (0.2, 0.5, math.inf), "need a finite v, got inf"),
    (NonObliviousPair, (0.2, 0.5, math.nan), "need v > 0, got nan"),
    (NonObliviousPair, (1.5, 0.5, -1.0), "need a, b in (0, 1), got a=1.5, b=0.5"),
])
def test_validated_records_reject_bad_fields_with_their_messages(record, args, message):
    # the checks of the former __post_init__, in the same order: the first bad field is named
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record(*args)


def test_validated_records_keep_their_fields_and_derived_values():
    params = HyperParams(beta1=0.5, beta2=0.25, alpha=CONSTANT)
    assert (params.D, params.p) == (None, 1.0)
    assert params == HyperParams(0.5, 0.25, CONSTANT, None)
    assert FixedSequence([2.0, 1.0]).gradients == (2.0, 1.0)
    assert RandomUniform(seed=3)._asdict() == {"seed": 3, "distribution": "uniform"}
    assert NonObliviousPair(0.2, 0.5, 1.0).separation_expected


def test_equal_schedules_share_one_alpha_per_round_in_a_batch(monkeypatch):
    # three learners, each with its own but equal schedule: drive_batch numbers the schedules by
    # value, so it asks for alpha_t once per round, not once per round and learner
    calls, original = [], regret.alpha_at

    def counting(schedule, t):
        calls.append(t)
        return original(schedule, t)

    monkeypatch.setattr(regret, "alpha_at", counting)
    schedules = [AlphaSchedule.exponential_decay(0.5, 1.0) for _ in range(3)]
    assert schedules[0] == schedules[1] == schedules[2]
    assert schedules[0] is not schedules[1]
    params = [HyperParams(beta1, 0.25, schedule, 1.0)
              for beta1, schedule in zip((0.3, 0.4, 0.5), schedules)]
    T = 300
    drive_batch([1.0] + [0.5] * T, params, 0.0)
    assert calls == list(range(1, T + 1))


def test_a_constant_schedule_makes_no_alpha_call_in_either_driver(monkeypatch):
    # a constant schedule's alpha_t never changes, so both drivers fill their alpha column with
    # it and call alpha_at for no round; every column stays that of each learner's own drive
    params = [HyperParams(beta1, 0.25, AlphaSchedule.constant(0.5), 0.3) for beta1 in (0.3, 0.5)]
    T = 300
    gradients = [1.0] + [0.5, -0.25, 2.0] * (T // 3)
    own = [list(zip(*regret.drive(gradients, p, 0.5))) for p in params]
    calls, original = [], regret.alpha_at

    def counting(schedule, t):
        calls.append(t)
        return original(schedule, t)

    for module in (regret, learner):
        monkeypatch.setattr(module, "alpha_at", counting)
    deltas, clipped = np.empty((T, 2)), np.empty((T, 2), dtype=bool)
    state = drive_batch(gradients, params, 0.5, trace=(deltas, clipped))
    traces = [regret.drive_trace(gradients, p, 0.5) for p in params]
    assert calls == []
    for j, (t, alpha, *rest, _, q) in enumerate(own):
        assert set(alpha) == {0.5}
        assert any(clipped[:, j]) and not all(clipped[:, j])
        assert list(map(repr, deltas[:, j].tolist())) == list(map(repr, rest[3]))
        assert clipped[:, j].tolist() == list(rest[4])
        assert (repr(float(state.r_disc[j])), repr(float(state.q[j]))) == (repr(rest[5][-1]),
                                                                           repr(q[-1]))
        trace, stop = traces[j]
        assert stop is None
        for column, values in zip(trace_columns(trace, 64), [alpha, [gradients[i] for i in t],
                                                             *rest, q], strict=True):
            assert list(map(repr, column.tolist())) == list(map(repr, values))
