"""Literal FTRL forms and closed forms that only the tests use as referees.

The stable learner never forms the undiscounted sums; these functions do, on short horizons, to
prove that the discounted path and the oracle experiments agree with the formulas they stand for:

* ``ftrl_oracle_update`` and ``evaluate_objective``: the round-``t`` update and objective ``F_t``
  of the FTRL form, from the raw gradients (see the ``adamftrl.learner`` module doc);
* ``undiscounted_regret``: ``sum_t beta1^(-t) g_t (delta_t - u)``, which ``beta1^T`` turns into
  the discounted ledger value;
* ``per_round_ftrl_inequality``: one round of the telescoping bound behind the regret bounds;
* ``closed_form_prebar_delta`` and ``nonoblivious_per_round_regret``: the tightness run's
  pre-clipping update and a non-oblivious instance's round regret, in closed form;
* ``format_float``: a float's CSV cell, by Python's own ``'%.17g' %``, one cell at a time.

``build_parser`` is the argparse parser the command line was once read with; the CLI tests hold
``adamftrl.cli.parse_args`` to it.
"""

from __future__ import annotations

import argparse
import functools
import math
from pathlib import Path
from typing import NamedTuple

from adamftrl import __version__
from adamftrl.errors import AdamFtrlError, OracleHorizonError
from adamftrl.learner import (DEFAULT_ORACLE_HORIZON, HyperParams, alpha_at, at_most,
                              clip_to_domain, ftrl_eta, ftrl_eta_from_losses, loss_squares,
                              root_of_sum)


class NotApplicableError(AdamFtrlError):
    """A check does not apply to the given trace (e.g. clipping fired)."""


class SingularParameterError(AdamFtrlError):
    """A closed form is singular at the given parameters; simulate instead."""


def undiscounted_losses(raw_gradients, beta1: float) -> list[float]:
    """Rescaled loss coefficients ``v_s = beta1^(-s) g_s``."""
    return [g / beta1**s for s, g in enumerate(raw_gradients)]


def ftrl_update_from_losses(losses, ratio: float, a_t: float, t: int,
                            D: float | None) -> float:
    """Pre-clipping FTRL minimizer ``-eta_t * sum_{s<t} v_s``, then clipped."""
    eta = ftrl_eta_from_losses(losses, ratio, a_t, t)
    return clip_to_domain(-eta * math.fsum(losses[:t]), D)


def _check_oracle_round(raw_gradients, t: int, horizon: int) -> None:
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if t > horizon:
        raise OracleHorizonError(
            f"round {t} exceeds the oracle horizon {horizon}; use the stable path"
        )
    if len(raw_gradients) < t:
        raise ValueError(f"round {t} needs at least {t} gradients, got {len(raw_gradients)}")


def ftrl_oracle_update(raw_gradients, params: HyperParams, t: int,
                       horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Round-``t`` update computed literally from the FTRL formulas.

    Agrees with :func:`adamftrl.learner.propose_update` to high relative accuracy; exists to
    prove that agreement (the internal sums grow like ``beta1^-t``).
    """
    _check_oracle_round(raw_gradients, t, horizon)
    losses = undiscounted_losses(raw_gradients[:t], params.beta1)
    return ftrl_update_from_losses(losses, params.p, alpha_at(params.alpha, t), t, params.D)


def evaluate_objective(raw_gradients, params: HyperParams, t: int, x: float,
                       horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Regularized round-``t`` objective ``F_t(x)`` of the FTRL oracle.

    Its unconstrained minimizer is the pre-clipping update; over ``[-D, D]``
    the minimizer is the clipped update.
    """
    _check_oracle_round(raw_gradients, t, horizon)
    losses = undiscounted_losses(raw_gradients[:t], params.beta1)
    eta = ftrl_eta_from_losses(losses, params.p, alpha_at(params.alpha, t), t)
    return x * x / (2.0 * eta) + math.fsum(losses) * x


def undiscounted_regret(loss_gradients, deltas, u: float, beta1: float,
                        horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Literal ``sum_t beta1^(-t) g_t (delta_t - u)`` over rounds ``1..T``.

    ``loss_gradients[i]`` and ``deltas[i]`` belong to round ``i + 1``; the
    round-0 seed gradient is not part of any regret.  ``beta1^T`` times the
    result equals the discounted ledger value.
    """
    T = len(loss_gradients)
    if len(deltas) != T:
        raise ValueError(f"got {T} gradients but {len(deltas)} updates")
    if T > horizon:
        raise OracleHorizonError(f"{T} rounds exceed the oracle horizon {horizon}")
    return math.fsum(
        beta1 ** -(i + 1) * g * (d - u) for i, (g, d) in enumerate(zip(loss_gradients, deltas))
    )


class PerRoundInequality(NamedTuple):
    """One round of the telescoping bound: lhs vs its two majorants."""

    lhs: float
    stability_bound: float
    range_bound: float

    def holds(self) -> bool:
        return at_most(self.lhs, min(self.stability_bound, self.range_bound))


def per_round_ftrl_inequality(raw_gradients, params: HyperParams, t: int,
                              horizon: int = DEFAULT_ORACLE_HORIZON) -> PerRoundInequality:
    """Evaluate ``F_t(delta_t) - F_{t+1}(delta_{t+1}) + v_t delta_t`` and its majorants.

    The telescoped per-round term is bounded by both ``eta_t v_t^2 / 2``
    (stability of the regularized minimizer) and ``2 D_T |v_t|`` (range of the
    plays).  Only certified on traces where clipping never fires; a clipped
    trace raises :class:`NotApplicableError` because the constrained argmin
    breaks the unconstrained algebra used here.

    ``raw_gradients`` must include the seed gradient ``g_0`` and cover rounds
    ``1..T`` with ``T = len(raw_gradients) - 1``; needs ``t <= T``.
    """
    T = len(raw_gradients) - 1
    if not (1 <= t <= T):
        raise ValueError(f"need 1 <= t <= {T}, got {t}")
    if t + 1 > horizon:
        raise OracleHorizonError(f"round {t + 1} exceeds the oracle horizon {horizon}")
    losses = undiscounted_losses(raw_gradients, params.beta1)
    # each square once; eta_s reads sqrt(sum_{r<s} (p^r v_r)^2) off a prefix of them, the same
    # fsum as the literal forms take per prefix
    squares = loss_squares(losses, params.p)

    def eta(s: int) -> float:
        return ftrl_eta(root_of_sum(squares[:s]), params.p, alpha_at(params.alpha, s), s)

    def objective(s: int, eta_s: float, x: float) -> float:   # F_s(x)
        return x * x / (2.0 * eta_s) + math.fsum(losses[:s]) * x

    etas, deltas = [], []
    for s in range(1, T + 1):
        etas.append(eta(s))
        raw = -etas[-1] * math.fsum(losses[:s])
        if params.D is not None and abs(raw) > params.D:
            raise NotApplicableError(
                f"clipping fires at round {s}; the per-round inequality is not certified"
            )
        deltas.append(raw)
    d_T = max(abs(d) for d in deltas)

    eta_next = eta(t + 1)
    delta_next = -eta_next * math.fsum(losses[:t + 1])
    v_t = losses[t]
    lhs = (objective(t, etas[t - 1], deltas[t - 1]) - objective(t + 1, eta_next, delta_next)
           + v_t * deltas[t - 1])
    return PerRoundInequality(
        lhs=lhs,
        stability_bound=etas[t - 1] * v_t * v_t / 2.0,
        range_bound=2.0 * d_T * abs(v_t),
    )


def closed_form_prebar_delta(alpha: float, ratio: float, kappa: float, t: int) -> float:
    """Pre-clipping update on a geometric loss sequence, in closed form.

    delta_bar_t = -alpha ratio^(t-1) (kappa^t - 1)/(kappa - 1)
                  * sqrt((ratio^2 kappa^2 - 1) / ((ratio^2 kappa^2)^t - 1))

    Valid for any constant alpha and any ``kappa != 1`` with
    ``ratio^2 kappa^2 != 1``; at the singular parameters use the simulator.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    rk2 = (ratio * kappa) ** 2
    if kappa == 1.0 or rk2 == 1.0:
        raise SingularParameterError(
            f"closed form is singular at kappa={kappa}, (ratio*kappa)^2={rk2}"
        )
    geom = (kappa**t - 1.0) / (kappa - 1.0)
    return -alpha * ratio ** (t - 1) * geom * math.sqrt((rk2 - 1.0) / (rk2**t - 1.0))


def nonoblivious_per_round_regret(rate: float, v: float, K: float, ratio: float,
                                  t: int) -> float:
    """Closed-form round-``t`` regret of an instance against ``u = -1``.

    f(t) = v rate^t (1 - ratio^(t-1) sqrt(1 - (ratio rate)^2)
                       / (K sqrt(1 - (ratio rate)^(2t))) * (1 - rate^t)/(1 - rate))

    The ratio-1 instance is the same formula with ``ratio = 1``.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if not (0.0 < rate < 1.0):
        raise ValueError(f"need rate in (0, 1), got {rate}")
    rr = ratio * rate
    frac = (1.0 - rate**t) / (1.0 - rate)
    root = math.sqrt((1.0 - rr * rr) / (1.0 - rr ** (2 * t)))
    return v * rate**t * (1.0 - ratio ** (t - 1) * root * frac / K)


def format_float(value: float) -> str:
    """A float's CSV cell as ``'%.17g' %`` prints it: the referee of the CSV kernel, which
    prints a trace's float cells a block at a time."""
    return "%.17g" % value


@functools.cache   # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamftrl",
        description="Scalar online-learning lab: simulate, bound-check, and stress the learner.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("simulate", "run one experiment from a config file"),
        ("sweep", "run a config once per grid point"),
        ("tightness", "worst-case geometric-sequence run (two-round preset by default)"),
        ("nonoblivious", "paired-instance separation run (worked-pair preset by default)"),
        ("verify-lemmas", "check the two technical inequalities on dense grids"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--out", type=Path, help="output base path (suffixes are added)")
        if name == "verify-lemmas":   # fixed grids and a JSON report: nothing else to set
            continue
        p.add_argument("--config", type=Path, help="JSON config file (flat key set)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       help="which output files to write")
        p.add_argument("--horizon", type=int, help="override the oracle horizon")
    return parser
