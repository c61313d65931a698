"""Constructive loss sequences and the experiments built on them.

Two constructions are implemented as runnable, checkable experiments:

* a geometric sequence ``v_t = kappa^t v_0`` with ``kappa >= 1/p^2`` that
  realizes the worst case of the ``p <= 1`` regret bound (the realized regret
  stays within a constant factor of the order-level bound, with clipping
  provably never firing);
* a pair of instances fed rate-``a`` and rate-``b`` geometric sequences,
  where the instance run at ratio ``p < 1`` beats the ratio-1 instance in
  every round whenever ``a < b^2``.

Each algorithm instance receives its own fixed sequence chosen as a function
of that instance's hyperparameters; no general adaptive-adversary interface
exists.  The two technical inequalities the no-clipping argument rests on are
verified on dense grids by :func:`verify_lemma_a1` and :func:`verify_lemma_a2`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import bound_b_undiscounted
from .errors import (
    ContractViolation,
    OracleHorizonError,
    RegimeError,
    SingularParameterError,
)
from .learner import (
    DEFAULT_ORACLE_HORIZON,
    REGIME_TOL,
    AlphaSchedule,
    HyperParams,
    clip_to_domain,
    ftrl_update_from_losses,
    pow_or_inf,
)
from .regret import drive


def geometric_losses(v0: float, kappa: float, T: int) -> list[float]:
    """The sequence ``(v0, kappa v0, ..., kappa^T v0)``."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    return [v0 * kappa**t for t in range(T + 1)]


# ---------------------------------------------------------------------------
# Adversary descriptions
# ---------------------------------------------------------------------------

class CheckedGradients(tuple):
    """Gradients a :class:`FixedSequence` has checked, which another accepts without a rescan."""


@dataclass(frozen=True)
class FixedSequence:
    """A verbatim gradient list, seed gradient included at index 0."""

    gradients: tuple[float, ...]

    def __post_init__(self):
        if isinstance(self.gradients, CheckedGradients):
            return
        if not self.gradients:
            raise ValueError("need at least the seed gradient")
        if self.gradients[0] == 0.0:
            raise ValueError("seed gradient must be nonzero")
        if any(not math.isfinite(g) for g in self.gradients):
            raise ValueError("gradients must be finite")
        object.__setattr__(self, "gradients", CheckedGradients(self.gradients))

    def gradient_stream(self, T: int) -> list[float]:
        if T + 1 > len(self.gradients):
            raise ValueError(f"T={T} needs {T + 1} gradients, got {len(self.gradients)}")
        return list(self.gradients[: T + 1])


# numpy's PCG64 (a 128-bit LCG with XSL-RR output, O'Neill 2014) seeded by its SeedSequence,
# reproduced bit for bit: importing numpy.random costs a run about 20 ms and 6 MB.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_BLOCK = 1024   # states stepped one at a time; later blocks jump ahead from them
_PCG_JUMP = pow(_PCG_MULT, _PCG_BLOCK, 1 << 128)


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """The (state, increment) of ``PCG64(seed)``: ``SeedSequence(seed)`` with a pool of 4 words."""
    words = [seed >> i & _M32 for i in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []
    for i in range(8):   # generate_state(4, uint64): 8 words, read as 4 little-endian pairs
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    u = [out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6)]
    inc = (u[2] << 65 | u[3] << 1 | 1) & _M128
    return ((inc + (u[0] << 64 | u[1])) * _PCG_MULT + inc) & _M128, inc


class _Pcg64:
    """``numpy.random.Generator(PCG64(seed))``'s ``uniform(-1, 1, n)`` draws, bit for bit."""

    def __init__(self, seed: int):
        self.state, self.inc = _pcg64_seed(seed)

    def uniform(self, n: int) -> np.ndarray:
        """The next ``n >= 1`` draws, continuing the stream as numpy's next call would."""
        states, s = [], self.state
        for _ in range(min(n, _PCG_BLOCK)):
            s = (s * _PCG_MULT + self.inc) & _M128
            states.append(s.to_bytes(16, "little"))
        lo, hi = np.frombuffer(b"".join(states), "<u8").reshape(-1, 2).T
        # block j is the first block jumped j L steps, s_{k+jL} = J_j s_k + C_j mod 2^128, on
        # uint64 limbs that wrap on purpose: J_j.lo * s.lo in full from 32-bit halves, plus the
        # cross terms mod 2^64 and C_j with its carry
        jumps, a, b = [], 1, 0
        c = (s - _PCG_JUMP * self.state) & _M128
        for _ in range(1, -(-n // _PCG_BLOCK)):
            a, b = a * _PCG_JUMP & _M128, (b * _PCG_JUMP + c) & _M128
            jumps.append((a & _M64, a >> 64, b & _M64, b >> 64))
        j_lo, j_hi, c_lo, c_hi = np.array(jumps, np.uint64).reshape(-1, 4, 1).transpose(1, 0, 2)
        with np.errstate(over="ignore"):
            s0, s1, j0, j1 = lo & _M32, lo >> 32, j_lo & _M32, j_lo >> 32
            p01, p10 = j0 * s1, j1 * s0
            mid = (j0 * s0 >> 32) + (p01 & _M32) + (p10 & _M32)
            jhi = (j1 * s1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
                   + j_hi * lo + j_lo * hi + c_hi)
            jlo = j_lo * lo + c_lo
            jhi += jlo < c_lo
        lo = np.concatenate((lo, jlo.ravel()))[:n]
        hi = np.concatenate((hi, jhi.ravel()))[:n]
        self.state = int(hi[-1]) << 64 | int(lo[-1])
        rot = hi >> 58   # XSL-RR, then the top 53 bits as a double in [0, 1)
        x = hi ^ lo
        x = (x >> rot) | (x << ((64 - rot) & 63))
        return -1.0 + 2.0 * ((x >> 11).astype(np.float64) * 2.0**-53)


@dataclass(frozen=True)
class RandomUniform:
    """Seeded uniform draws on [-1, 1): numpy's ``Generator(PCG64(seed)).uniform`` stream."""

    seed: int
    distribution: str = "uniform"

    def __post_init__(self):
        if self.distribution != "uniform":
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")

    def gradient_stream(self, T: int) -> list[float]:
        rng = _Pcg64(self.seed)
        g = rng.uniform(T + 1)
        while g[0] == 0.0:  # vanishingly unlikely, but the seed must be nonzero
            g[0] = rng.uniform(1)[0]
        return g.tolist()


@dataclass(frozen=True)
class GeometricSequence:
    """A growing geometric loss sequence; the worst-case construction input.

    ``kappa > 1`` is required here; the tightness run further demands
    ``kappa >= 1/ratio^2``.
    """

    v0: float
    kappa: float

    def __post_init__(self):
        if not (self.v0 > 0):
            raise ValueError(f"need v0 > 0, got {self.v0}")
        if not (self.kappa > 1.0):
            raise ValueError(f"need kappa > 1, got {self.kappa}")

    def losses(self, T: int) -> list[float]:
        return geometric_losses(self.v0, self.kappa, T)


@dataclass(frozen=True)
class NonObliviousPair:
    """Rates for the paired-instance run; ``a < b^2`` is the separation regime."""

    a: float
    b: float
    v: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise ValueError(f"need a, b in (0, 1), got a={self.a}, b={self.b}")
        if not (self.v > 0):
            raise ValueError(f"need v > 0, got {self.v}")

    @property
    def separation_expected(self) -> bool:
        return self.a < self.b * self.b


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


# ---------------------------------------------------------------------------
# Tightness experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightnessRound:
    t: int
    loss: float
    delta_bar: float
    delta: float
    clipped: bool


@dataclass(frozen=True)
class TightnessResult:
    regret: float
    lower_bound: float
    b_total: float
    ratio: float
    max_prebar: float
    any_clipped: bool
    rounds: tuple[TightnessRound, ...]


def _check_rounds(run: str, T: int, horizon: int) -> None:
    if T < 2:
        raise RegimeError(f"{run} runs need T >= 2, got {T}")
    if T > horizon:
        raise OracleHorizonError(f"T={T} exceeds the oracle horizon {horizon}")


def check_tightness_regime(ratio: float, D: float, kappa: float, v0: float, T: int,
                           horizon: int = DEFAULT_ORACLE_HORIZON) -> None:
    """Raise unless the tightness construction applies: the one statement of its regime."""
    if not (0.4 - REGIME_TOL <= ratio <= 0.6 + REGIME_TOL):
        raise RegimeError(f"tightness runs need p in [0.4, 0.6], got {ratio}")
    if kappa < (1.0 - REGIME_TOL) / ratio**2:
        raise RegimeError(f"tightness runs need kappa >= 1/p^2, got {kappa}")
    if not (v0 > 0 and D > 0):
        raise RegimeError(f"need v0 > 0 and D > 0, got v0={v0}, D={D}")
    _check_rounds("tightness", T, horizon)
    if not math.isfinite(v0 * pow_or_inf(kappa, T)):
        raise RegimeError(f"tightness runs need v0 kappa^T finite, got kappa={kappa}, T={T}")


def run_tightness_experiment(ratio: float, D: float, kappa: float, v0: float,
                             T: int, horizon: int = DEFAULT_ORACLE_HORIZON) -> TightnessResult:
    """Run the FTRL recursion on ``v_t = kappa^t v0`` with ``alpha = D/4``, ``u = -D``.

    Within the construction's parameter ranges the pre-clipping updates stay
    inside ``[-D/2, D/2]``, the realized regret is at least
    ``v0 D kappa (kappa^T - 1) / (2 (kappa - 1))``, and the regret-to-bound
    ratio stays bounded below by a constant.
    """
    check_tightness_regime(ratio, D, kappa, v0, T, horizon)
    alpha = D / 4.0
    losses = geometric_losses(v0, kappa, T)
    u = -D
    rounds = []
    regret = 0.0
    for t in range(1, T + 1):
        delta_bar = ftrl_update_from_losses(losses, ratio, alpha, t, None)
        delta = clip_to_domain(delta_bar, D)
        clipped = abs(delta_bar) > D
        regret += losses[t] * (delta - u)
        rounds.append(TightnessRound(t, losses[t], delta_bar, delta, clipped))

    lower = v0 * D * kappa * (kappa**T - 1.0) / (2.0 * (kappa - 1.0))
    b_total = bound_b_undiscounted(losses, ratio, u, alpha, D).total
    if not math.isfinite(lower):
        raise RegimeError(f"tightness lower bound overflows at T = {T}")
    return TightnessResult(
        regret=regret,
        lower_bound=lower,
        b_total=b_total,
        ratio=regret / b_total,
        max_prebar=max(abs(r.delta_bar) for r in rounds),
        any_clipped=any(r.clipped for r in rounds),
        rounds=tuple(rounds),
    )


# ---------------------------------------------------------------------------
# Non-oblivious pair experiment
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class NonObliviousRound:
    t: int
    loss_a: float
    delta_a: float
    f_a: float
    loss_aprime: float
    delta_aprime: float
    f_aprime: float
    strict: bool


@dataclass(frozen=True)
class NonObliviousResult:
    regret_a: float
    regret_aprime: float
    per_round_strict: bool
    any_clipped: bool
    rounds: tuple[NonObliviousRound, ...]


def check_nonoblivious_regime(a: float, b: float, v: float, ratio: float, T: int,
                              beta1: float | None = None,
                              horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Raise unless the paired-instance run applies; return the shared ``beta1``.

    ``beta1`` defaults to ``ratio^2`` and must lie in ``(0, ratio)`` for both instances.
    """
    try:
        NonObliviousPair(a, b, v)
    except ValueError as exc:
        raise RegimeError(str(exc)) from None
    if not (0.0 < ratio < 1.0):
        raise RegimeError(f"nonoblivious runs need p in (0, 1), got {ratio}")
    _check_rounds("nonoblivious", T, horizon)
    if beta1 is None:
        beta1 = ratio * ratio
    if not (0.0 < beta1 < ratio):
        raise RegimeError(
            f"shared beta1 must lie in (0, ratio) so both instances are valid, got {beta1}"
        )
    return beta1


def run_nonoblivious_experiment(a: float, b: float, v: float, ratio: float, T: int,
                                beta1: float | None = None,
                                horizon: int = DEFAULT_ORACLE_HORIZON) -> NonObliviousResult:
    """Compare a ratio-``ratio`` instance on ``a^t v`` with a ratio-1 instance on ``b^t v``.

    Both run on ``[-1, 1]`` with constant ``alpha = 1/K`` where
    ``K = max(1/(1-a), 1/(1-b))``, against the comparator ``u = -1``.  The
    instances are realized as momentum learners sharing the first-moment
    factor ``beta1`` (second-moment factors ``(beta1/ratio)^2`` and
    ``beta1^2`` respectively) and fed the gradients ``g_t = beta1^t * rate^t * v``.

    When ``a < b^2`` the rate-``a`` instance pays strictly less in every round
    and in total, with no clipping in either instance; ``a >= b^2`` only
    triggers a warning and the strictness flags report what happened.
    """
    beta1 = check_nonoblivious_regime(a, b, v, ratio, T, beta1, horizon)
    if a >= b * b:
        warnings.warn(
            f"a = {a} >= b^2 = {b * b}: strict per-round dominance is not guaranteed",
            stacklevel=2,
        )

    K = max(1.0 / (1.0 - a), 1.0 / (1.0 - b))
    alpha = AlphaSchedule.constant(1.0 / K)
    D = 1.0
    u = -1.0

    def run_instance(rate: float, inst_ratio: float):
        params = HyperParams(beta1=beta1, beta2=(beta1 / inst_ratio) ** 2,
                             alpha=alpha, D=D)
        losses = [rate**t * v for t in range(1, T + 1)]
        gradients = [v] + [beta1**t * loss_t for t, loss_t in enumerate(losses, start=1)]
        return [(loss_t, delta, clipped, loss_t * (delta - u))
                for loss_t, (_, _, _, _, _, delta, clipped, *_)
                in zip(losses, drive(gradients, params, u))]

    rows_a = run_instance(a, ratio)
    rows_b = run_instance(b, 1.0)

    rounds = []
    for t, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        rounds.append(NonObliviousRound(
            t=t, loss_a=ra[0], delta_a=ra[1], f_a=ra[3],
            loss_aprime=rb[0], delta_aprime=rb[1], f_aprime=rb[3],
            strict=ra[3] < rb[3],
        ))
    return NonObliviousResult(
        regret_a=math.fsum(r.f_a for r in rounds),
        regret_aprime=math.fsum(r.f_aprime for r in rounds),
        per_round_strict=all(r.strict for r in rounds),
        any_clipped=any(ra[2] or rb[2] for ra, rb in zip(rows_a, rows_b)),
        rounds=tuple(rounds),
    )


# ---------------------------------------------------------------------------
# Grid verification of the two technical inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    max_value: float
    bound: float
    points_checked: int


def _lemma_a1_value(point) -> float:
    x, y, t = point
    if not (0.0 < x <= 1.0) or y < (1.0 - REGIME_TOL) / (x * x) or t < 1 or t != int(t):
        raise ValueError(f"point outside the inequality's domain: {(x, y, t)}")
    if x * y <= 1.0:
        raise ValueError(f"expression is singular at {(x, y, t)} (x*y <= 1)")
    # x^t (y^t - 1) / sqrt((x^2 y^2)^t - 1), rewritten with (xy)^(-t) factored
    # out so huge y^t never overflows: (1 - y^-t) / sqrt(1 - (xy)^(-2t)).
    t = int(t)
    return (1.0 - y ** (-t)) / math.sqrt(1.0 - (x * y) ** (-2 * t))


def _lemma_a2_value(point) -> float:
    x, y = point
    if not (0.0 < x <= 0.6) or y < (1.0 - REGIME_TOL) / (x * x):
        raise ValueError(f"point outside the inequality's domain: {(x, y)}")
    return math.sqrt(x * x * y * y - 1.0) / (x * (y - 1.0))


def _verify_on_grid(points, value, bound: float, slack: float, name: str) -> LemmaReport:
    """Check ``value(point) <= bound + slack`` at every point; the one grid loop of both lemmas."""
    best, count = -math.inf, 0
    for count, point in enumerate(points, start=1):
        val = value(point)
        if val > bound + slack:
            raise ContractViolation(f"{name} inequality fails at {tuple(point)}: "
                                    f"{val} > {bound:g} + {slack}")
        if val > best:
            best = val
    return LemmaReport(max_value=best, bound=bound, points_checked=count)


def verify_lemma_a1(points, slack: float = 1e-12) -> LemmaReport:
    """Check ``x^t (y^t - 1) / sqrt((x^2 y^2)^t - 1) <= 1`` on a grid.

    Domain: ``x in (0, 1]``, ``y >= 1/x^2``, integer ``t >= 1``; the corner
    ``x = y = 1`` makes the expression 0/0 and is rejected.
    """
    return _verify_on_grid(points, _lemma_a1_value, 1.0, slack, "ratio")


def verify_lemma_a2(points, slack: float = 1e-12) -> LemmaReport:
    """Check ``sqrt(x^2 y^2 - 1) / (x (y - 1)) <= 2`` on a grid.

    Domain: ``x in (0, 0.6]``, ``y >= 1/x^2``.
    """
    return _verify_on_grid(points, _lemma_a2_value, 2.0, slack, "coefficient")


def _lemma_grid_xy(x_max: float, x_step: float):
    """``x = x_step .. x_max`` with ``y`` at 1, 2 and 10 times ``1/x^2``, and 1e6 once in domain."""
    for i in range(1, round(x_max / x_step) + 1):
        x = i * x_step
        ys = [f / (x * x) for f in (1.0, 2.0, 10.0)]
        if 1e6 >= 1.0 / (x * x):
            ys.append(1e6)
        for y in ys:
            yield x, y


def default_lemma_a1_grid():
    """In-domain (x, y, t) grid, t = 1..50: ~20k points."""
    for x, y in _lemma_grid_xy(1.0, 0.01):
        if x * y > 1.0:  # skips the singular corner x = y = 1
            for t in range(1, 51):
                yield (x, y, t)


def default_lemma_a2_grid():
    """In-domain (x, y) grid; the fine x step keeps it above 10^4 points."""
    return _lemma_grid_xy(0.6, 0.0001)
