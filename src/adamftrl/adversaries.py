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

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .bounds import bound_b_from_radical
from .errors import ContractViolation, OracleHorizonError, RegimeError
from .learner import (
    DEFAULT_ORACLE_HORIZON,
    REGIME_TOL,
    AlphaSchedule,
    HyperParams,
    clip_to_domain,
    ftrl_eta,
    loss_squares,
    pow_or_inf,
    root_of_sum,
)
from .regret import drive_batch


def geometric_losses(v0: float, kappa: float, T: int) -> list[float]:
    """The sequence ``(v0, kappa v0, ..., kappa^T v0)``."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    return [v0 * kappa**t for t in range(T + 1)]


# ---------------------------------------------------------------------------
# Adversary descriptions
# ---------------------------------------------------------------------------

# Each description is a NamedTuple that checks its fields in ``__new__``; ``_replace`` and
# ``_make`` skip the checks, so a description is only ever built by its constructor.

class CheckedGradients(tuple):
    """Gradients a :class:`FixedSequence` has checked, which another accepts without a rescan."""


class _FixedSequenceFields(NamedTuple):
    gradients: tuple[float, ...]


class FixedSequence(_FixedSequenceFields):
    """A verbatim gradient list, seed gradient included at index 0."""

    __slots__ = ()

    def __new__(cls, gradients):
        if not isinstance(gradients, CheckedGradients):
            if not gradients:
                raise ValueError("need at least the seed gradient")
            if gradients[0] == 0.0:
                raise ValueError("seed gradient must be nonzero")
            if any(not math.isfinite(g) for g in gradients):
                raise ValueError("gradients must be finite")
            gradients = CheckedGradients(gradients)
        return super().__new__(cls, gradients)

    def gradient_stream(self, T: int) -> list[float]:
        if T + 1 > len(self.gradients):
            raise ValueError(f"T={T} needs {T + 1} gradients, got {len(self.gradients)}")
        return list(self.gradients[: T + 1])

    def gradient_array(self, T: int) -> np.ndarray:
        return np.array(self.gradient_stream(T), dtype=np.float64)


# numpy's PCG64 (a 128-bit LCG with XSL-RR output, O'Neill 2014) seeded by its SeedSequence,
# reproduced bit for bit: importing numpy.random costs a run about 20 ms and 6 MB.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_BLOCK = 1024   # the most states stepped one at a time; later blocks jump ahead
_PCG_GROUP = 8      # _PCG_GROUP * _PCG_BLOCK draws are computed at once


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
        # L = about sqrt(n) states, a power of two in [16, _PCG_BLOCK], are stepped one at a time
        L = min(_PCG_BLOCK, max(16, 1 << (n.bit_length() + 1) // 2))
        states, s = [], self.state
        for _ in range(min(n, L)):
            s = (s * _PCG_MULT + self.inc) & _M128
            states.append(s.to_bytes(16, "little"))
        lo, hi = np.frombuffer(b"".join(states), "<u8").reshape(-1, 2).T
        # block j is the first block jumped j L steps, s_{k+jL} = J_j s_k + C_j mod 2^128, on
        # uint64 limbs that wrap on purpose: J_j.lo * s.lo in full from 32-bit halves, plus the
        # cross terms mod 2^64 and C_j with its carry (J_0 = 1, C_0 = 0).  A group of draws at
        # a time goes into ``out``, so the temporaries stay O(group).
        jumps, a, b, jump = [], 1, 0, pow(_PCG_MULT, L, 1 << 128)
        c = (s - jump * self.state) & _M128
        for _ in range(-(-n // L)):
            jumps.append((a & _M64, a >> 64, b & _M64, b >> 64))
            a, b = a * jump & _M128, (b * jump + c) & _M128
        jumps, out = np.array(jumps, np.uint64).reshape(-1, 4, 1), np.empty(n)
        group = _PCG_GROUP * _PCG_BLOCK
        for start in range(0, n, group):
            j_lo, j_hi, c_lo, c_hi = jumps[start // L:][:group // L].transpose(1, 0, 2)
            with np.errstate(over="ignore"):
                s0, s1, j0, j1 = lo & _M32, lo >> 32, j_lo & _M32, j_lo >> 32
                p01, p10 = j0 * s1, j1 * s0
                mid = (j0 * s0 >> 32) + (p01 & _M32) + (p10 & _M32)
                jhi = (j1 * s1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
                       + j_hi * lo + j_lo * hi + c_hi)
                jlo = j_lo * lo + c_lo
                jhi += jlo < c_lo
            x_lo, x_hi = jlo.ravel()[:n - start], jhi.ravel()[:n - start]
            rot = x_hi >> 58   # XSL-RR, then the top 53 bits as a double in [0, 1)
            x = x_hi ^ x_lo
            x = (x >> rot) | (x << ((64 - rot) & 63))
            out[start:start + len(x)] = -1.0 + 2.0 * ((x >> 11).astype(np.float64) * 2.0**-53)
        self.state = int(x_hi[-1]) << 64 | int(x_lo[-1])
        return out


class _RandomUniformFields(NamedTuple):
    seed: int
    distribution: str


class RandomUniform(_RandomUniformFields):
    """Seeded uniform draws on [-1, 1): numpy's ``Generator(PCG64(seed)).uniform`` stream."""

    __slots__ = ()

    def __new__(cls, seed: int, distribution: str = "uniform"):
        if distribution != "uniform":
            raise ValueError(f"unknown distribution {distribution!r}")
        if seed < 0:
            raise ValueError(f"need seed >= 0, got {seed}")
        return super().__new__(cls, seed, distribution)

    def gradient_array(self, T: int) -> np.ndarray:   # gradient_stream's, without its list
        rng = _Pcg64(self.seed)
        g = rng.uniform(T + 1)
        while g[0] == 0.0:  # vanishingly unlikely, but the seed must be nonzero
            g[0] = rng.uniform(1)[0]
        return g

    def gradient_stream(self, T: int) -> list[float]:
        return self.gradient_array(T).tolist()


class _GeometricSequenceFields(NamedTuple):
    v0: float
    kappa: float


class GeometricSequence(_GeometricSequenceFields):
    """A growing geometric loss sequence; the worst-case construction input.

    ``kappa > 1`` is required here; the tightness run further demands
    ``kappa >= 1/ratio^2``.
    """

    __slots__ = ()

    def __new__(cls, v0: float, kappa: float):
        if not (v0 > 0):
            raise ValueError(f"need v0 > 0, got {v0}")
        if not (kappa > 1.0):
            raise ValueError(f"need kappa > 1, got {kappa}")
        return super().__new__(cls, v0, kappa)

    def losses(self, T: int) -> list[float]:
        return geometric_losses(self.v0, self.kappa, T)


class _NonObliviousPairFields(NamedTuple):
    a: float
    b: float
    v: float


class NonObliviousPair(_NonObliviousPairFields):
    """Rates for the paired-instance run; ``a < b^2`` is the separation regime."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, v: float):
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            raise ValueError(f"need a, b in (0, 1), got a={a}, b={b}")
        if not (0.0 < v < math.inf):
            raise ValueError(f"need {'a finite v' if v > 0 else 'v > 0'}, got {v}")
        return super().__new__(cls, a, b, v)

    @property
    def separation_expected(self) -> bool:
        return self.a < self.b * self.b


# ---------------------------------------------------------------------------
# Tightness experiment
# ---------------------------------------------------------------------------

class TightnessRound(NamedTuple):
    """One round of the tightness run: the cells of its CSV row, in ``TRACE_COLUMNS`` order and
    then ``bound_B``."""

    t: int
    alpha: float
    loss: float          # v_t
    loss_sum: float      # sum_{s<t} v_s, which the minimizer reads
    square_sum: float    # sum_{s<t} (ratio^s v_s)^2
    delta_bar: float
    delta: float
    clipped: bool
    played_loss: float   # v_t delta_t
    regret: float        # sum_{s<=t} v_s (delta_s - u)
    max_v: float         # max_{s<=t} |v_s|
    d_max: float         # max_{s<=t} |delta_s|
    bound_b: float       # B over v_0..v_t


class TightnessTotals(NamedTuple):
    """What a tightness run to some round adds up to."""

    regret: float
    lower_bound: float
    b_total: float
    ratio: float
    max_prebar: float
    any_clipped: bool
    clip_count: int   # rounds whose update clipped


class TightnessResult(NamedTuple):
    """A tightness run's totals, the fields of a :class:`TightnessTotals`, and its rows."""

    regret: float
    lower_bound: float
    b_total: float
    ratio: float
    max_prebar: float
    any_clipped: bool
    clip_count: int
    rounds: tuple[TightnessRound, ...]


_DELTA_BAR, _CLIPPED, _REGRET, _MAX_V = map(TightnessRound._fields.index,
                                            ("delta_bar", "clipped", "regret", "max_v"))


class TightnessTrace(NamedTuple):
    """A tightness run: a :class:`TightnessRound`'s cells but ``bound_b`` for each round ``1..``,
    and ``roots[n] = sqrt(sum_{s<n} (ratio^s v_s)^2)``, of which row ``t``'s ``B`` reads
    ``roots[t + 1]``.  A row reads only the losses up to it: the run to ``T`` is ``rows[:T]``."""

    rows: list
    roots: list
    ratio: float
    D: float
    kappa: float
    v0: float

    def _bound_b(self, t: int) -> float:
        """Row ``t``'s ``B``, at ``alpha = D/4`` and ``u = -D``."""
        return bound_b_from_radical(self.roots[t + 1], self.rows[t - 1][_MAX_V], self.ratio,
                                    -self.D, self.D / 4.0, self.D, t).total

    def totals(self, T: int) -> TightnessTotals:
        """The run to round ``T``'s totals, with ``B`` priced at row ``T`` only; raises if that
        ``B`` is zero or the lower bound at ``T`` overflows."""
        b_total = self._bound_b(T)
        if b_total == 0.0:
            raise RegimeError(f"tightness bound B underflows to zero at T = {T}")
        lower = self.v0 * self.D * self.kappa * (self.kappa**T - 1.0) / (2.0 * (self.kappa - 1.0))
        if not math.isfinite(lower):
            raise RegimeError(f"tightness lower bound overflows at T = {T}")
        rows = self.rows[:T]
        regret, clips = rows[-1][_REGRET], sum(row[_CLIPPED] for row in rows)
        return TightnessTotals(regret, lower, b_total, regret / b_total,
                               max(abs(row[_DELTA_BAR]) for row in rows), clips > 0, clips)

    def result(self, T: int) -> TightnessResult:
        """The run to round ``T``, with its rows and each row's ``B``."""
        totals = self.totals(T)   # B grows with t: no row t < T overflows once row T's is finite
        b_rows = [*map(self._bound_b, range(1, T)), totals.b_total]
        rounds = tuple(TightnessRound(*row, b) for row, b in zip(self.rows, b_rows))
        return TightnessResult(*totals, rounds)


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


def run_tightness_trace(ratio: float, D: float, kappa: float, v0: float,
                        T: int) -> TightnessTrace:
    """Run the FTRL recursion on ``v_t = kappa^t v0`` with ``alpha = D/4``, ``u = -D``, to round
    ``T``; the regime is the caller's to check.  Within the construction's parameter ranges the
    pre-clipping updates stay inside ``[-D/2, D/2]``, the realized regret is at least
    ``v0 D kappa (kappa^T - 1) / (2 (kappa - 1))``, and the regret-to-bound ratio stays bounded
    below by a constant."""
    alpha, u = D / 4.0, -D
    losses = geometric_losses(v0, kappa, T)
    # each square once; roots[n] = sqrt(sum_{s<n} (ratio^s v_s)^2) is eta_n's denominator and
    # row n - 1's B radical, the same fsum as the literal forms take per prefix
    squares = loss_squares(losses, ratio)
    roots = [root_of_sum(squares[:n]) for n in range(T + 2)]
    rows = []
    loss_sum = square_sum = regret = d_max = 0.0
    max_v = abs(losses[0])
    for t in range(1, T + 1):
        delta_bar = -ftrl_eta(roots[t], ratio, alpha, t) * math.fsum(losses[:t])
        delta = clip_to_domain(delta_bar, D)
        loss = losses[t]
        loss_sum += losses[t - 1]
        # a running float sum, not roots[t] (a sqrt of an fsum), whose rounding would change
        # the CSV; each square is finite once eta_t is
        square_sum += squares[t - 1]
        regret += loss * (delta - u)
        max_v, d_max = max(max_v, abs(loss)), max(d_max, abs(delta))
        rows.append((t, alpha, loss, loss_sum, square_sum, delta_bar, delta, abs(delta_bar) > D,
                     loss * delta, regret, max_v, d_max))
    return TightnessTrace(rows, roots, ratio, D, kappa, v0)


def run_tightness_experiment(ratio: float, D: float, kappa: float, v0: float,
                             T: int, horizon: int = DEFAULT_ORACLE_HORIZON) -> TightnessResult:
    """:func:`run_tightness_trace` to round ``T``, in its regime, read with its CSV rows."""
    check_tightness_regime(ratio, D, kappa, v0, T, horizon)
    return run_tightness_trace(ratio, D, kappa, v0, T).result(T)


# ---------------------------------------------------------------------------
# Non-oblivious pair experiment
# ---------------------------------------------------------------------------

class NonObliviousRound(NamedTuple):
    """One round of both instances: the cells of the non-oblivious CSV row, in order."""

    t: int
    loss_a: float
    delta_a: float
    f_a: float
    loss_aprime: float
    delta_aprime: float
    f_aprime: float
    strict: bool


class NonObliviousResult(NamedTuple):
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
    if beta1 ** 2 == 0.0:   # the ratio-1 instance's beta2, the smaller of the two
        raise RegimeError(f"shared beta1 = {beta1} is so small that beta1^2 underflows to zero")
    return beta1


def warn_unless_separated(a: float, b: float) -> None:
    """Warn, at the caller's caller, that ``a >= b^2`` does not guarantee strict per-round
    dominance."""
    if a >= b * b:
        warnings.warn(
            f"a = {a} >= b^2 = {b * b}: strict per-round dominance is not guaranteed",
            stacklevel=3,
        )


class PairTotals(NamedTuple):
    """What a pair's run to some round adds up to: the fields of a :class:`NonObliviousResult`
    but its rows."""

    regret_a: float
    regret_aprime: float
    per_round_strict: bool
    any_clipped: bool


class PairTrace(NamedTuple):
    """Both instances of one pair, run to some round: each instance's losses, updates and round
    regrets ``loss (delta - u)`` as float64 columns over rounds ``1..``, and the first round at
    which either clipped (past the last round if none)."""

    cells: tuple   # loss_a, delta_a, f_a, loss_aprime, delta_aprime, f_aprime
    first_clip: int

    def totals(self, T: int) -> PairTotals:
        """The totals of the pair's run to round ``T``, the first ``T`` rounds of this one."""
        f_a, f_aprime = self.cells[2][:T], self.cells[5][:T]
        return PairTotals(math.fsum(f_a.tolist()), math.fsum(f_aprime.tolist()),
                          bool((f_a < f_aprime).all()), self.first_clip <= T)

    def result(self, T: int) -> NonObliviousResult:
        """The pair's run to round ``T``, with its rows."""
        cells = [column[:T].tolist() for column in self.cells]
        rounds = tuple(map(NonObliviousRound, range(1, T + 1), *cells,
                           map(float.__lt__, cells[2], cells[5])))
        return NonObliviousResult(*self.totals(T), rounds=rounds)


# Rounds x columns of one pair batch: each of its float64 arrays holds at most about this many
# cells, whatever the number of pairs.
_PAIR_CELLS = 1 << 14


def run_nonoblivious_pairs(pairs, v: float, ratio: float, beta1: float, T: int):
    """Both instances of each pair ``(a, b)`` in ``pairs``, run to round ``T``: one
    :class:`PairTrace` per pair, in order.

    Each instance is a :class:`HyperParams` with ``D = 1``, built once per batch: a pair's
    ratio-``ratio`` instance has ``beta2 = (beta1/ratio)^2``, its ratio-1 instance
    ``beta2 = beta1^2``, and both share ``alpha = 1/K``, ``K = max(1/(1-a), 1/(1-b))``.  The
    instances of a batch of pairs are the columns of one float64 gradient matrix, run by
    :func:`regret.drive_batch` against ``u = -1``.  The powers in the losses ``rate^t v`` and
    the gradients ``beta1^t (rate^t v)`` are Python's ``**``, once per distinct rate.  A batch
    has at most ``_PAIR_CELLS / (T + 1)`` columns, so memory does not grow with the number of
    pairs.  Raises what the first failing instance's own :func:`regret.drive` raises, in pair
    order and the ratio-``ratio`` instance first; the regime is the caller's to check.
    """
    D, u = 1.0, -1.0
    rounds = range(1, T + 1)
    powers = np.fromiter((beta1**t for t in rounds), float, T)
    per_batch = max(1, _PAIR_CELLS // (2 * (T + 1)))
    beta2s = [(beta1 / inst_ratio) ** 2 for inst_ratio in (ratio, 1.0)]
    for start in range(0, len(pairs), per_batch):
        batch = pairs[start:start + per_batch]
        # each distinct rate's losses and stream, and each distinct instance, made once
        rates = {r: i for i, r in enumerate(dict.fromkeys(r for pair in batch for r in pair))}
        losses = np.array([np.fromiter((rate**t * v for t in rounds), float, T)
                           for rate in rates]).T
        streams = np.vstack((np.full(len(rates), v), powers[:, None] * losses))
        column = [rates[rate] for pair in batch for rate in pair]
        alphas = [1.0 / max(1.0 / (1.0 - a), 1.0 / (1.0 - b)) for a, b in batch]
        instances = {alpha: [HyperParams(beta1, beta2, AlphaSchedule.constant(alpha), D)
                             for beta2 in beta2s] for alpha in dict.fromkeys(alphas)}
        params = [inst for alpha in alphas for inst in instances[alpha]]
        n = len(column)
        deltas, clipped = np.empty((T, n)), np.empty((T, n), dtype=bool)
        drive_batch(streams[:, column], params, u, trace=(deltas, clipped))
        loss = losses[:, column]
        f = loss * (deltas - u)
        first_clip = np.where(clipped.any(axis=0), clipped.argmax(axis=0) + 1, T + 1)
        for i in range(0, n, 2):
            yield PairTrace(cells=(loss[:, i], deltas[:, i], f[:, i],
                                   loss[:, i + 1], deltas[:, i + 1], f[:, i + 1]),
                            first_clip=int(min(first_clip[i], first_clip[i + 1])))


def run_nonoblivious_experiment(a: float, b: float, v: float, ratio: float, T: int,
                                beta1: float | None = None,
                                horizon: int = DEFAULT_ORACLE_HORIZON) -> NonObliviousResult:
    """Compare a ratio-``ratio`` instance on ``a^t v`` with a ratio-1 instance on ``b^t v``.

    Both run on ``[-1, 1]`` with constant ``alpha = 1/K`` where
    ``K = max(1/(1-a), 1/(1-b))``, against the comparator ``u = -1``.  The
    instances are realized as momentum learners sharing the first-moment
    factor ``beta1`` (second-moment factors ``(beta1/ratio)^2`` and
    ``beta1^2`` respectively) and fed the gradients ``g_t = beta1^t * rate^t * v``:
    a batch of one pair (:func:`run_nonoblivious_pairs`).

    When ``a < b^2`` the rate-``a`` instance pays strictly less in every round
    and in total, with no clipping in either instance; ``a >= b^2`` only
    triggers a warning and the strictness flags report what happened.
    """
    beta1 = check_nonoblivious_regime(a, b, v, ratio, T, beta1, horizon)
    warn_unless_separated(a, b)
    (trace,) = run_nonoblivious_pairs([(a, b)], v, ratio, beta1, T)
    return trace.result(T)


# ---------------------------------------------------------------------------
# Grid verification of the two technical inequalities
# ---------------------------------------------------------------------------

# Points per float64 block: a fixed amount of Python work per block, and little memory.
_BLOCK = 4096


class LemmaReport(NamedTuple):
    max_value: float
    bound: float
    points_checked: int


class LemmaGrid:
    """A default grid, made block by block as tuples of float64 columns, one per coordinate, with
    the points in order."""

    def __init__(self, blocks):
        self.blocks = blocks   # () -> an iterator over the blocks

    def __iter__(self):
        """The points, as tuples of floats."""
        for block in self.blocks():
            yield from zip(*(column.tolist() for column in block))


def _blocks(points, width: int):
    """``points`` as blocks of ``width`` float64 columns, each with its points as given for
    naming a bad one (``None`` for a :class:`LemmaGrid`, whose blocks are its points)."""
    if isinstance(points, LemmaGrid):
        yield from ((block, None) for block in points.blocks())
        return
    points = iter(points)
    while given := list(itertools.islice(points, _BLOCK)):
        if any(np.shape(point) != (width,) for point in given):   # ragged points too
            raise ValueError(f"each point needs {width} coordinates")
        yield np.array(given, dtype=float).T, given


def _first(mask) -> int:
    """Index of the first ``True`` in ``mask``, or its length if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _pow(base: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``base ** exp`` per entry by Python's float ``pow``.  ``np.power`` may round otherwise: with
    numpy 2.4 on an AVX-512 Xeon, its ``y^-t`` differs by one ulp on 1,003 of the 19,950 points
    of the default a1 grid, so a maximum it set would not be the per-point one."""
    return np.fromiter(map(pow, base.tolist(), exp.tolist()), float, len(base))


def _one_minus_pow(base: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``1 - base ** exp`` per entry, bit for bit as with Python's ``pow``, which runs only where
    its last bit can reach the result.  Where ``np.power`` is below ``2**-60``, the true power
    is below ``2**-54`` (``np.power`` is off by a few ulps, not a factor of 64), and so is
    ``pow``'s; for any ``0 <= P <= 2**-54``, ``1 - P`` rounds to nearest (ties to even) to
    exactly 1.0, whichever power is taken.  The test is ``~(power < 2**-60)``, so that a NaN
    takes :func:`_pow`.  On the default a1 grid, 12,048 of the 39,900 powers take it."""
    power = np.power(base, exp)
    exact = ~(power < 2.0**-60)
    power[exact] = _pow(base[exact], exp[exact])
    return 1.0 - power


def _lemma_a1_faults(x, y, t):
    """Per point: outside the domain, and singular (``x y <= 1``, as at the corner x = y = 1)."""
    outside = (x <= 0.0) | (x > 1.0) | (y < (1.0 - REGIME_TOL) / (x * x)) | (t < 1) | (
        t != np.trunc(t))
    return outside, x * y <= 1.0


def _lemma_a1_values(x, y, t):
    # x^t (y^t - 1) / sqrt((x^2 y^2)^t - 1), rewritten with (xy)^(-t) factored
    # out so huge y^t never overflows: (1 - y^-t) / sqrt(1 - (xy)^(-2t)).
    return _one_minus_pow(y, -t) / np.sqrt(_one_minus_pow(x * y, -2.0 * t))


def _lemma_a2_faults(x, y):
    """Per point: outside the domain; nothing is singular."""
    return (x <= 0.0) | (x > 0.6) | (y < (1.0 - REGIME_TOL) / (x * x)), False


def _lemma_a2_values(x, y):
    return np.sqrt(x * x * y * y - 1.0) / (x * (y - 1.0))


def _verify_on_grid(points, width: int, faults, values, bound: float, slack: float,
                    name: str) -> LemmaReport:
    """Check ``value <= bound + slack`` at every point, a float64 block at a time: the one grid
    loop of both lemmas.

    Raises what a loop over the points would at the first bad one: :class:`ValueError` for a
    point outside the domain (as is any point with a coordinate that is not finite) or at a
    singularity, :class:`ContractViolation` for a failing one.  No points is a ``ValueError``.
    ``numpy``'s ``- * / sqrt`` round as Python's float operations do, so each value is the
    per-point one bit for bit.
    """
    best, count = -math.inf, 0
    for block, given in _blocks(points, width):
        with np.errstate(all="ignore"):   # as Python floats: overflow to inf, silently
            outside, singular = faults(*block)
            for column in block:
                outside |= ~np.isfinite(column)
            n = _first(outside | singular)
            vals = values(*(column[:n] for column in block))
        i = min(_first(vals > bound + slack), n)
        if i < len(outside):
            point = tuple([float(column[i]) for column in block] if given is None else given[i])
            if i < n:
                raise ContractViolation(f"{name} inequality fails at {point}: "
                                        f"{float(vals[i])} > {bound:g} + {slack}")
            if outside[i]:
                raise ValueError(f"point outside the inequality's domain: {point}")
            raise ValueError(f"expression is singular at {point} (x*y <= 1)")
        best = max(best, float(vals.max()))
        count += n
    if not count:
        raise ValueError(f"no points to check the {name} inequality at")
    return LemmaReport(max_value=best, bound=bound, points_checked=count)


def verify_lemma_a1(points, slack: float = 1e-12) -> LemmaReport:
    """Check ``x^t (y^t - 1) / sqrt((x^2 y^2)^t - 1) <= 1`` on a grid of ``(x, y, t)`` points.

    Domain: finite ``x in (0, 1]``, ``y >= 1/x^2``, integer ``t >= 1``; the corner
    ``x = y = 1`` makes the expression 0/0 and is rejected.
    """
    return _verify_on_grid(points, 3, _lemma_a1_faults, _lemma_a1_values, 1.0, slack, "ratio")


def verify_lemma_a2(points, slack: float = 1e-12) -> LemmaReport:
    """Check ``sqrt(x^2 y^2 - 1) / (x (y - 1)) <= 2`` on a grid of ``(x, y)`` points.

    Domain: finite ``x in (0, 0.6]``, ``y >= 1/x^2``.
    """
    return _verify_on_grid(points, 2, _lemma_a2_faults, _lemma_a2_values, 2.0, slack,
                           "coefficient")


def _lemma_grid_xy(x_max: float, x_step: float, xs_per_block: int):
    """``x = x_step .. x_max`` with ``y`` at 1, 2 and 10 times ``1/x^2``, and 1e6 once in domain,
    in order, as ``(x, y)`` columns: up to 4 points for each of ``xs_per_block`` ``x`` values."""
    n = round(x_max / x_step)
    for start in range(1, n + 1, xs_per_block):
        x = np.arange(start, min(start + xs_per_block, n + 1)) * x_step
        xx = (x * x)[:, None]
        y = np.hstack((np.array([1.0, 2.0, 10.0]) / xx, np.full_like(xx, 1e6)))
        keep = y >= 1.0 / xx   # always true but for y = 1e6
        yield np.broadcast_to(x[:, None], y.shape)[keep], y[keep]


def default_lemma_a1_grid() -> LemmaGrid:
    """In-domain (x, y, t) grid, t = 1..50: 19,950 points."""
    def blocks():
        t = np.arange(1.0, 51.0)
        for x, y in _lemma_grid_xy(1.0, 0.01, _BLOCK // 200):
            keep = x * y > 1.0   # skips the singular corner x = y = 1
            x, y = x[keep], y[keep]
            yield np.repeat(x, len(t)), np.repeat(y, len(t)), np.tile(t, len(x))
    return LemmaGrid(blocks)


def default_lemma_a2_grid() -> LemmaGrid:
    """In-domain (x, y) grid; the fine x step keeps it above 10^4 points (23,991)."""
    return LemmaGrid(lambda: _lemma_grid_xy(0.6, 0.0001, _BLOCK // 4))
