"""Learning dynamics: the ascent update, step-size schedules, noise, runner.

The runner iterates x_{t+1} = x_t + eta_{t+1} (v(x_t) + xi_{t+1}) and records
per-step diagnostics. Step order per iteration: obtain eta, evaluate the
field, sample noise, step, then feed the schedule the post-step observations.
The shared schedules (constant, power) ignore those observations, so their
only step-size method is step_sizes(T): the whole sequence as an array,
computed once per block, which the loops read from as a list of floats.
The adaptive schedules (step_norm, grad_norm) keep per-trial state, through
the one protocol of _AdaptiveStep: fresh() gives a copy in its starting
state, floats for one trial or a (trials,) vector per entry for a lock-step
block; trial(j) copies out row j as floats, and keep(live) drops the rows
that left the block. Each adaptive schedule states only the names of its
state (_state) and their starting values (_start(horizon)), besides its
step rule: the loops call next_step after every step, whose one arithmetic
runs on the Python floats of one trial and on the (trials,) vectors of a
lock-step block alike.
Hot loops come in three bodies that execute the identical recursion, and
tests pin them against each other:

- scalar: one-dimensional games with a scalar field, on Python floats;
- unrolled 2-d: affine two-dimensional games, on Python floats;
- lock-step: every other game, and a block of _LOCKSTEP_TRIALS (24) or
  more trials of a one-dimensional game with a scalar field, stepping the
  block together as (trials, n) arrays, or flat (trials,) vectors for
  n = 1, each trial with its own noise stream. It calls the game's own
  field on the whole block, which gives each row the bits it gives that
  row alone (see Game).

The unrolled bodies run one trial at a time; measured on one-dimensional
quadratics, a lock-step block only overtakes the scalar body from about 20
trials up, so runner_body picks the body from the game and the block's
size, and run_lockstep from the size of each part it splits a block into.
run_trajectory and run_lockstep share one set-up, and all three
bodies take the same arguments. Each writes its per-step entries in its
loop, a step's state included before the step's divergence test, and the
rest of the record through _Log: begin writes step 0, end marks where the
trials that diverged stopped, and coast writes the tail of a trial whose
steps no longer change its gap. The step norms get record rows only when
the caller asks for them (step_norms); the adaptive step_norm schedule
reads them inside the loop either way.

The logged steps (step 0, the dyadic steps and every thinning-th step) are
built once per (horizon, thinning) by _log_grid, which keeps the last one
asked for, as _SharedStep.step_sizes keeps its last horizon: a read-only
array of the steps, which every record's state_steps is a view of, and the
loops' sequence of them ending in a sentinel: a tuple of ints, or
range(T + 2) for thinning 1, so that no sequence of every step is ever
built as ints. The trials of a block and the points of a sweep that share
a horizon and thinning build it once.

Coasting trials. In double precision the runs reach an exact zero gap, and
later an exact fixed point: a state the update maps to itself bit for bit.
The unrolled bodies stop taking full steps at the end of a step t when

- (a) its step norm is exactly 0.0;
- (b) the noise term of every later step is exactly +-0: no noise, or
  relative noise with the new gap exactly 0.0, whose amplitude is
  sqrt(tau_t) * sqrt(0). Absolute noise never coasts;
- (c) no old coordinate is -0.0 (-0.0 + 0.0 gives +0.0; see below);
- (d) the new state compares equal to the old one (the trial has settled;
  by (c) the bits are equal too), or the gap was 0.0 both before and
  after the step.

_Log.coast then writes the rest of the record as slices, taking each later
step to keep the gap and a step norm of 0.0: so beta holds, and the step
sizes are fixed. A shared schedule's are in the record from the start; an
adaptive one's come from its settled_steps, which gives as one array what
next_step(t, eta, g, g, 0.0) would return step by step. A settled trial's
state is fixed too. Why: every later step starts from the same bits, so it
sees the same field and gap and a noise term of +-0, which leaves a nonzero
field as it is and a zero one zero. With equal gaps and a zero step norm,
beta no longer grows and every schedule's eta is nonincreasing
(eta_monotone checks it). Rounding is monotone (IEEE 754): the increment
eta * v vanished against the state at step t, so the no larger increment
of any smaller eta vanishes too. So a settled tail adds nothing a check
or a time average could see: from settle_step on, every logged state is
the settled one, every gap the same finite g and every step norm 0.0. A
difference of two equal gaps is +0.0, and where g is 0.0 a running sum of
the gaps gains +0.0 a step, which leaves it as it is; gamegrad.metrics
stops its scans there.

At a zero gap the state may still move, shrinking through the subnormals
for about as many steps again as it took to reach the zero gap. Then only
the state map x + eta * v runs, in each body's own arithmetic: the advance
function it passes to coast takes up to _COAST_CHUNK steps per call in a
local loop, so a coasted step costs no Python call of its own. It runs
until the state stops changing (the trial settles there, at settle_step)
or the horizon, and coast logs the states at the logged steps with one
gather per chunk. The map gives the bits of the full step: a +-0 noise term
leaves a sum unchanged unless its other term is -0.0, and a state with no
-0.0 coordinate never gets one (x + y is -0.0 only when both are). Each
coasted step is checked: one whose gap or step norm is not 0.0, or that
leaves the ball, hands back, and the body takes that step in full and steps
on from there. The noise draws of the coasted steps are drawn and dropped
(_NoiseDraws.chunk), and the schedule's state is what the per-step calls
would leave, since at a zero gap and step norm they change nothing.

A lock-step block of a game with a scalar field coasts row by row: after
the same step, by the same rule, _Log.coast writes a row's tail through
the scalar body's advance, from a one-trial copy of its schedule state.
If the coast completes the record, the row leaves the block as a diverged
row does. If it hands back, the row stays and the block steps it in full:
a full step at a zero gap is the coast's state map on the same bits, so
every row's record is the one the scalar body writes for that trial (see
_run_lockstep).

Noise draws. Each trial draws its normals in chunks of _NoiseDraws.rows
steps: _CHUNK // m for each of a block of m (_CHUNK for one trial), or
_DRAW_STEPS if that is more, but never so many that the block's buffer
passes _DRAW_BYTES, and never fewer than one. Consecutive draws from one
generator concatenate bit for bit, so the chunk lengths never change the
noise. The amplitudes, sqrt(tau_t) or sqrt(sigma_t^2 / n), do not depend
on the trial: they come from one read-only table per variance schedule, n
and horizon. The unrolled bodies write their per-step entries through
memoryviews of the trial's rows, which store a float for about half what a
numpy scalar store costs.

The step-size arrays have the same bits as Python's float arithmetic step
by step. The transcendental values, log(t + 2) for step_norm and
(t + 1) ** p for power, come from tables of the libm functions that float
code calls (math.log and float.__pow__) on the same doubles, built once per
horizon (and p) and shared by every trial that reads them. The rest is +,
/, sqrt and a left-to-right running sum (np.add.accumulate), which numpy
rounds correctly elementwise, as Python's float arithmetic does. numpy's
own log and power are not used: they are not the libm functions, and on an
AVX512F machine (numpy 2.4.6) np.log(t + 2) differs from math.log in the
last bit for 111 of t < 2,000,000, first at t = 9,168.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (ConfigError, config_dict, config_float, config_int, config_kind,
                     config_numbers, config_section)
from .games import Game

Array = np.ndarray

_CHUNK = 4096

# The fewest steps a trial of a lock-step block draws per generator call, so
# that a block of m trials does not pay a call's overhead (about 0.76 us)
# every _CHUNK // m steps, and the noise buffer memory any run may take at
# most, unless one step of every trial takes more. Criterion 8a's 100-trial
# block ran about 16% faster at 512 than at 40 steps per call, and no
# faster at 2,048 (in-process medians, 2-vCPU host, CPU time); a row that
# leaves the block draws at most that many steps for nothing.
_DRAW_STEPS = 512
_DRAW_BYTES = 1 << 20

# Step sizes a coast reads as floats at a time, and the steps one call of a
# body's advance may take: a coast often ends after a few hundred steps, and
# converting 4,096 would cost a quarter of its time.
_COAST_CHUNK = 512

# Why a body's advance stopped: it took every step of its chunk, the state
# stopped changing (the trial settled), or a step failed the coast's check.
_RAN, _SETTLED, _HANDS_BACK = range(3)

# Record memory one lock-step block may hold; run_lockstep splits larger runs
# into near-equal parts.
_BLOCK_BYTES = 64 << 20

# Trials from which a block of a one-dimensional game with a scalar field
# steps in lock-step rather than one trial at a time on the scalar body.
# Median CPU ratios, lock-step over scalar, of alternating in-process runs on
# quad_1d, 4,096 steps (2-vCPU Xeon VM, one BLAS thread, 4-6 rounds): under
# step_norm and relative noise (most rows coast from step ~1,000), 1.08 at
# 16 trials, 0.96 at 20, 0.84-0.85 at 24, 0.73 at 32 and 0.59 at 48; under
# power and absolute noise, which never coasts, 1.01 at 16, 0.84 at 20,
# 0.71-0.75 at 24, 0.58 at 32 and 0.41 at 48.
_LOCKSTEP_TRIALS = 24

# Libm tables cached per process: one per horizon (and p) in use at a time.
_TABLES = 8


def _readonly(out: Array) -> Array:
    out.flags.writeable = False  # shared by every caller of the cache
    return out


def _table(values) -> Array:
    return _readonly(np.array(list(values), dtype=float))


@functools.lru_cache(maxsize=_TABLES)
def _log_table(n: int) -> Array:
    """math.log(t + 2.0) for t = 0..n-1."""
    return _table(map(math.log, map(float, range(2, n + 2))))


@functools.lru_cache(maxsize=_TABLES)
def _log_floats(n: int) -> tuple:
    """_log_table(n) as Python floats: indexing them costs a fraction of a math.log call."""
    return tuple(_log_table(n).tolist())


@functools.lru_cache(maxsize=_TABLES)
def _pow_table(n: int, p: float) -> Array:
    """(t + 1.0) ** p (float.__pow__) for t = 0..n-1."""
    return _table(map(float.__pow__, map(float, range(1, n + 1)), itertools.repeat(p)))


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

class _Schedule:
    """What every schedule writes back: its kind and the parameters _SCHEDULE_KINDS lists."""

    # Capability flags, off unless a schedule turns them on, and what reads each.
    shared = False  # one step-size sequence for all trials: _Log, _run, harness._block_payloads
    needs_exact_gradients = False  # refuses noisy feedback: DynamicsConfig
    tracks_beta = False  # its record has a beta row: _Log, _record_bytes
    reads_step_norm = False  # next_step reads the step norm: _run_lockstep

    def to_dict(self) -> dict:
        params = _SCHEDULE_KINDS[self.kind][1]
        return {"kind": self.kind, **{key: getattr(self, key) for key in params}}


class _SharedStep(_Schedule):
    """Schedules whose step sizes ignore feedback: one sequence for every trial."""

    shared = True
    _steps = None  # (horizon, step sizes, the same as floats) of the last call

    def step_sizes(self, horizon: int) -> tuple[Array, list]:
        """The step sizes of steps 0..horizon-1, as a read-only array and as floats.

        They are kept for the last horizon asked (about 40 B per step), so
        the trials of a block, which share its config's schedule, compute
        them once.
        """
        if self._steps is None or self._steps[0] != horizon:
            steps, floats = self._sizes(horizon)
            steps.flags.writeable = False
            self._steps = (horizon, steps, floats)
        return self._steps[1:]


class ConstantSchedule(_SharedStep):
    """Fixed step size eta."""

    kind = "constant"

    def __init__(self, eta: float):
        if not 0 < eta < math.inf:
            raise ConfigError("constant step size must be positive and finite")
        self.eta = float(eta)

    def _sizes(self, horizon: int) -> tuple[Array, list]:
        return np.full(horizon, self.eta), [self.eta] * horizon


class PowerSchedule(_SharedStep):
    """Polynomial decay eta_t = c / t^p for the t-th step (1-indexed), eta_1 = c."""

    kind = "power"

    def __init__(self, c: float, p: float):
        if not 0 < c < math.inf:
            raise ConfigError("power schedule scale c must be positive and finite")
        if not 0.0 <= p <= 1.0:
            raise ConfigError("power schedule exponent p must lie in [0, 1]")
        self.c = float(c)
        self.p = float(p)

    def _sizes(self, horizon: int) -> tuple[Array, list]:
        steps = self.c / _pow_table(horizon, self.p)  # element 0 is c / 1.0 = c
        return steps, steps.tolist()


class _AdaptiveStep(_Schedule):
    """Schedules that keep per-trial state: the attributes _state names, which
    _start(horizon) gives their starting values."""

    def fresh(self, trials: Optional[int] = None, *, horizon: int) -> "_AdaptiveStep":
        """A copy in its starting state: floats, or one entry per trial of a lock-step block."""
        cls, params = _SCHEDULE_KINDS[self.kind]
        sched = cls(*(getattr(self, key) for key in params))
        for name, value in zip(self._state, sched._start(horizon)):
            setattr(sched, name, value if trials is None else np.full(trials, value))
        sched._sqrt = math.sqrt if trials is None else np.sqrt
        return sched

    def trial(self, j: int) -> "_AdaptiveStep":
        """A one-trial copy, on floats, of row j of a lock-step block's state."""
        sched = copy.copy(self)
        for name in self._state:
            setattr(sched, name, float(getattr(self, name)[j]))
        sched._sqrt = math.sqrt
        return sched

    def keep(self, live) -> None:
        """Drop the state of the trials that left a lock-step block."""
        for name in self._state:
            setattr(self, name, getattr(self, name)[live])


class GradNormSchedule(_AdaptiveStep):
    """Adaptive step rule driven by exact gradient norms.

    Maintains an offset beta (multiplied by r whenever the gradient norm
    increased over the last step) plus the running sum of squared gradient
    norms; emits 1/sqrt(beta + sum). The first step uses 1/sqrt(beta1) so the
    whole sequence is nonincreasing.
    """

    kind = "grad_norm"
    needs_exact_gradients = True
    tracks_beta = True
    _state = ("beta", "grad_sq_sum")

    def __init__(self, beta1: float, r: float):
        if not 0 < beta1 < math.inf:
            raise ConfigError("beta1 must be positive and finite")
        if not 1 < r < math.inf:
            raise ConfigError("growth factor r must exceed 1 and be finite")
        self.beta1 = float(beta1)
        self.r = float(r)

    def _start(self, horizon: int) -> tuple:
        return self.beta1, 0.0

    def first_step(self) -> float:
        return 1.0 / math.sqrt(self.beta1)

    def next_step(self, t, eta, g_prev, g_next, step_sq):
        """The step size of step t + 1, after step t moved the gap from g_prev to g_next.

        Each argument and the result is a float, or a (trials,) vector for a
        lock-step block. r ** True is r and r ** False is 1.0, so beta is
        multiplied by r exactly where the gap grew.
        """
        self.beta *= self.r ** (g_next > g_prev)
        self.grad_sq_sum += g_prev
        sqrt = self._sqrt  # a plain load: CPython 3.11 does not specialize self._sqrt(...)
        return 1.0 / sqrt(self.beta + self.grad_sq_sum)

    def settled_steps(self, t, eta, g, count) -> Array:
        """What next_step returns over a coasted tail; see StepNormSchedule's.

        With equal gaps beta holds, and the running sum takes in g once per
        step, summed left to right as the per-step calls sum it.
        """
        sums = np.add.accumulate(np.concatenate(([self.grad_sq_sum], np.full(count, g))))
        self.grad_sq_sum = float(sums[-1])
        return 1.0 / np.sqrt(self.beta + sums[1:])


class StepNormSchedule(_AdaptiveStep):
    """Adaptive step rule driven by realized step norms, usable under noise.

    Accumulates eta^{-2} ||x_t - x_{t+1}||^2 and emits
    1/sqrt(beta + log(t+2) + accumulator); natural log. The first step uses
    1/sqrt(beta) so the sequence is nonincreasing.
    """

    kind = "step_norm"
    reads_step_norm = True
    _state = ("delta",)

    def __init__(self, beta: float):
        if not 0 < beta < math.inf:
            raise ConfigError("beta must be positive and finite")
        self.beta = float(beta)

    def _start(self, horizon: int) -> tuple:
        """Reads log(t + 2) for t < horizon from the shared libm table."""
        self._logs, self._log_table = _log_floats(horizon), _log_table(horizon)
        return (0.0,)

    def first_step(self) -> float:
        return 1.0 / math.sqrt(self.beta)

    def next_step(self, t, eta, g_prev, g_next, step_sq):
        """The step size of step t + 1, after step t of size eta moved x by sqrt(step_sq).

        eta, step_sq and the result are floats, or (trials,) vectors for a
        lock-step block.
        """
        self.delta += step_sq / (eta * eta)
        sqrt = self._sqrt  # a plain load: CPython 3.11 does not specialize self._sqrt(...)
        return 1.0 / sqrt(self.beta + self._logs[t] + self.delta)

    def settled_steps(self, t, eta, g, count) -> Array:
        """The step sizes of a coasted tail (see _Log.coast) as one array.

        Element k is what the k-th of the calls next_step(t + k, eta_k, g, g,
        0.0), k = 0..count-1, returns, bit for bit, where eta_0 = eta and
        eta_{k+1} is the k-th result; the schedule's state is left as those
        calls would leave it. Only the first call can change delta
        (0.0 / eta**2 is +0.0 for every later eta unless delta is NaN).
        """
        if count:
            self.delta += 0.0 / (eta * eta)
        return 1.0 / np.sqrt(self.beta + self._log_table[t:t + count] + self.delta)


Schedule = ConstantSchedule | PowerSchedule | GradNormSchedule | StepNormSchedule

# kind -> (class, its parameters in constructor order)
_SCHEDULE_KINDS = {
    "constant": (ConstantSchedule, ("eta",)),
    "power": (PowerSchedule, ("c", "p")),
    "grad_norm": (GradNormSchedule, ("beta1", "r")),
    "step_norm": (StepNormSchedule, ("beta",)),
}


def schedule_from_dict(doc: dict) -> Schedule:
    kind, (cls, params) = config_kind(config_dict(doc, "dynamics.schedule"), _SCHEDULE_KINDS,
                                      "schedule")
    config_section(doc, f"dynamics.schedule ({kind})", ("kind", *params))
    return cls(*(config_float(doc[key], f"dynamics.schedule.{key}") for key in params))


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

# variance schedule kind -> its optional parameters besides the scale c
_VARIANCE_KINDS = {"constant": (), "power": ("q",), "inv_t_log": (), "inv_loglog": ()}


@dataclass(frozen=True)
class VarianceSchedule:
    """Nonincreasing nonnegative sequence used as tau_t or sigma_t^2.

    kinds: "constant" -> c; "power" -> c/(t+1)^q; "inv_t_log" -> c/((t+1) ln(t+2));
    "inv_loglog" -> c/ln(ln(t+3)).
    """

    kind: str
    c: float
    q: float = 1.0

    def __post_init__(self):
        config_kind({"kind": self.kind}, _VARIANCE_KINDS, "variance schedule")
        if not 0 <= self.c < math.inf:
            raise ConfigError("variance scale must be finite and nonnegative")
        if self.kind == "power" and not 0 <= self.q < math.inf:
            raise ConfigError("variance decay exponent must be finite and nonnegative")

    def values(self, t0: int, count: int) -> Array:
        t = np.arange(t0, t0 + count, dtype=float)
        if self.kind == "constant":
            return np.full(count, self.c)
        if self.kind == "power":
            return self.c / (t + 1.0) ** self.q
        if self.kind == "inv_t_log":
            return self.c / ((t + 1.0) * np.log(t + 2.0))
        return self.c / np.log(np.log(t + 3.0))

    def to_dict(self) -> dict:
        extra = _VARIANCE_KINDS[self.kind]
        return {"kind": self.kind, "c": self.c, **{key: getattr(self, key) for key in extra}}

    @staticmethod
    def from_dict(doc: dict, where: str) -> "VarianceSchedule":
        kind, extra = config_kind(config_dict(doc, where), _VARIANCE_KINDS, "variance schedule")
        config_section(doc, f"{where} ({kind})", ("kind", "c"), extra)
        return VarianceSchedule(kind, config_float(doc["c"], f"{where}.c"),
                                config_float(doc.get("q", 1.0), f"{where}.q"))


class _Noise:
    """What every noise model writes back: its kind, and the variance schedule
    _NOISE_KINDS names with the shape, if it has one."""

    def to_dict(self) -> dict:
        var = _NOISE_KINDS[self.kind][1]
        if var is None:
            return {"kind": self.kind}
        return {"kind": self.kind, var: getattr(self, var).to_dict(), "shape": self.shape}


@dataclass(frozen=True)
class NoNoise(_Noise):
    kind: str = "none"


class _ShapedNoise(_Noise):
    """Noise with a variance schedule and a shape: unit draws on the sphere or Gaussian."""

    def __post_init__(self):
        if self.shape not in ("sphere", "gaussian"):
            raise ConfigError(f"unknown noise shape {self.shape!r}")


@dataclass(frozen=True)
class RelativeNoise(_ShapedNoise):
    """Zero-mean noise with second moment tau_t ||v(x_t)||^2 (exact for sphere shape)."""

    tau: VarianceSchedule
    shape: str = "sphere"
    kind: str = field(default="relative", init=False)


@dataclass(frozen=True)
class AbsoluteNoise(_ShapedNoise):
    """Zero-mean noise with second moment sigma_t^2 (exact for sphere shape)."""

    sigma_sq: VarianceSchedule
    shape: str = "sphere"
    kind: str = field(default="absolute", init=False)


NoiseModel = NoNoise | RelativeNoise | AbsoluteNoise


# kind -> (class, the key of its variance schedule)
_NOISE_KINDS = {"none": (NoNoise, None), "relative": (RelativeNoise, "tau"),
                "absolute": (AbsoluteNoise, "sigma_sq")}


def noise_from_dict(doc: dict) -> NoiseModel:
    kind, (cls, var) = config_kind(config_dict(doc, "dynamics.noise"), _NOISE_KINDS, "noise",
                                   default="none")
    if var is None:
        config_section(doc, "dynamics.noise (none)", optional=("kind",))
        return NoNoise()
    config_section(doc, f"dynamics.noise ({kind})", ("kind", var), ("shape",))
    return cls(VarianceSchedule.from_dict(doc[var], f"dynamics.noise.{var}"),
               doc.get("shape", "sphere"))


@functools.lru_cache(maxsize=_TABLES)
def _amp_table(var: VarianceSchedule, n: int, horizon: int) -> Array:
    """sqrt(var.values(t, 1) / n) for t = 0..horizon-1: the noise amplitudes.

    They do not depend on the trial, so every trial of a config reads one
    table. A slice of it has the bits of sqrt(var.values(t0, count) / n):
    each value is computed elementwise from t alone.
    """
    return _readonly(np.sqrt(var.values(0, horizon) / n))


class _NoiseDraws:
    """Chunked unit draws for a block of trials, one generator per trial.

    Each trial's normals go straight into its rows of one block buffer. A
    trial of a block of m gets ``rows`` = max(_CHUNK // m, _DRAW_STEPS)
    steps per chunk, cut to the horizon and to what keeps the buffer within
    _DRAW_BYTES, but at least one step. So one generator call takes 512
    steps, not 40, for each of a 100-trial block, and the buffer holds at
    most 1 MiB, or one step of every trial if that is more, at any m and
    n. Consecutive draws from a generator concatenate bit-exactly,
    so neither the chunk length nor the block a trial shares changes its
    noise: every step consumes exactly n normals. The sqrt-variance
    amplitudes are slices of one _amp_table.
    """

    def __init__(self, model: NoiseModel, n: int, rngs: list, horizon: int):
        self.relative = isinstance(model, RelativeNoise)
        self.sphere = model.shape == "sphere"
        var = model.tau if self.relative else model.sigma_sq
        self.amps = _amp_table(var, 1 if self.sphere else n, horizon)
        self.rngs = list(rngs)
        m = len(self.rngs)
        self.rows = max(1, min(horizon, max(_CHUNK // m, _DRAW_STEPS),
                               _DRAW_BYTES // (8 * m * n)))
        self.buf = np.empty((m, self.rows, n))
        self.drawn = 0  # the steps whose draws the generators have given

    def chunk(self, t0: int, count: int):
        """Unit draws, shape (m, count, n), and the trial-independent sqrt-variance
        amplitudes, shape (count,), for steps t0..t0+count-1 (count <= rows).

        t0 is at least the first step not yet drawn; the draws of the steps
        between, which a coasting trial did not take, are drawn and dropped,
        so step t0 gets the draws it gets when every step is taken.
        """
        m = len(self.rngs)
        while self.drawn < t0:
            skip = self.buf[:m, :min(self.rows, t0 - self.drawn)]
            for rng, out in zip(self.rngs, skip):
                rng.standard_normal(out=out)
            self.drawn += skip.shape[1]
        self.drawn += count
        z = self.buf[:m, :count]
        for rng, out in zip(self.rngs, z):
            rng.standard_normal(out=out)
        if self.sphere:
            nrm = np.sqrt(np.einsum("ijk,ijk->ij", z, z))
            nrm[nrm == 0.0] = 1.0
            z /= nrm[:, :, None]
        return z, self.amps[t0:t0 + count]

    def keep(self, live) -> None:
        """Drop the generators of the trials that left a lock-step block."""
        self.rngs = [rng for rng, k in zip(self.rngs, live) if k]


# ---------------------------------------------------------------------------
# Trajectory configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsConfig:
    """Everything the runner needs besides the game itself.

    thinning = 0 logs full states at step 0, dyadic steps and the horizon;
    thinning = k >= 1 additionally logs every k-th step. One trial's record
    must fit in _BLOCK_BYTES, which bounds the horizon.
    """

    schedule: Schedule
    horizon: int
    x0: tuple[float, ...]
    noise: NoiseModel = field(default_factory=NoNoise)
    blow_up_radius: Optional[float] = None
    thinning: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        x0 = tuple(float(v) for v in self.x0)
        if not x0:
            raise ConfigError("x0 must be nonempty")
        if not all(math.isfinite(v) for v in x0):
            raise ConfigError("x0 must be finite")
        object.__setattr__(self, "x0", x0)
        if self.blow_up_radius is not None and not 0 < self.blow_up_radius < math.inf:
            raise ConfigError("blow-up radius must be positive and finite")
        if self.thinning < 0:
            raise ConfigError("thinning must be nonnegative")
        if self.schedule.needs_exact_gradients and not isinstance(self.noise, NoNoise):
            raise ConfigError(
                "the grad_norm schedule compares exact gradient norms and cannot run "
                "with noisy feedback; use the step_norm schedule instead"
            )
        if _record_bytes(self, len(x0)) > _BLOCK_BYTES:
            raise ConfigError(f"horizon is too large: one trial's record (n = {len(x0)}, "
                              f"thinning {self.thinning}) would exceed {_BLOCK_BYTES >> 20} MiB")

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "noise": self.noise.to_dict(),
            "horizon": self.horizon,
            "x0": list(self.x0),
            "blow_up_radius": self.blow_up_radius,
            "thinning": self.thinning,
        }

    @staticmethod
    def from_dict(doc: dict) -> "DynamicsConfig":
        config_section(doc, "dynamics", ("schedule", "horizon", "x0"),
                       ("noise", "blow_up_radius", "thinning"))
        radius = doc.get("blow_up_radius")
        return DynamicsConfig(
            schedule=schedule_from_dict(doc["schedule"]),
            horizon=config_int(doc["horizon"], "dynamics.horizon"),
            x0=tuple(config_numbers(doc["x0"], "dynamics.x0")),
            noise=noise_from_dict(doc.get("noise", {"kind": "none"})),
            blow_up_radius=None if radius is None else config_float(radius, "dynamics.blow_up_radius"),
            thinning=config_int(doc.get("thinning", 0), "dynamics.thinning"),
        )


@dataclass
class TrajectoryRecord:
    """Per-step log of one trial; arrays are truncated where a run diverged."""

    game_name: str
    config: dict
    gap: Array               # ||v(x_t)||^2 for t = 0..T
    eta: Array               # step size used at each step, length T (read-only if shared)
    step_norm_sq: Optional[Array]  # ||x_{t+1} - x_t||^2, length T; None unless kept
    beta: Optional[Array]    # offset in force entering each step (grad_norm runs)
    state_steps: Array       # indices of logged states, increasing
    states: Array            # logged states, shape (len(state_steps), n)
    seed: Optional[int]
    horizon: int
    diverged: bool
    divergence_step: Optional[int]
    # First step filled with an unchanged state once the trial settled (see
    # the module docstring); None when it never settled. The checks and time
    # averages of gamegrad.metrics read the record only as far as this step;
    # it is written to no report or trajectory file.
    settle_step: Optional[int] = None

    @property
    def steps_completed(self) -> int:
        return len(self.gap) - 1

    @property
    def final_state(self) -> Array:
        return self.states[-1]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def dyadic_steps(horizon: int) -> list[int]:
    """The steps 1, 2, 4, ... up to the horizon, and the horizon itself."""
    steps = []
    p = 1
    while p <= horizon:
        steps.append(p)
        p *= 2
    if steps[-1] != horizon:
        steps.append(horizon)
    return steps


def _log_steps(horizon: int, thinning: int) -> Array:
    """Step 0, the dyadic steps and, for thinning k >= 1, every k-th step; sorted."""
    extra = np.array([0, *dyadic_steps(horizon)], dtype=np.int64)
    if thinning < 1:
        return extra
    grid = np.arange(0, horizon + 1, thinning, dtype=np.int64)
    missing = extra[extra % thinning != 0]
    return np.insert(grid, np.searchsorted(grid, missing), missing)


@functools.lru_cache(maxsize=1)
def _log_grid(horizon: int, thinning: int) -> tuple[Array, Sequence[int]]:
    """The logged steps of a run, read-only, and the stepping loops' sequence of them.

    The sequence ends in the sentinel horizon + 1, which no step reaches, so
    a loop's index into it never runs past the end. It is a tuple of ints,
    or range(horizon + 2) for thinning 1, with no ints behind it. Only the last
    (horizon, thinning) asked for is kept: the trials and the points of a
    sweep that share it build it once.
    """
    steps = _readonly(_log_steps(horizon, thinning))
    return steps, range(horizon + 2) if thinning == 1 else (*steps.tolist(), horizon + 1)


def runner_body(game: Game, trials: int = 1) -> str:
    """The body that steps a block of trials of a game: 'scalar', 'affine2' or 'lockstep'.

    The unrolled bodies run one trial at a time; a one-dimensional game with
    a scalar field steps a block of _LOCKSTEP_TRIALS or more in lock-step.
    """
    if game.n == 1 and game.scalar_field is not None:
        return "scalar" if trials < _LOCKSTEP_TRIALS else "lockstep"
    if game.n == 2 and game.affine is not None:
        return "affine2"
    return "lockstep"


class _Log:
    """The record of m trials, row i belonging to the block's i-th trial.

    It is the only writer of a trial's record outside the stepping loops:
    begin writes step 0, end marks where diverged trials stopped and coast
    writes the zero-step tail of one. For a shared schedule (constant,
    power) every eta row is a read-only view of the one array step_sizes
    gives, and ``etas`` holds its floats for the stepping loops; it is None
    for the adaptive schedules, whose loops log each step size in the
    trial's own row as they compute it. The step norms get rows only if
    ``step_norms`` (``step`` is None otherwise). The logged steps
    (``steps``, read-only) and the loops' sequence of them (``log_seq``)
    are _log_grid's, shared with every _Log of the same horizon and
    thinning.
    """

    def __init__(self, m: int, n: int, config: DynamicsConfig, schedule: Schedule,
                 step_norms: bool = True):
        T = config.horizon
        self.schedule = schedule
        self.gap = np.empty((m, T + 1))
        self.etas = None
        if schedule.shared:
            steps, self.etas = schedule.step_sizes(T)
            self.eta = np.broadcast_to(steps, (m, T))
        else:
            self.eta = np.empty((m, T))
        self.step = np.empty((m, T)) if step_norms else None
        self.beta = np.empty((m, T + 1)) if schedule.tracks_beta else None
        self.steps, self.log_seq = _log_grid(T, config.thinning)
        self.states = np.empty((m, len(self.steps), n))
        self.stop = [T] * m
        self.diverged = [False] * m
        self.settle = [None] * m

    def begin(self, g, x) -> None:
        """Step 0 of every trial: gap g (a float or one per trial), beta and state x."""
        self.gap[:, 0] = g
        if self.beta is not None:
            self.beta[:, 0] = self.schedule.beta
        self.states[:, 0] = x

    def end(self, rows, t: int) -> None:
        """Stop the trials in ``rows`` at step t, whose gap is not finite or state not in the ball.

        The bodies have written their entries up to step t, the state at a
        logged step t included. Beta at step t repeats beta at step t - 1,
        since no schedule update counts a step that left.
        """
        for i in rows:
            self.stop[i], self.diverged[i] = t, True
        if self.beta is not None:
            self.beta[rows, t] = self.beta[rows, t - 1]

    def coast(self, s: int, x, v, g: float, eta: float, still: bool, advance, log_ptr: int,
              row: int, schedule: Schedule):
        """Write steps s..T-1 of trial ``row`` without stepping them, unless one hands back.

        Step s starts from state x, a tuple of its coordinates, whose field
        is v and gap g, with step size eta; ``schedule`` holds the trial's
        own schedule state, on floats. Each step from s is taken to
        keep the gap at g and the step norm at 0.0, so beta holds and the
        step sizes are what settled_steps gives; those entries are written
        as slices. If ``still`` (step s-1 left x unchanged), the trial has
        settled and its state is filled too. Otherwise g is 0.0, and the
        body's step without noise moves the state on, one chunk of up to
        _COAST_CHUNK steps at a time: ``advance(x, v, etas)`` steps through
        the step sizes etas in a local loop and returns the states after
        its steps as one flat list, the last state and its field, the
        number of steps taken, and why it stopped: _RAN (end of chunk),
        _SETTLED (the last step left the state unchanged: the trial settles
        after it) or _HANDS_BACK (the next step's gap or step norm is not
        0.0, or it leaves the ball; that step is not taken). The logged
        steps among those taken are written with one gather per chunk. A
        step that hands back is the body's to take in full: coast returns
        (its step, x, v, eta, log_ptr) for the body to step on from. A
        lock-step row, which the block steps in full from s, reads only the
        step: its full steps rewrite the entries coast wrote, with the same
        bits. Otherwise coast returns None: the record is complete. A hand-back
        finds the schedule's state as the per-step calls leave it, whatever
        the number of steps coasted: at a zero gap and step norm they add
        +0.0 to an adaptive schedule's sums and multiply beta by 1.0, and so
        does settled_steps.
        """
        T = self.eta.shape[1]
        self.gap[row, s + 1:] = g
        if self.step is not None:
            self.step[row, s:] = 0.0
        if self.beta is not None:
            self.beta[row, s + 1:] = schedule.beta
        if not schedule.shared:
            self.eta[row, s] = eta
            self.eta[row, s + 1:] = schedule.settled_steps(s, eta, g, T - s - 1)
        t = s
        if not still:
            states, log_seq, eta_row = self.states[row], self.log_seq, self.eta[row]
            why = _RAN
            while why == _RAN and t < T:
                etas = eta_row[t:t + _COAST_CHUNK].tolist()
                flat, x, v, k, why = advance(x, v, etas)
                end = bisect.bisect_right(log_seq, t + k, log_ptr)
                if end > log_ptr:  # flat holds the states after steps t + 1..t + k
                    ys = np.array(flat).reshape(k, -1)
                    states[log_ptr:end] = ys[self.steps[log_ptr:end] - (t + 1)]
                    log_ptr = end
                t += k
                if why == _HANDS_BACK:
                    return t, x, v, etas[k], log_ptr
            if t == T:
                return None
        self.settle[row] = t
        self.states[row, log_ptr:] = x
        return None

    def record(self, i: int, game: Game, config: DynamicsConfig, seed) -> TrajectoryRecord:
        t_stop = self.stop[i]
        logged = int(np.searchsorted(self.steps, t_stop, side="right"))
        return TrajectoryRecord(
            game_name=game.name,
            config=config.to_dict(),
            gap=self.gap[i, :t_stop + 1],
            eta=self.eta[i, :t_stop],
            step_norm_sq=None if self.step is None else self.step[i, :t_stop],
            beta=None if self.beta is None else self.beta[i, :t_stop + 1],
            state_steps=self.steps[:logged],
            states=self.states[i, :logged],
            seed=seed,
            horizon=config.horizon,
            diverged=self.diverged[i],
            divergence_step=t_stop if self.diverged[i] else None,
            settle_step=self.settle[i],
        )


def _record_bytes(config: DynamicsConfig, n: int, step_norms: bool = True) -> int:
    """Bytes _Log allocates per trial: gap, states, and the step-norm (if
    step_norms), eta and beta rows it owns.

    It allocates nothing itself: the logged states are counted as _log_steps
    lays them out (the grid, then the dyadic steps off it), so any horizon
    can be checked.
    """
    T, k, schedule = config.horizon, config.thinning, config.schedule
    dyadic = dyadic_steps(T)
    logged = 1 + len(dyadic) if k < 1 else T // k + 1 + sum(s % k != 0 for s in dyadic)
    rows = T + 1 + T * step_norms + T * (not schedule.shared) + (T + 1) * schedule.tracks_beta
    return 8 * (rows + logged * n)


def trial_generator(rng: int | tuple | np.random.Generator | None) -> np.random.Generator:
    """The generator a trial draws its noise from, given what run_trajectory takes as rng.

    A Generator is itself. Otherwise it is Philox over the SeedSequence
    whose entropy rng is: an int seed, a tuple of ints (the harness passes
    (master_seed, trial)), or None, for fresh entropy from the OS. Only
    _run calls it, and only for a config that draws noise, so a noiseless
    run builds no generator and does not import numpy.random.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(rng)))


def _norm(x) -> float:
    return math.sqrt(sum(v * v for v in x))


def _default_radius(game: Game, x0: tuple) -> float:
    """1e8 * (1 + max(||x0||, ||x*||)), x* the Nash point the game's oracle gives for x0.

    Without the Nash point a run that converges to an equilibrium far from
    x0 would leave the ball. A game without an oracle, or whose oracle gives
    no finite point, uses ||x0|| alone.
    """
    scale = _norm(x0)
    if game.nash_oracle is not None:
        far = _norm(np.asarray(game.nash_oracle(np.array(x0)), dtype=float).reshape(-1).tolist())
        if far > scale and far < math.inf:
            scale = far
    return 1e8 * (1.0 + scale)


def _run(body, game: Game, config: DynamicsConfig, rngs: list,
         step_norms: bool = True) -> list[TrajectoryRecord]:
    """The set-up both entry points share: checks, generators (a noisy config's
    only), schedule state, records."""
    if len(config.x0) != game.n:
        raise ConfigError(f"x0 has length {len(config.x0)}, game dimension is {game.n}")
    m = len(rngs)
    radius = config.blow_up_radius
    if radius is None:
        radius = _default_radius(game, config.x0)
    draws = None
    if not isinstance(config.noise, NoNoise):
        draws = _NoiseDraws(config.noise, game.n, [trial_generator(rng) for rng in rngs],
                            config.horizon)
    schedule = config.schedule
    if not schedule.shared:
        schedule = schedule.fresh(None if m == 1 else m, horizon=config.horizon)
    log = _Log(m, game.n, config, schedule, step_norms)
    with np.errstate(over="ignore", invalid="ignore"):  # diverging rows overflow in numpy
        body(game, config.x0, config.horizon, schedule, draws, radius, log)
    return [log.record(i, game, config, rng if isinstance(rng, int) else None)
            for i, rng in enumerate(rngs)]


def run_trajectory(game: Game, config: DynamicsConfig,
                   rng: int | tuple | np.random.Generator | None = None, *,
                   step_norms: bool = True) -> TrajectoryRecord:
    """Run one trial of the dynamics on a game and record its trajectory.

    ``rng`` is a Generator, an int seed, a tuple of ints (SeedSequence
    entropy, as the harness's (master_seed, trial)) or None (fresh
    entropy); trial_generator turns it into the trial's generator, and
    only when the config draws noise. A noiseless run builds none and
    reads rng only for the record's ``seed``: the int seed, else None.
    Divergence (non-finite values or leaving the blow-up ball) sets a flag
    and truncates the record instead of raising, so sweeps can aggregate
    failures. A trial that coasts to its end skips the noise draws left, so
    the position of a generator passed in is unspecified after the run.
    Without ``step_norms`` the record keeps no step norms (None).
    """
    return _run(_BODIES[runner_body(game)], game, config, [rng], step_norms)[0]


def run_lockstep(game: Game, config: DynamicsConfig, rngs: list, *,
                 step_norms: bool = True) -> Iterator[TrajectoryRecord]:
    """Run one trial per entry of ``rngs`` in lock-step; yield their records in order.

    This is the body for every game without an unrolled one, and for a block
    of _LOCKSTEP_TRIALS or more trials of a game with a scalar field (see
    runner_body). It steps as many trials at once as _BLOCK_BYTES of records
    hold: a larger run is split into near-equal parts, run one after
    another, so that no part is left far smaller than the others. Each
    entry of rngs is what run_trajectory takes as rng, and becomes a
    generator the same way, only when the config draws noise. Trial i
    draws its noise from rngs[i]'s alone, and every per-row operation (the
    game's own field, called on the whole block as it is, np.vecdot,
    elementwise arithmetic) gives the same bits whatever the number of
    rows, so a trial's record does not depend on which block it ran in. A
    block of a one-dimensional game steps on flat (trials,) vectors, which
    its field maps elementwise (see Game): a gap is then a plain product.
    Each step tests the whole block for divergence with one sum (see
    _run_lockstep). On a game
    with a scalar field a block's rows coast as the scalar body's trial
    does, a row whose coast hands back staying in the block, and their
    records are the scalar body's, bit for bit (see _run_lockstep). A
    single trial runs on 1-D arrays and floats through the same code, which
    was checked bit-equal to its row of a block; it does not coast. That
    branch stays because it is its own cost regime: run as a (1, n) block,
    one trial took 1.5-2x as long (2-vCPU host, CPU time: quad_1d, 20,000
    steps, 197 -> 312 ms; a 64-d random game, 4,096 steps, 58 -> 114 ms).
    Without ``step_norms`` the records keep no step norms, and more trials
    fit in a part. A part of a split run that runner_body would give to the
    scalar body (fewer than _LOCKSTEP_TRIALS trials of a game with a scalar
    field) runs there, one trial at a time: its records have the same bits.
    """
    size = _BLOCK_BYTES // _record_bytes(config, len(config.x0), step_norms)  # >= 1
    parts = -(-len(rngs) // size)
    bounds = [len(rngs) * j // parts for j in range(parts + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        if parts > 1 and runner_body(game, hi - lo) == "scalar":
            for rng in rngs[lo:hi]:
                yield from _run(_run_scalar, game, config, [rng], step_norms)
        else:
            yield from _run(_run_lockstep, game, config, rngs[lo:hi], step_norms)


def _dot(a, b) -> float:
    return float(a @ b)


def _run_lockstep(game, x0, T, schedule, draws, radius, log):
    """Step a block of m trials together from x0.

    A block's state X is (m, n); for a one-dimensional game it is a flat
    (m,) vector, which the game's field maps elementwise (see Game), so a
    gap or squared norm is a plain product and the per-trial values need no
    column view to meet it. One trial runs on an (n,) vector. Per-trial values
    (gap, step norm, adaptive step size, noise amplitude) are (m,) vectors,
    or floats for one trial, so each line below is the same recursion as
    the unrolled bodies applied row by row.

    The divergence test of a block is one sum per step, over the rows'
    G_new + N (new gap plus squared norm). A sum at most min(r^2, the
    largest double) proves that no row left the ball; only a larger one
    builds the exact per-row mask, and a mask with no row set changes
    nothing. Why: each term is +0 or more, or NaN (squares and sums of
    squares), and at least its G_new and its N, since rounding is
    monotone; a NaN or inf term makes the sum NaN or inf. And a sum of
    nonnegative terms is at least the largest one, M. A chain of additions
    is (Python's sum up to 3.11 adds left to right). Python 3.12's sum adds
    Neumaier's compensation c, when finite, to that chain's result f >= M.
    A c >= 0 cannot take it below M. A c < 0 adds up exact error terms of
    at most half an ulp of f each, rounding them by under m^2 2^-53 ulp(f)
    in all: if f >= 2M, f + c >= f (1 - m 2^-52) >= M; otherwise f + c is
    the exact sum (at least M) less under m^2 2^-52 ulp(M), a quarter ulp
    for m < 2^25, so it rounds to M or more. _BLOCK_BYTES keeps m below
    2^21.

    On a block (m > 1) of a game with a scalar field, a row starts to coast
    by the scalar body's rule, tested after the same step and at the same
    point of it (see _coasting_rows), and _Log.coast writes its tail
    through the scalar body's advance. The rule needs a zero step norm, so
    it is tested only at a step where some row's is 0.0. A row whose coast
    hands back stays in the block and is stepped in full: those steps are
    the coast's state map on the same bits, and the step that handed back
    is the scalar body's full step. It may not coast again until it has
    taken that step, as the scalar body's trial does. So every row's record
    is the scalar body's, settle_step included.

    A row leaves the block when it leaves the ball or its coast completes
    the record (it settled or reached the horizon). Both go through one
    compaction after the step's schedule update and beta entry, which
    drops the row from every live array.

    The step vectors D and S are computed only when something reads them:
    the record's step-norm rows, the step_norm schedule, or the coast.
    """
    field, m = game.field, len(log.stop)
    flat = m == 1
    wide = not flat and game.n > 1  # rows are (n,) vectors: per-trial values widen to columns
    states = log.states
    if flat:
        X, dot, sqrt = np.array(x0, dtype=float), _dot, math.sqrt
    elif wide:
        X, dot, sqrt = np.tile(x0, (m, 1)), np.vecdot, np.sqrt
    else:
        X, dot, sqrt = np.full(m, x0[0]), np.multiply, np.sqrt
        states = states[:, :, 0]
    live = np.arange(m)
    rows = 0 if flat else slice(None)  # the log rows of the live trials
    gap, eta_log, step_log, beta_log = log.gap, log.eta, log.step, log.beta
    etas = log.etas
    log_seq = log.log_seq
    r2 = radius * radius
    bound = min(r2, sys.float_info.max)  # a sum at most this is finite
    inf = math.inf

    advance = None  # the coast's state map
    if not flat and game.scalar_field is not None and (draws is None or draws.relative):
        advance = _scalar_advance(game.scalar_field, r2)
        back_at = np.zeros(m, dtype=np.int64)  # the step each row's last coast handed back at
    needs_S = step_log is not None or schedule.reads_step_norm or advance is not None
    S = None

    V = field(X)
    G = dot(V, V)
    log.begin(G, x0)
    log_ptr = 1
    next_log = log_seq[1]

    eta_next = None  # a shared schedule's step sizes are all in etas
    if etas is None:
        eta_next, next_step = schedule.first_step(), schedule.next_step
    relative = draws is not None and draws.relative
    t = 0
    while t < T:
        count = min(draws.rows, T - t) if draws is not None else T - t
        if draws is not None:
            z, amp = draws.chunk(t, count)
            # Z[k]: the draws of step t0 + k
            Z = z[0] if flat else z.transpose(1, 0, 2) if wide else z[:, :, 0].T
            amps = amp.tolist()
        for k in range(count):
            if etas is None:
                eta = eta_next
                eta_log[rows, t] = eta
            else:
                eta = etas[t]
            step = eta[:, None] if wide and not isinstance(eta, float) else eta
            if draws is None:
                X_new = X + step * V
            else:
                a = amps[k] * sqrt(G) if relative else amps[k]
                X_new = X + step * (V + (a[:, None] if wide and relative else a) * Z[k])
            V_new = field(X_new)
            G_new = dot(V_new, V_new)
            gap[rows, t + 1] = G_new
            if needs_S:
                D = X_new - X
                S = dot(D, D)
                if step_log is not None:
                    step_log[rows, t] = S
            if t + 1 == next_log:
                states[rows, log_ptr] = X_new
                log_ptr += 1
                next_log = log_seq[log_ptr]
            N = dot(X_new, X_new)
            gone = None  # the mask of the rows that leave the block after this step
            if flat:
                if not (G_new < inf and N <= r2):
                    log.end([0], t + 1)
                    return
            elif not sum((G_new + N).tolist()) <= bound:
                left = ~((G_new < inf) & (N <= r2))
                if left.any():
                    gone = left
            if etas is None:
                eta_next = next_step(t, eta, G, G_new, S)
            if beta_log is not None:
                beta_log[rows, t + 1] = schedule.beta
            if gone is not None:
                log.end(live[gone].tolist(), t + 1)
            if advance is not None and t + 1 < T and np.count_nonzero(S) < len(S):
                gone = _coasting_rows(log, t + 1, X, X_new, V_new, G, G_new, S, live, eta_next,
                                      schedule, draws, advance, log_ptr, back_at, gone)
            if gone is not None:
                if gone.all():
                    return
                stay = ~gone
                live = rows = live[stay]
                X_new, V_new, G_new = X_new[stay], V_new[stay], G_new[stay]
                if etas is None:
                    eta_next = eta_next[stay]
                    schedule.keep(stay)
                if draws is not None:
                    draws.keep(stay)
                    Z = Z[:, stay]
                if advance is not None:
                    back_at = back_at[stay]
            X, V, G = X_new, V_new, G_new
            t += 1


def _coasting_rows(log, s, X, X_new, V_new, G, G_new, S, live, eta_next, schedule, draws,
                   advance, log_ptr, back_at, gone):
    """Start the coast of every row of a lock-step block that the scalar body would coast.

    The rule is _run_scalar's, on the row's floats, at the end of step
    s - 1: the row did not leave the ball, its step norm is 0.0, its state
    is unchanged or its gap was 0.0 before and after the step, and
    _may_coast holds. A row whose last coast handed back at step s or later
    is still taking the steps that coast covered, and is skipped. Each
    coasting row's tail is written by _Log.coast from a one-trial copy of
    its schedule state. A coast that hands back leaves the row in the block
    and notes its step in back_at; one that completes the record marks the
    row in ``gone``, the mask of the rows that leave (None if none yet),
    which is returned.
    """
    for j in np.flatnonzero(S == 0.0).tolist():
        if back_at[j] >= s or gone is not None and gone[j]:
            continue
        x, x_new = float(X[j]), float(X_new[j])
        g, g_new = float(G[j]), float(G_new[j])
        still = x_new == x
        if not ((still or g == g_new == 0.0) and _may_coast((x,), draws, g_new)):
            continue
        if eta_next is None:
            sched, eta = schedule, None
        else:
            sched, eta = schedule.trial(j), float(eta_next[j])
        back = log.coast(s, (x_new,), float(V_new[j]), g_new, eta, still, advance, log_ptr,
                         int(live[j]), sched)
        if back is not None:
            back_at[j] = back[0]
            continue
        if gone is None:
            gone = np.zeros(len(S), dtype=bool)
        gone[j] = True
    return gone


def _may_coast(old: tuple, draws, g_new: float) -> bool:
    """Whether a zero step from state ``old`` to one of gap g_new may start a coast.

    Rules (b) and (c) of the module docstring: every later noise term is
    exactly +-0, and no old coordinate is -0.0.
    """
    if draws is not None and not (draws.relative and g_new == 0.0):
        return False
    return not any(a == 0.0 and math.copysign(1.0, a) < 0.0 for a in old)


def _scalar_advance(f, r2: float):
    """The scalar body's advance for _Log.coast: field f, squared blow-up radius r2."""
    def advance(state, v, etas):
        x, = state
        ys = []
        for eta in etas:
            y = x + eta * v
            w = f(y)
            d = y - x
            if not (w * w == 0.0 and d * d == 0.0 and y * y <= r2):
                return ys, (x,), v, len(ys), _HANDS_BACK
            ys.append(y)
            if y == x:
                return ys, (y,), w, len(ys), _SETTLED
            x, v = y, w
        return ys, (x,), v, len(ys), _RAN
    return advance


def _row_views(log: _Log) -> tuple:
    """Trial 0's gap, step norm, eta (adaptive schedules) and beta rows and
    its logged states, flat, as memoryviews: a store of a float through one
    costs about half what a numpy scalar store does. A record that keeps no
    step norms gets a scratch row, so the loops store them all the same."""
    step = log.step[0] if log.step is not None else np.empty(log.eta.shape[1])
    return (memoryview(log.gap[0]), memoryview(step),
            None if log.etas is not None else memoryview(log.eta[0]),
            None if log.beta is None else memoryview(log.beta[0]),
            memoryview(log.states[0].reshape(-1)))


def _run_scalar(game, x0, T, schedule, draws, radius, log):
    f, x = game.scalar_field, x0[0]
    gap, step_arr, eta_arr, beta_arr, states = _row_views(log)
    etas = log.etas
    v = f(x)
    g = v * v
    log.begin(g, x)
    log_seq = log.log_seq
    log_ptr = 1
    next_log = log_seq[1]

    eta_next = next_step = None  # a shared schedule's step sizes are all in etas
    if etas is None:
        eta_next, next_step = schedule.first_step(), schedule.next_step
    relative = draws.relative if draws is not None else False
    track_beta = beta_arr is not None
    sqrt = math.sqrt
    inf = math.inf
    r2 = radius * radius
    advance = _scalar_advance(f, r2)

    t = lo = hi = 0  # the draws in hand are those of steps lo..hi-1
    while t < T:
        if t >= hi:
            lo, hi = t, min(t + draws.rows, T) if draws is not None else T
            if draws is not None:
                z_chunk, amp_chunk = draws.chunk(lo, hi - lo)
                zs = z_chunk[0, :, 0].tolist()
                amps = amp_chunk.tolist()
        for k in range(t - lo, hi - lo):
            if etas is None:
                eta = eta_next
                eta_arr[t] = eta
            else:
                eta = etas[t]
            if draws is None:
                x_new = x + eta * v
            else:
                amp = amps[k] * sqrt(g) if relative else amps[k]
                x_new = x + eta * (v + amp * zs[k])
            v_new = f(x_new)
            g_new = v_new * v_new
            gap[t + 1] = g_new
            d = x_new - x
            step_sq = d * d
            step_arr[t] = step_sq
            if t + 1 == next_log:
                states[log_ptr] = x_new
                log_ptr += 1
                next_log = log_seq[log_ptr]
            if not (g_new < inf) or not (x_new * x_new <= r2):
                log.end([0], t + 1)
                return
            if etas is None:
                eta_next = next_step(t, eta, g, g_new, step_sq)
            if track_beta:
                beta_arr[t + 1] = schedule.beta
            if step_sq == 0.0 and t + 1 < T:
                still = x_new == x
                if (still or g == g_new == 0.0) and _may_coast((x,), draws, g_new):
                    back = log.coast(t + 1, (x_new,), v_new, g_new, eta_next, still, advance,
                                     log_ptr, 0, schedule)
                    if back is None:
                        return
                    t, (x,), v, eta_next, log_ptr = back
                    g = 0.0
                    next_log = log_seq[log_ptr]
                    break
            x, v, g = x_new, v_new, g_new
            t += 1


def _run_affine2(game, x0, T, schedule, draws, radius, log):
    A, b = game.affine
    gap, step_arr, eta_arr, beta_arr, states = _row_views(log)
    etas = log.etas
    a00, a01 = float(A[0, 0]), float(A[0, 1])
    a10, a11 = float(A[1, 0]), float(A[1, 1])
    b0, b1 = float(b[0]), float(b[1])
    x0_, x1_ = float(x0[0]), float(x0[1])

    v0 = b0 - (a00 * x0_ + a01 * x1_)
    v1 = b1 - (a10 * x0_ + a11 * x1_)
    g = v0 * v0 + v1 * v1
    log.begin(g, (x0_, x1_))
    log_seq = log.log_seq
    log_ptr = 1
    next_log = log_seq[1]

    eta_next = next_step = None  # a shared schedule's step sizes are all in etas
    if etas is None:
        eta_next, next_step = schedule.first_step(), schedule.next_step
    relative = draws.relative if draws is not None else False
    track_beta = beta_arr is not None
    sqrt = math.sqrt
    inf = math.inf
    r2 = radius * radius

    def advance(x, v, etas):
        (x0_, x1_), (v0, v1) = x, v
        ys = []
        for eta in etas:
            y0 = x0_ + eta * v0
            y1 = x1_ + eta * v1
            w0 = b0 - (a00 * y0 + a01 * y1)
            w1 = b1 - (a10 * y0 + a11 * y1)
            d0 = y0 - x0_
            d1 = y1 - x1_
            if not (w0 * w0 + w1 * w1 == 0.0 and d0 * d0 + d1 * d1 == 0.0
                    and y0 * y0 + y1 * y1 <= r2):
                return ys, (x0_, x1_), (v0, v1), len(ys) >> 1, _HANDS_BACK
            ys += y0, y1
            if y0 == x0_ and y1 == x1_:
                return ys, (y0, y1), (w0, w1), len(ys) >> 1, _SETTLED
            x0_, x1_, v0, v1 = y0, y1, w0, w1
        return ys, (x0_, x1_), (v0, v1), len(ys) >> 1, _RAN

    t = lo = hi = 0  # the draws in hand are those of steps lo..hi-1
    while t < T:
        if t >= hi:
            lo, hi = t, min(t + draws.rows, T) if draws is not None else T
            if draws is not None:
                z_chunk, amp_chunk = draws.chunk(lo, hi - lo)
                zs = z_chunk[0].tolist()
                amps = amp_chunk.tolist()
        for k in range(t - lo, hi - lo):
            if etas is None:
                eta = eta_next
                eta_arr[t] = eta
            else:
                eta = etas[t]
            if draws is None:
                y0 = x0_ + eta * v0
                y1 = x1_ + eta * v1
            else:
                amp = amps[k] * sqrt(g) if relative else amps[k]
                zk = zs[k]
                y0 = x0_ + eta * (v0 + amp * zk[0])
                y1 = x1_ + eta * (v1 + amp * zk[1])
            w0 = b0 - (a00 * y0 + a01 * y1)
            w1 = b1 - (a10 * y0 + a11 * y1)
            g_new = w0 * w0 + w1 * w1
            gap[t + 1] = g_new
            d0 = y0 - x0_
            d1 = y1 - x1_
            step_sq = d0 * d0 + d1 * d1
            step_arr[t] = step_sq
            if t + 1 == next_log:
                states[2 * log_ptr] = y0
                states[2 * log_ptr + 1] = y1
                log_ptr += 1
                next_log = log_seq[log_ptr]
            if not (g_new < inf) or not (y0 * y0 + y1 * y1 <= r2):
                log.end([0], t + 1)
                return
            if etas is None:
                eta_next = next_step(t, eta, g, g_new, step_sq)
            if track_beta:
                beta_arr[t + 1] = schedule.beta
            if step_sq == 0.0 and t + 1 < T:
                still = y0 == x0_ and y1 == x1_
                if (still or g == g_new == 0.0) and _may_coast((x0_, x1_), draws, g_new):
                    back = log.coast(t + 1, (y0, y1), (w0, w1), g_new, eta_next, still,
                                     advance, log_ptr, 0, schedule)
                    if back is None:
                        return
                    t, (x0_, x1_), (v0, v1), eta_next, log_ptr = back
                    g = 0.0
                    next_log = log_seq[log_ptr]
                    break
            x0_, x1_, v0, v1, g = y0, y1, w0, w1, g_new
            t += 1


_BODIES = {"scalar": _run_scalar, "affine2": _run_affine2, "lockstep": _run_lockstep}
