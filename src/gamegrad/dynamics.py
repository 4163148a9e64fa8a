"""Learning dynamics: the ascent update, step-size schedules, noise, runner.

The runner iterates x_{t+1} = x_t + eta_{t+1} (v(x_t) + xi_{t+1}) and records
per-step diagnostics. Step order per iteration: obtain eta, evaluate the
field, sample noise, step, then feed the schedule the post-step observations.
The shared schedules (constant, power) ignore those observations, so their
only step-size method is step_sizes(T): the whole sequence as an array,
computed once per block, which the loops read from as a list of floats.
The adaptive schedules (step_norm, grad_norm) keep per-run state from
fresh(): the loops call next_step on Python floats after every step (or
next_steps on the (trials,) vectors of a lock-step block).
Hot loops come in three bodies that execute the identical recursion, and
tests pin them against each other:

- scalar: one-dimensional games, on Python floats;
- unrolled 2-d: affine two-dimensional games, on Python floats;
- lock-step: every other game, stepping a block of trials together as
  (trials, n) arrays, each trial with its own noise stream. It calls the
  game's own field on the whole block, which gives each row the bits it
  gives that row alone (see Game).

The unrolled bodies run one trial at a time; measured on a one-dimensional
quadratic, a lock-step block only overtakes them from about 32 trials up.
run_trajectory and run_lockstep share one set-up, and all three bodies take
the same arguments. Each writes its per-step entries in its loop and the
rest of the record through _Log: begin writes step 0, end stops the trials
that diverged, and fill fast-forwards a settled trial.

Settled trials. In double precision the runs reach an exact fixed point: a
state the update maps to itself bit for bit. The unrolled bodies stop
stepping there. A trial is settled at the end of step t when

- (a) the new state equals the old one bit for bit: every coordinate
  compares equal and no old coordinate is -0.0 (-0.0 + 0.0 gives +0.0), and
- (b) the noise term of every later step is exactly +-0: no noise, or
  relative noise with the new gap exactly 0.0, whose amplitude is
  sqrt(tau_t) * sqrt(0). Absolute noise never settles.

_Log.fill then fills the rest of the record instead of stepping it: the
same state, gap and beta, and step norm 0.0. A shared schedule's step sizes
are in the record from the start; an adaptive one's tail comes from its
settled_steps, which gives as one array what next_step(t, eta, g, g, 0.0)
would return step by step. Why this is exact: every later step starts from
the same bits, so it sees the same field and gap and a noise term of +-0,
which leaves a nonzero field as it is and a zero one zero. With equal gaps
and a zero step norm, beta no longer grows and every schedule's eta is
nonincreasing (eta_monotone checks it). Rounding is monotone (IEEE 754):
the increment eta * v vanished against the state at step t, so the no
larger increment of any smaller eta vanishes too. The lock-step body does
not fast-forward.

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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import (ConfigError, config_dict, config_float, config_int, config_kind,
                     config_numbers, config_section)
from .games import Game

Array = np.ndarray

_CHUNK = 4096

# Record memory one lock-step block may hold; run_lockstep splits larger runs.
_BLOCK_BYTES = 64 << 20

# Libm tables cached per process: one per horizon (and p) in use at a time.
_TABLES = 8


def _table(values) -> Array:
    out = np.array(list(values), dtype=float)
    out.flags.writeable = False  # shared by every caller of the cache
    return out


@functools.lru_cache(maxsize=_TABLES)
def _log_table(n: int) -> Array:
    """math.log(t + 2.0) for t = 0..n-1."""
    return _table(map(math.log, map(float, range(2, n + 2))))


@functools.lru_cache(maxsize=_TABLES)
def _pow_table(n: int, p: float) -> Array:
    """(t + 1.0) ** p (float.__pow__) for t = 0..n-1."""
    return _table(map(float.__pow__, map(float, range(1, n + 1)), itertools.repeat(p)))


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

class _Schedule:
    """What every schedule writes back: its kind and the parameters _SCHEDULE_KINDS lists."""

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
    needs_exact_gradients = False
    tracks_beta = False

    def __init__(self, eta: float):
        if not 0 < eta < math.inf:
            raise ConfigError("constant step size must be positive and finite")
        self.eta = float(eta)

    def _sizes(self, horizon: int) -> tuple[Array, list]:
        return np.full(horizon, self.eta), [self.eta] * horizon


class PowerSchedule(_SharedStep):
    """Polynomial decay eta_t = c / t^p for the t-th step (1-indexed), eta_1 = c."""

    kind = "power"
    needs_exact_gradients = False
    tracks_beta = False

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


class GradNormSchedule(_Schedule):
    """Adaptive step rule driven by exact gradient norms.

    Maintains an offset beta (multiplied by r whenever the gradient norm
    increased over the last step) plus the running sum of squared gradient
    norms; emits 1/sqrt(beta + sum). The first step uses 1/sqrt(beta1) so the
    whole sequence is nonincreasing.
    """

    kind = "grad_norm"
    needs_exact_gradients = True
    tracks_beta = True
    shared = False

    def __init__(self, beta1: float, r: float):
        if not 0 < beta1 < math.inf:
            raise ConfigError("beta1 must be positive and finite")
        if not 1 < r < math.inf:
            raise ConfigError("growth factor r must exceed 1 and be finite")
        self.beta1 = float(beta1)
        self.r = float(r)

    def fresh(self, trials: Optional[int] = None) -> "GradNormSchedule":
        """A copy in its starting state: scalar, or one entry per trial of a lock-step block."""
        sched = GradNormSchedule(self.beta1, self.r)
        sched.beta = self.beta1 if trials is None else np.full(trials, self.beta1)
        sched.grad_sq_sum = 0.0 if trials is None else np.zeros(trials)
        return sched

    def first_step(self) -> float:
        return 1.0 / math.sqrt(self.beta1)

    def next_step(self, t, eta, g_prev, g_next, step_sq) -> float:
        """The step size of step t + 1, after step t moved the gap from g_prev to g_next."""
        if g_next > g_prev:
            self.beta *= self.r
        self.grad_sq_sum += g_prev
        return 1.0 / math.sqrt(self.beta + self.grad_sq_sum)

    def next_steps(self, t, eta, g_prev, g_next, step_sq):
        """next_step over the trials of a lock-step block (state from fresh(trials))."""
        self.beta = np.where(g_next > g_prev, self.beta * self.r, self.beta)
        self.grad_sq_sum = self.grad_sq_sum + g_prev
        return self._steps(self.grad_sq_sum)

    def settled_steps(self, t, eta, g, count) -> Array:
        """What next_step returns over a settled tail; see StepNormSchedule's.

        With equal gaps beta holds, and the running sum takes in g once per
        step, summed left to right as the per-step calls sum it.
        """
        sums = np.add.accumulate(np.concatenate(([self.grad_sq_sum], np.full(count, g))))
        self.grad_sq_sum = float(sums[-1])
        return self._steps(sums[1:])

    def _steps(self, grad_sq_sum):
        return 1.0 / np.sqrt(self.beta + grad_sq_sum)

    def keep(self, live) -> None:
        """Drop the state of the trials that left a lock-step block."""
        self.beta = self.beta[live]
        self.grad_sq_sum = self.grad_sq_sum[live]


class StepNormSchedule(_Schedule):
    """Adaptive step rule driven by realized step norms, usable under noise.

    Accumulates eta^{-2} ||x_t - x_{t+1}||^2 and emits
    1/sqrt(beta + log(t+2) + accumulator); natural log. The first step uses
    1/sqrt(beta) so the sequence is nonincreasing.
    """

    kind = "step_norm"
    needs_exact_gradients = False
    tracks_beta = False
    shared = False

    def __init__(self, beta: float):
        if not 0 < beta < math.inf:
            raise ConfigError("beta must be positive and finite")
        self.beta = float(beta)

    def fresh(self, trials: Optional[int] = None) -> "StepNormSchedule":
        """A copy in its starting state: scalar, or one entry per trial of a lock-step block."""
        sched = StepNormSchedule(self.beta)
        sched.delta = 0.0 if trials is None else np.zeros(trials)
        return sched

    def first_step(self) -> float:
        return 1.0 / math.sqrt(self.beta)

    def next_step(self, t, eta, g_prev, g_next, step_sq) -> float:
        """The step size of step t + 1, after step t of size eta moved x by sqrt(step_sq)."""
        self.delta += step_sq / (eta * eta)
        return 1.0 / math.sqrt(self.beta + math.log(t + 2.0) + self.delta)

    def next_steps(self, t, eta, g_prev, g_next, step_sq):
        """next_step over the trials of a lock-step block (state from fresh(trials))."""
        self.delta = self.delta + step_sq / (eta * eta)
        return self._steps(math.log(t + 2.0))

    def settled_steps(self, t, eta, g, count) -> Array:
        """The step sizes of a settled tail as one array.

        Element k is what the k-th of the calls next_step(t + k, eta_k, g, g,
        0.0), k = 0..count-1, returns, bit for bit, where eta_0 = eta and
        eta_{k+1} is the k-th result; the schedule's state is left as those
        calls would leave it. Only the first call can change delta
        (0.0 / eta**2 is +0.0 for every later eta unless delta is NaN).
        """
        if count:
            self.delta += 0.0 / (eta * eta)
        return self._steps(_log_table(t + count)[t:])

    def _steps(self, log_t):
        return 1.0 / np.sqrt(self.beta + log_t + self.delta)

    def keep(self, live) -> None:
        """Drop the state of the trials that left a lock-step block."""
        self.delta = self.delta[live]


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


@dataclass(frozen=True)
class RelativeNoise(_Noise):
    """Zero-mean noise with second moment tau_t ||v(x_t)||^2 (exact for sphere shape)."""

    tau: VarianceSchedule
    shape: str = "sphere"
    kind: str = field(default="relative", init=False)

    def __post_init__(self):
        _check_shape(self.shape)


@dataclass(frozen=True)
class AbsoluteNoise(_Noise):
    """Zero-mean noise with second moment sigma_t^2 (exact for sphere shape)."""

    sigma_sq: VarianceSchedule
    shape: str = "sphere"
    kind: str = field(default="absolute", init=False)

    def __post_init__(self):
        _check_shape(self.shape)


NoiseModel = NoNoise | RelativeNoise | AbsoluteNoise


def _check_shape(shape: str) -> None:
    if shape not in ("sphere", "gaussian"):
        raise ConfigError(f"unknown noise shape {shape!r}")


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


class _NoiseDraws:
    """Chunked unit draws for a block of trials, one generator per trial.

    Each trial's normals go straight into its rows of one block buffer. A trial
    gets about _CHUNK // m rows per chunk, so the buffer holds about _CHUNK x n
    doubles at any block size m. Consecutive draws from a generator
    concatenate bit-exactly, so neither the chunk length nor the block a
    trial shares changes its noise: every step consumes exactly n normals.
    """

    def __init__(self, model: NoiseModel, n: int, rngs: list, horizon: int):
        self.relative = isinstance(model, RelativeNoise)
        self.sphere = model.shape == "sphere"
        self.var = model.tau if self.relative else model.sigma_sq
        self.n = n
        self.rngs = list(rngs)
        self.rows = min(horizon, max(1, _CHUNK // len(self.rngs)))
        self.buf = np.empty((len(self.rngs), self.rows, n))

    def chunk(self, t0: int, count: int):
        """Unit draws, shape (m, count, n), and the trial-independent sqrt-variance
        amplitudes, shape (count,), for steps t0..t0+count-1 (count <= rows)."""
        z = self.buf[:len(self.rngs), :count]
        for rng, out in zip(self.rngs, z):
            rng.standard_normal(out=out)
        if self.sphere:
            nrm = np.sqrt(np.einsum("ijk,ijk->ij", z, z))
            nrm[nrm == 0.0] = 1.0
            z /= nrm[:, :, None]
            return z, np.sqrt(self.var.values(t0, count))
        return z, np.sqrt(self.var.values(t0, count) / self.n)

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
    thinning = k >= 1 additionally logs every k-th step.
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
    step_norm_sq: Array      # ||x_{t+1} - x_t||^2, length T
    beta: Optional[Array]    # offset in force entering each step (grad_norm runs)
    state_steps: Array       # indices of logged states, increasing
    states: Array            # logged states, shape (len(state_steps), n)
    seed: Optional[int]
    horizon: int
    diverged: bool
    divergence_step: Optional[int]
    # First step filled instead of stepped once the trial settled (see the
    # module docstring); None when every step ran. Kept in memory only.
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


def runner_body(game: Game) -> str:
    """The body run_trajectory steps a game with: 'scalar', 'affine2' or 'lockstep'."""
    if game.n == 1 and game.scalar_field is not None:
        return "scalar"
    if game.n == 2 and game.affine is not None:
        return "affine2"
    return "lockstep"


class _Log:
    """The record of m trials, row i belonging to the block's i-th trial.

    It is the only writer of a trial's record outside the stepping loops:
    begin writes step 0, end stops diverged trials and fill fast-forwards a
    settled one. For a shared schedule (constant, power) every eta row is a
    read-only view of the one array step_sizes gives, and ``etas`` holds its
    floats for the stepping loops; it is None for the adaptive schedules,
    whose loops log each step size in the trial's own row as they compute it.
    """

    def __init__(self, m: int, n: int, config: DynamicsConfig, schedule: Schedule):
        T = config.horizon
        self.schedule = schedule
        self.gap = np.empty((m, T + 1))
        self.etas = None
        if schedule.shared:
            steps, self.etas = schedule.step_sizes(T)
            self.eta = np.broadcast_to(steps, (m, T))
        else:
            self.eta = np.empty((m, T))
        self.step = np.empty((m, T))
        self.beta = np.empty((m, T + 1)) if schedule.tracks_beta else None
        self.steps = _log_steps(T, config.thinning)
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

    def end(self, rows, t: int, x, beta, log_ptr: int) -> None:
        """Stop the trials in ``rows``, which left the blow-up ball at step t.

        x holds their states after step t and beta the offsets entering step
        t + 1 (ignored unless beta is tracked); log_ptr is the index of the
        first state not yet logged, which is step t's if t is a logged step.
        """
        for i in rows:
            self.stop[i], self.diverged[i] = t, True
        if self.beta is not None:
            self.beta[rows, t] = beta
        if log_ptr < len(self.steps) and self.steps[log_ptr] == t:
            self.states[rows, log_ptr] = x

    def fill(self, s: int, x, g: float, eta: float, log_ptr: int) -> None:
        """Fill steps s..T-1 of trial 0, settled in state x at the end of step s-1.

        eta is the step size of step s, already computed by the stepping loop. A
        shared schedule's step sizes are in the record from the start.
        """
        self.settle[0] = s
        self.gap[0, s + 1:] = g
        self.step[0, s:] = 0.0
        if self.beta is not None:
            self.beta[0, s + 1:] = self.schedule.beta
        self.states[0, log_ptr:] = x
        if not self.schedule.shared:
            self.eta[0, s] = eta
            self.eta[0, s + 1:] = self.schedule.settled_steps(s, eta, g, self.eta.shape[1] - s - 1)

    def record(self, i: int, game: Game, config: DynamicsConfig, seed) -> TrajectoryRecord:
        t_stop = self.stop[i]
        logged = int(np.searchsorted(self.steps, t_stop, side="right"))
        return TrajectoryRecord(
            game_name=game.name,
            config=config.to_dict(),
            gap=self.gap[i, :t_stop + 1],
            eta=self.eta[i, :t_stop],
            step_norm_sq=self.step[i, :t_stop],
            beta=None if self.beta is None else self.beta[i, :t_stop + 1],
            state_steps=self.steps[:logged],
            states=self.states[i, :logged],
            seed=seed,
            horizon=config.horizon,
            diverged=self.diverged[i],
            divergence_step=t_stop if self.diverged[i] else None,
            settle_step=self.settle[i],
        )


def _record_bytes(config: DynamicsConfig, n: int) -> int:
    """Bytes _Log allocates per trial: gap, step norms, states, and eta and beta rows it owns."""
    T, schedule = config.horizon, config.schedule
    rows = 2 * T + 1 + T * (not schedule.shared) + (T + 1) * schedule.tracks_beta
    return 8 * (rows + len(_log_steps(T, config.thinning)) * n)


def _generator(rng: int | np.random.Generator | None):
    seed = rng if isinstance(rng, int) else None
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng, seed


def _run(body, game: Game, config: DynamicsConfig, rngs: list) -> list[TrajectoryRecord]:
    """The set-up both entry points share: checks, generators, schedule state, records."""
    if len(config.x0) != game.n:
        raise ConfigError(f"x0 has length {len(config.x0)}, game dimension is {game.n}")
    m = len(rngs)
    gens, seeds = zip(*(_generator(rng) for rng in rngs))
    radius = config.blow_up_radius
    if radius is None:
        radius = 1e8 * (1.0 + math.sqrt(sum(v * v for v in config.x0)))
    draws = None
    if not isinstance(config.noise, NoNoise):
        draws = _NoiseDraws(config.noise, game.n, list(gens), config.horizon)
    schedule = config.schedule
    if not schedule.shared:
        schedule = schedule.fresh(None if m == 1 else m)
    log = _Log(m, game.n, config, schedule)
    with np.errstate(over="ignore", invalid="ignore"):  # diverging rows overflow in numpy
        body(game, config.x0, config.horizon, schedule, draws, radius, log)
    return [log.record(i, game, config, seed) for i, seed in enumerate(seeds)]


def run_trajectory(game: Game, config: DynamicsConfig,
                   rng: int | np.random.Generator | None = None) -> TrajectoryRecord:
    """Run one trial of the dynamics on a game and record its trajectory.

    Divergence (non-finite values or leaving the blow-up ball) sets a flag
    and truncates the record instead of raising, so sweeps can aggregate
    failures. A settled trial skips its remaining noise draws, so the
    position of a generator passed in is unspecified after the run.
    """
    return _run(_BODIES[runner_body(game)], game, config, [rng])[0]


def run_lockstep(game: Game, config: DynamicsConfig, rngs: list) -> Iterator[TrajectoryRecord]:
    """Run one trial per generator in ``rngs`` in lock-step; yield their records in order.

    This is the body for every game without an unrolled one. It steps as many
    trials at once as _BLOCK_BYTES of records hold, block after block. Trial
    i draws its noise from rngs[i] alone, and every per-row operation (the
    game's own field, called on the whole block as it is, np.vecdot,
    elementwise arithmetic) gives the same bits whatever the number of rows,
    so a trial's record does not depend on which block it ran in. A single
    trial runs on 1-D arrays through the same code, which was checked
    bit-equal to its row of a block.
    """
    size = max(1, _BLOCK_BYTES // _record_bytes(config, game.n))
    for lo in range(0, len(rngs), size):
        yield from _run(_run_lockstep, game, config, rngs[lo:lo + size])


def _dot(a, b) -> float:
    return float(a @ b)


def _column(v):
    return v[:, None]


def _same(v):
    return v


def _run_lockstep(game, x0, T, schedule, draws, radius, log):
    """Step a block of m trials together from x0: X is (m, n), or (n,) for one trial.

    Per-trial values (gap, step norm, adaptive step size, noise amplitude)
    are (m,) vectors, or floats for one trial, so each line below is the
    same recursion as the unrolled bodies applied row by row. A trial that
    diverges leaves the block: its log row stops there and its row is
    dropped from every live array.
    """
    field, m = game.field, len(log.stop)
    flat = m == 1
    X = np.array(x0, dtype=float) if flat else np.tile(x0, (m, 1))
    dot, col, sqrt = (_dot, _same, math.sqrt) if flat else (np.vecdot, _column, np.sqrt)
    live = np.arange(m)
    rows = 0 if flat else slice(None)  # the log rows of the live trials
    gap, eta_log, step_log, beta_log, states = log.gap, log.eta, log.step, log.beta, log.states
    etas = log.etas
    log_list = log.steps.tolist()
    r2 = radius * radius
    inf = math.inf

    V = field(X)
    G = dot(V, V)
    log.begin(G, X)
    log_ptr = 1
    next_log = log_list[log_ptr] if log_ptr < len(log_list) else T + 1

    if etas is None:
        eta_next = schedule.first_step()
        update = schedule.next_step if flat else schedule.next_steps
    relative = draws is not None and draws.relative
    t = 0
    while t < T:
        count = min(draws.rows, T - t) if draws is not None else T - t
        if draws is not None:
            z, amp = draws.chunk(t, count)
            Z = z[0] if flat else z.transpose(1, 0, 2)  # Z[k]: the draws of step t0 + k
            amps = amp.tolist()
        for k in range(count):
            if etas is None:
                eta = eta_next
                eta_log[rows, t] = eta
            else:
                eta = etas[t]
            step = eta if isinstance(eta, float) else col(eta)
            if draws is None:
                X_new = X + step * V
            else:
                a = col(amps[k] * sqrt(G)) if relative else amps[k]
                X_new = X + step * (V + a * Z[k])
            V_new = field(X_new)
            G_new = dot(V_new, V_new)
            gap[rows, t + 1] = G_new
            D = X_new - X
            S = dot(D, D)
            step_log[rows, t] = S
            ok = (G_new < inf) & (dot(X_new, X_new) <= r2)
            if not (ok if flat else ok.all()):
                gone = slice(None) if flat else ~ok
                beta = None if beta_log is None else schedule.beta if flat else schedule.beta[gone]
                log.end(live[gone].tolist(), t + 1, X_new[gone], beta, log_ptr)
                if flat or not ok.any():
                    return
                live = rows = live[ok]
                X_new, V_new, G, G_new, S = X_new[ok], V_new[ok], G[ok], G_new[ok], S[ok]
                if not isinstance(eta, float):
                    eta = eta[ok]
                if etas is None:
                    schedule.keep(ok)
                if draws is not None:
                    draws.keep(ok)
                    Z = Z[:, ok]
            if t + 1 == next_log:
                states[rows, log_ptr] = X_new
                log_ptr += 1
                next_log = log_list[log_ptr] if log_ptr < len(log_list) else T + 1
            if etas is None:
                eta_next = update(t, eta, G, G_new, S)
            if beta_log is not None:
                beta_log[rows, t + 1] = schedule.beta
            X, V, G = X_new, V_new, G_new
            t += 1


def _settled(old: tuple, draws, g_new: float) -> bool:
    """Whether a step that left every coordinate comparing equal settled the trial.

    The rest of the module docstring's (a) and (b): no old coordinate is -0.0,
    and every later noise term is exactly +-0.
    """
    if draws is not None and not (draws.relative and g_new == 0.0):
        return False
    return not any(a == 0.0 and math.copysign(1.0, a) < 0.0 for a in old)


def _run_scalar(game, x0, T, schedule, draws, radius, log):
    f, x = game.scalar_field, x0[0]
    gap, eta_arr, step_arr, states = log.gap[0], log.eta[0], log.step[0], log.states[0]
    beta_arr, etas = None if log.beta is None else log.beta[0], log.etas
    v = f(x)
    g = v * v
    log.begin(g, x)
    log_list = log.steps.tolist()
    log_ptr = 1
    next_log = log_list[log_ptr] if log_ptr < len(log_list) else T + 1

    eta_next = next_step = None  # a shared schedule's step sizes are all in etas
    if etas is None:
        eta_next, next_step = schedule.first_step(), schedule.next_step
    relative = draws.relative if draws is not None else False
    track_beta = beta_arr is not None
    sqrt = math.sqrt
    inf = math.inf
    r2 = radius * radius
    t = 0
    while t < T:
        count = min(draws.rows, T - t) if draws is not None else T - t
        if draws is not None:
            z_chunk, amp_chunk = draws.chunk(t, count)
            zs = z_chunk[0, :, 0].tolist()
            amps = amp_chunk.tolist()
        for k in range(count):
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
            if not (g_new < inf) or not (x_new * x_new <= r2):
                log.end([0], t + 1, x_new, schedule.beta if track_beta else None, log_ptr)
                return
            if t + 1 == next_log:
                states[log_ptr, 0] = x_new
                log_ptr += 1
                next_log = log_list[log_ptr] if log_ptr < len(log_list) else T + 1
            if etas is None:
                eta_next = next_step(t, eta, g, g_new, step_sq)
            if track_beta:
                beta_arr[t + 1] = schedule.beta
            if step_sq == 0.0 and x_new == x and t + 1 < T and _settled((x,), draws, g_new):
                log.fill(t + 1, x_new, g_new, eta_next, log_ptr)
                return
            x, v, g = x_new, v_new, g_new
            t += 1


def _run_affine2(game, x0, T, schedule, draws, radius, log):
    A, b = game.affine
    gap, eta_arr, step_arr, states = log.gap[0], log.eta[0], log.step[0], log.states[0]
    beta_arr, etas = None if log.beta is None else log.beta[0], log.etas
    a00, a01 = float(A[0, 0]), float(A[0, 1])
    a10, a11 = float(A[1, 0]), float(A[1, 1])
    b0, b1 = float(b[0]), float(b[1])
    x0_, x1_ = float(x0[0]), float(x0[1])

    v0 = b0 - (a00 * x0_ + a01 * x1_)
    v1 = b1 - (a10 * x0_ + a11 * x1_)
    g = v0 * v0 + v1 * v1
    log.begin(g, (x0_, x1_))
    log_list = log.steps.tolist()
    log_ptr = 1
    next_log = log_list[log_ptr] if log_ptr < len(log_list) else T + 1

    eta_next = next_step = None  # a shared schedule's step sizes are all in etas
    if etas is None:
        eta_next, next_step = schedule.first_step(), schedule.next_step
    relative = draws.relative if draws is not None else False
    track_beta = beta_arr is not None
    sqrt = math.sqrt
    inf = math.inf
    r2 = radius * radius
    t = 0
    while t < T:
        count = min(draws.rows, T - t) if draws is not None else T - t
        if draws is not None:
            z_chunk, amp_chunk = draws.chunk(t, count)
            zs = z_chunk[0].tolist()
            amps = amp_chunk.tolist()
        for k in range(count):
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
            if not (g_new < inf) or not (y0 * y0 + y1 * y1 <= r2):
                log.end([0], t + 1, (y0, y1), schedule.beta if track_beta else None, log_ptr)
                return
            if t + 1 == next_log:
                states[log_ptr, 0] = y0
                states[log_ptr, 1] = y1
                log_ptr += 1
                next_log = log_list[log_ptr] if log_ptr < len(log_list) else T + 1
            if etas is None:
                eta_next = next_step(t, eta, g, g_new, step_sq)
            if track_beta:
                beta_arr[t + 1] = schedule.beta
            if (step_sq == 0.0 and y0 == x0_ and y1 == x1_ and t + 1 < T
                    and _settled((x0_, x1_), draws, g_new)):
                log.fill(t + 1, (y0, y1), g_new, eta_next, log_ptr)
                return
            x0_, x1_, v0, v1, g = y0, y1, w0, w1, g_new
            t += 1


_BODIES = {"scalar": _run_scalar, "affine2": _run_affine2, "lockstep": _run_lockstep}
