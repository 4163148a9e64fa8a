"""Convergence diagnostics: the optimality gap, rate fits, invariant checks.

Everything here is a pure function over immutable trajectory records; the
harness composes these into per-run verdicts and report-level rate fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import (AbsoluteNoise, DynamicsConfig, NoiseModel, NoNoise, RelativeNoise,
                       TrajectoryRecord)
from .errors import ConfigError, IndeterminateResult, config_float
from .games import Game, _as_flat, gradient_field, project_to_nash

Array = np.ndarray


# ---------------------------------------------------------------------------
# Gap curves
# ---------------------------------------------------------------------------

def optimality_gap(game: Game, x) -> float:
    """Squared norm of the joint gradient; zero exactly on the Nash set."""
    v = gradient_field(game, x)
    return float(v @ v)


def _gap_series(traj) -> Array:
    if isinstance(traj, TrajectoryRecord):
        return traj.gap
    arr = np.asarray(traj, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("empty gap series")
    return arr


def time_average_gap(traj, steps: Optional[Array] = None) -> Array:
    """Prefix means of the gap series: entry T holds (1/(T+1)) sum_{t<=T} gap_t.

    Given ``steps``, an int array, only the means at those steps, with the
    same bits: the prefix sums are divided there alone.
    """
    sums = np.cumsum(_gap_series(traj))
    if steps is None:
        return sums / np.arange(1.0, sums.size + 1.0)
    return sums[steps] / (steps + 1.0)


class TailSeries(NamedTuple):
    T: Array        # dyadic horizons 1, 2, 4, ...
    value: Array    # T * gap_{2T-1}


def tail_product(traj) -> TailSeries:
    """The series T * gap_{2T-1} over dyadic T; tends to 0 on conforming runs."""
    gap = _gap_series(traj)
    points = (gap.size // 2).bit_length()  # the T = 2^k with 2T - 1 < gap.size
    if points < 1:
        raise ValueError("trajectory too short for any dyadic tail point")
    T = np.left_shift(1, np.arange(points))
    return TailSeries(T.astype(float), T * gap[2 * T - 1])


def vanishes_monotonically(values: Sequence[float], burnin: int = 0,
                           drop_factor: Optional[float] = None) -> bool:
    """True when the post-burn-in series decreases strictly until it reaches
    exactly zero and stays there (an exactly-converged run counts as having
    attained the limit), optionally also requiring final < drop_factor * first.
    """
    vals = np.asarray(values, dtype=float)[burnin:]
    if vals.size == 0:
        return False
    nz = np.nonzero(vals == 0.0)[0]
    z = int(nz[0]) if nz.size else vals.size
    if np.any(vals[z:] != 0.0):
        return False  # returned to a nonzero value after hitting the limit
    if np.any(np.diff(vals[:z + 1] if z < vals.size else vals) >= 0):
        return False
    if drop_factor is not None and vals[-1] != 0.0 and not (vals[-1] < drop_factor * vals[0]):
        return False
    return True


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log T, log value); slope is the rate exponent."""

    slope: float
    intercept: float
    residual_rms: float
    window: tuple[float, float]
    n_points: int

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "residual_rms": self.residual_rms,
                "window": list(self.window), "n_points": self.n_points}


def fit_rate(points: Iterable[tuple[float, float]],
             window: Optional[tuple[float, float]] = None) -> RateFit:
    """Fit log(value) = slope*log(T) + intercept over positive points.

    Nonpositive values are excluded; fewer than 3 usable points with distinct
    T is indeterminate.
    """
    ts, vs = [], []
    for T, val in points:
        if window is not None and not (window[0] <= T <= window[1]):
            continue
        if T > 0 and val > 0 and math.isfinite(T) and math.isfinite(val):
            ts.append(float(T))
            vs.append(float(val))
    if len(set(ts)) < 3:
        raise IndeterminateResult(
            f"rate fit needs at least 3 positive points with distinct horizons, got {len(set(ts))}"
        )
    lt = np.log(np.array(ts))
    lv = np.log(np.array(vs))
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                   window=(min(ts), max(ts)), n_points=len(ts))


def fit_window(tmin: float, tmax: float, what: str) -> tuple[float, float]:
    """A fit_rate window [tmin, tmax]: finite bounds, tmin <= tmax; else a
    ConfigError naming ``what``."""
    window = (config_float(tmin, f"{what} Tmin"), config_float(tmax, f"{what} Tmax"))
    if window[0] > window[1]:
        raise ConfigError(f"{what} has an empty window: Tmin > Tmax")
    return window


def burnin_count(n_points: int) -> int:
    """Dyadic points dropped before fitting: transients dominate early iterates."""
    return math.ceil(0.1 * n_points)


# ---------------------------------------------------------------------------
# Verdicts and checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceVerdict:
    check_id: str
    passed: bool
    worst_violation: float
    first_violation_step: Optional[int] = None

    def to_dict(self) -> dict:
        worst = float(self.worst_violation)
        return {"check_id": self.check_id, "passed": bool(self.passed),
                "worst_violation": worst if math.isfinite(worst) else None,
                "first_violation_step": None if self.first_violation_step is None
                else int(self.first_violation_step)}


def distance_to_nash(game: Game, x) -> float:
    """Euclidean distance from x to the game's Nash set, via its oracle."""
    vec = _as_flat(game, x)
    return float(np.linalg.norm(vec - project_to_nash(game, vec)))


def variance_budget(noise: NoiseModel, T: int) -> float:
    """Averaged noise-variance budget over a horizon.

    Relative noise: (1/(T+1)) sum_{t<T} tau_t. Absolute noise:
    (1/(T+1)) sum_{t<T} (t+1) sigma_t^2. This is the analytic decay target
    that last-iterate rates are compared against.
    """
    if T < 1:
        raise ValueError("horizon must be at least 1")
    if isinstance(noise, NoNoise):
        return 0.0
    if isinstance(noise, RelativeNoise):
        return float(noise.tau.values(0, T).sum() / (T + 1.0))
    if isinstance(noise, AbsoluteNoise):
        weights = np.arange(1.0, T + 1.0)
        return float((weights * noise.sigma_sq.values(0, T)).sum() / (T + 1.0))
    raise TypeError(f"unknown noise model {type(noise).__name__}")


def budget_curve(noise: NoiseModel, horizons: Sequence[int]) -> list[tuple[float, float]]:
    return [(float(T), variance_budget(noise, int(T))) for T in horizons]


def slope_verdict(points: Sequence[tuple[float, float]], bound: float, check_id: str,
                  window: Optional[tuple[float, float]] = None) -> ConvergenceVerdict:
    """Pass when the fitted log-log slope is <= bound.

    A curve whose final value is exactly zero converged in finite time and
    passes outright (any decay target is met); an otherwise unfittable curve
    fails.
    """
    pts = list(points)
    if pts and pts[-1][1] == 0.0:
        return ConvergenceVerdict(check_id, passed=True, worst_violation=-math.inf)
    try:
        fit = fit_rate(pts, window=window)
    except IndeterminateResult:
        return ConvergenceVerdict(check_id, passed=False, worst_violation=math.inf)
    return ConvergenceVerdict(check_id, passed=fit.slope <= bound,
                              worst_violation=fit.slope - bound)


# ---------------------------------------------------------------------------
# Named checks (config `checks` entries, "name[:arg]")
# ---------------------------------------------------------------------------

# The mean curves a slope check can name, each with its key in report curves.
CURVES = {"last_iterate": "mean_gap", "time_average": "mean_time_avg_gap",
          "distance": "mean_distance"}


@dataclass(frozen=True)
class CheckSpec:
    """A parsed check id. ``value`` is the tail_to_zero factor, distance_below
    threshold or slope_below bound; ``curve`` and ``window`` belong to
    slope_below, the one report-level check.
    """

    check_id: str
    name: str
    value: Optional[float] = None
    curve: Optional[str] = None
    window: Optional[tuple[float, float]] = None

    @property
    def report_level(self) -> bool:
        return self.curve is not None

    def require(self, game: Game, dynamics: DynamicsConfig) -> None:
        """Raise ConfigError unless runs of these dynamics on this game have
        everything the check needs (its CHECKS entry)."""
        needs = CHECKS[self.name]
        schedule, noise = dynamics.schedule.kind, dynamics.noise.kind
        if needs.schedules is not None and schedule not in needs.schedules:
            raise ConfigError(f"check {self.check_id!r} does not apply to this configuration: it needs "
                              f"the {' or '.join(needs.schedules)} schedule, got {schedule}")
        if needs.noiseless and noise != "none":
            raise ConfigError(f"check {self.check_id!r} does not apply to this configuration: it needs "
                              f"noiseless runs, got {noise} noise")
        if dynamics.horizon < needs.horizon:
            raise ConfigError(f"check {self.check_id!r} needs a horizon of at least {needs.horizon}")
        if (needs.oracle or self.curve == "distance") and game.nash_oracle is None:
            raise ConfigError(f"check {self.check_id!r} needs a game with a Nash oracle")
        if needs.cocoercivity and game.cocoercivity is None:
            raise ConfigError(f"check {self.check_id!r} needs a game with a known cocoercivity")


def _first_above(values: Array, limit: float, top: float) -> Optional[int]:
    """The index of the first of ``values`` above limit, or None; top is their maximum.

    Only a top that is not at or below the limit (NaN included) needs the
    search: otherwise no value is above it.
    """
    if top <= limit:
        return None
    above = np.flatnonzero(values > limit)
    return int(above[0]) if above.size else None


def _state_distances(states: Array, p: Array) -> Array:
    """The distance of each row of states from the point p, with the bits of
    np.linalg.norm(states - p, axis=1).

    That norm sums each row's squares in order, so for n <= 2 the squares
    are summed by columns, as sqrt(d0 * d0 + d1 * d1): its axis-1 sum over
    two columns was the slow part. np.vecdot would be faster still, but it
    differs in the last bit.
    """
    if states.shape[1] > 2:
        return np.linalg.norm(states - p, axis=1)
    d = states[:, 0] - p[0]
    sq = d * d
    if states.shape[1] == 2:
        d = states[:, 1] - p[1]
        sq += d * d
    return np.sqrt(sq, out=sq)


def _check_descent_invariants(spec, record, game) -> list[ConvergenceVerdict]:
    """Gradient-norm monotonicity, iterate boundedness and gap summability
    for a noiseless constant-step run with eta in (0, lambda], where eta is
    the record's step size and lambda the game's cocoercivity.
    """
    verdicts = []

    norms = np.sqrt(record.gap)
    tol_mono = 1e-10 * (1.0 + float(norms[0]))
    diffs = norms[1:] - norms[:-1]
    worst = float(diffs.max()) if diffs.size else -math.inf
    first = _first_above(diffs, tol_mono, worst)
    verdicts.append(ConvergenceVerdict(
        "descent.grad_norm_monotone", passed=worst <= tol_mono, worst_violation=worst,
        first_violation_step=None if first is None else first + 1))

    x0 = record.states[0]
    p0 = project_to_nash(game, x0)
    d0 = float(np.linalg.norm(x0 - p0))
    dists = _state_distances(record.states, p0)
    far = float(dists.max())
    first = _first_above(dists, d0 + 1e-9, far)
    verdicts.append(ConvergenceVerdict(
        "descent.iterate_bounded", passed=far - d0 <= 1e-9,
        worst_violation=far - d0,  # the largest dists - d0: rounding is monotone
        first_violation_step=None if first is None else int(record.state_steps[first])))

    total = float(record.gap.sum())
    bound = d0 * d0 / (record.config["schedule"]["eta"] * game.cocoercivity)
    verdicts.append(ConvergenceVerdict(
        "descent.gap_summable", passed=total <= bound + 1e-6, worst_violation=total - bound,
        first_violation_step=None))
    return verdicts


def _check_eta_monotone(spec, record, game) -> list[ConvergenceVerdict]:
    diffs = np.diff(record.eta)
    worst = float(diffs.max()) if diffs.size else -math.inf
    first = _first_above(diffs, 0.0, worst)
    return [ConvergenceVerdict(spec.check_id, passed=worst <= 0, worst_violation=worst,
                               first_violation_step=None if first is None else first + 1)]


def _check_beta_stable(spec, record, game) -> list[ConvergenceVerdict]:
    T = len(record.beta) - 1
    worst = float(record.beta[T] - record.beta[T // 2])
    return [ConvergenceVerdict(spec.check_id, passed=worst == 0.0, worst_violation=worst)]


# The unit roundoff, and the spacing of the floats below the normal range.
_U = 2.0 ** -53
_TINY = 2.0 ** -1074


def _check_gap_step_consistency(spec, record, game) -> list[ConvergenceVerdict]:
    """Each step's squared norm against eta^2 times its gap, to within its rounding.

    A noiseless step moves x by d = fl(x + fl(eta v)) - x and logs the gap
    fl(||v||^2). Each coordinate of d is off eta v_i by at most half an ulp
    of the new state, plus relative errors of u = 2^-53 in fl(eta v) and in
    the subtraction. So | ||d||^2 - ||eta v||^2 |, at most
    ||d - eta v|| (||d|| + ||eta v||), is bounded by r (sqrt(n) ulp(X) + u r)
    with r = ||d|| + ||eta v||, where X bounds every coordinate of the
    states before and after the step: the largest |x0| plus the running
    sum of the step norms. The bound doubles that (a coordinate just past X
    may have twice its ulp) and adds the rounding of both squared norms,
    relative (n + 2) u, and absolute below the normal range (floor). The
    verdict's worst_violation is the largest ratio of a difference to its
    bound, and a ratio above 1 (or NaN, once a run diverged) fails.

    Steps whose two sides are equal have ratio 0, and only the others get
    a bound: in a converged run most steps are 0.0 on both sides, and the
    floor's subnormal arithmetic on them made the check 8x slower.
    """
    n = len(record.config["x0"])
    S = record.step_norm_sq
    E = record.eta ** 2 * record.gap[:-1]
    diff = np.abs(S - E)
    steps = np.flatnonzero(diff != 0.0)  # NaN included
    end = steps[-1] + 1 if steps.size else 0
    X = max(map(abs, record.config["x0"])) + np.add.accumulate(np.sqrt(S[:end]))[steps]
    S, E, diff, eta_sq = S[steps], E[steps], diff[steps], record.eta[steps] ** 2
    floor = (2 * n + 4) * _TINY * (1.0 + eta_sq)
    r = np.sqrt(S + floor) + np.sqrt(E + floor)
    bound = r * (2.0 * math.sqrt(n) * np.spacing(X) + (n + 4) * _U * r) + floor
    ratio = diff / bound
    worst = float(ratio.max()) if ratio.size else 0.0
    bad = steps[~(ratio <= 1.0)]
    return [ConvergenceVerdict(spec.check_id, passed=not bad.size, worst_violation=worst,
                               first_violation_step=int(bad[0]) if bad.size else None)]


def _check_no_divergence(spec, record, game) -> list[ConvergenceVerdict]:
    return [ConvergenceVerdict(spec.check_id, passed=not record.diverged,
                               worst_violation=1.0 if record.diverged else 0.0,
                               first_violation_step=record.divergence_step)]


def _check_tail_to_zero(spec, record, game) -> list[ConvergenceVerdict]:
    series = tail_product(record)
    burn = burnin_count(len(series.value))
    if burn == len(series.value):  # a trial that diverged by step 2: no point after burn-in
        return [ConvergenceVerdict(spec.check_id, passed=False, worst_violation=math.inf)]
    ok = vanishes_monotonically(series.value, burnin=burn, drop_factor=spec.value)
    final, first = series.value[-1], series.value[burn]
    worst = 0.0 if first == 0.0 else float(final / max(first, 1e-300))
    return [ConvergenceVerdict(spec.check_id, passed=ok, worst_violation=worst)]


def _check_distance_below(spec, record, game) -> list[ConvergenceVerdict]:
    dist = distance_to_nash(game, record.final_state)
    return [ConvergenceVerdict(spec.check_id, passed=dist < spec.value,
                               worst_violation=dist - spec.value)]


class _Needs(NamedTuple):
    run: Optional[Callable]                      # per-trial check; None: report-level
    schedules: Optional[tuple[str, ...]] = None  # schedule kinds it applies to; None: any
    noiseless: bool = False                      # applies to noiseless runs only
    horizon: int = 1                             # the shortest horizon it applies to
    oracle: bool = False                         # the game must have a Nash oracle
    cocoercivity: bool = False                   # the game must know its cocoercivity
    step_norms: bool = False                     # it reads the record's step norms


# Every check and what it needs of a run; CheckSpec.require tests each need.
CHECKS = {
    "descent_invariants": _Needs(_check_descent_invariants, ("constant",), noiseless=True,
                                 oracle=True, cocoercivity=True),
    "eta_monotone": _Needs(_check_eta_monotone),
    "beta_stable": _Needs(_check_beta_stable, ("grad_norm",)),
    "gap_step_consistency": _Needs(_check_gap_step_consistency, noiseless=True,
                                   step_norms=True),
    "no_divergence": _Needs(_check_no_divergence),
    # no tail point of a shorter run survives burn-in
    "tail_to_zero": _Needs(_check_tail_to_zero, horizon=3),
    "distance_below": _Needs(_check_distance_below, oracle=True),
    "slope_below": _Needs(None),  # needs an oracle only on the distance curve
}


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None


def _number(text: str, what: str) -> float:
    return config_float(_float(text, what), what)  # rejects nan and inf


def parse_check(check_id) -> CheckSpec:
    """Parse a config check id.

    The one place check ids are split. An unknown check, a malformed
    argument and an unknown slope curve are each a ConfigError; what the
    check needs of a run is tested by CheckSpec.require.
    """
    if not isinstance(check_id, str):
        raise ConfigError(f"check ids must be strings, got {check_id!r}")
    name, sep, arg = check_id.partition(":")
    if name not in CHECKS:
        raise ConfigError(f"unknown check id {check_id!r}; available: {sorted(CHECKS)}")
    if name == "slope_below":  # slope_below:<curve>:<bound>[:Tmin:Tmax]
        parts = check_id.split(":")
        if len(parts) not in (3, 5):
            raise ConfigError(f"malformed slope check {check_id!r}; "
                              "expected slope_below:<curve>:<bound>[:Tmin:Tmax]")
        if parts[1] not in CURVES:
            raise ConfigError(f"slope check {check_id!r} names unknown curve {parts[1]!r}; "
                              f"available: {list(CURVES)}")
        window = (None if len(parts) == 3 else
                  fit_window(_float(parts[3], "slope_below Tmin"),
                             _float(parts[4], "slope_below Tmax"), f"slope check {check_id!r}"))
        return CheckSpec(check_id, name, _number(parts[2], "slope_below bound"), parts[1], window)
    if name == "tail_to_zero":
        if not sep:
            return CheckSpec(check_id, name, 1e-3)
        factor = _number(arg, "tail_to_zero factor")
        if not factor > 0.0:  # a tail's last point is >= 0, and the test is strict
            raise ConfigError(f"tail_to_zero factor must be positive, got {arg!r}")
        return CheckSpec(check_id, name, factor)
    if name == "distance_below":
        if not sep:
            raise ConfigError("distance_below needs a threshold, e.g. distance_below:1e-3")
        threshold = _number(arg, "distance_below threshold")
        if not threshold > 0.0:  # a distance is >= 0, and the test is strict
            raise ConfigError(f"distance_below threshold must be positive, got {arg!r}")
        return CheckSpec(check_id, name, threshold)
    if sep:
        raise ConfigError(f"check {name!r} takes no argument, got {check_id!r}")
    return CheckSpec(check_id, name)


def run_check(spec: CheckSpec, record: TrajectoryRecord, game: Game) -> list[ConvergenceVerdict]:
    """Run one parsed per-trial check on a trial's record."""
    needs = CHECKS[spec.name]
    if needs.run is None:
        raise ValueError(f"{spec.check_id!r} is a report-level check")
    if needs.step_norms and record.step_norm_sq is None:
        raise ValueError(f"{spec.check_id!r} reads step norms, and this record has none: "
                         "run the trial with step_norms=True")
    return needs.run(spec, record, game)
