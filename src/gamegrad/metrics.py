"""Convergence diagnostics: the optimality gap, rate fits, invariant checks.

Everything here is a pure function over immutable trajectory records; the
harness composes these into per-run verdicts and report-level rate fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import AbsoluteNoise, NoiseModel, NoNoise, RelativeNoise, TrajectoryRecord
from .errors import ConfigError, IndeterminateResult, UnsupportedOperation
from .games import Game, project_to_nash

Array = np.ndarray


# ---------------------------------------------------------------------------
# Gap curves
# ---------------------------------------------------------------------------

def optimality_gap(game: Game, x) -> float:
    """Squared norm of the joint gradient; zero exactly on the Nash set."""
    from .games import gradient_field
    v = gradient_field(game, x).flat
    return float(v @ v)


def _gap_series(traj) -> Array:
    if isinstance(traj, TrajectoryRecord):
        return traj.gap
    arr = np.asarray(traj, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("empty gap series")
    return arr


def time_average_gap(traj) -> Array:
    """Prefix means of the gap series: entry T holds (1/(T+1)) sum_{t<=T} gap_t."""
    gap = _gap_series(traj)
    return np.cumsum(gap) / np.arange(1.0, gap.size + 1.0)


class TailSeries(NamedTuple):
    T: Array        # dyadic horizons 1, 2, 4, ...
    value: Array    # T * gap_{2T-1}
    truncated: bool


def tail_product(traj, doublings: Optional[int] = None) -> TailSeries:
    """The series T * gap_{2T-1} over dyadic T; tends to 0 on conforming runs."""
    gap = _gap_series(traj)
    points = (gap.size // 2).bit_length()  # the T = 2^k with 2T - 1 < gap.size
    truncated = doublings is not None and points < doublings
    if doublings is not None:
        points = min(points, doublings)
    if points < 1:
        raise ValueError("trajectory too short for any dyadic tail point")
    T = np.left_shift(1, np.arange(points))
    return TailSeries(T.astype(float), T * gap[2 * T - 1], truncated)


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

    @staticmethod
    def from_dict(doc: dict) -> "RateFit":
        return RateFit(doc["slope"], doc["intercept"], doc["residual_rms"],
                       tuple(doc["window"]), doc["n_points"])


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


def burnin_count(n_points: int, fraction: float = 0.1) -> int:
    """Dyadic points dropped before fitting: transients dominate early iterates."""
    return math.ceil(fraction * n_points)


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

    @staticmethod
    def from_dict(doc: dict) -> "ConvergenceVerdict":
        worst = doc["worst_violation"]
        return ConvergenceVerdict(doc["check_id"], doc["passed"],
                                  math.nan if worst is None else worst,
                                  doc.get("first_violation_step"))


def _require_noiseless_constant(record: TrajectoryRecord, what: str) -> float:
    sched = record.config.get("schedule", {})
    noise = record.config.get("noise", {})
    if sched.get("kind") != "constant" or noise.get("kind", "none") != "none":
        raise UnsupportedOperation(f"{what} applies to noiseless constant-step runs only")
    return float(sched["eta"])


def check_descent_invariants(record: TrajectoryRecord, game: Game, eta: float, lam: float) -> list[ConvergenceVerdict]:
    """Gradient-norm monotonicity, iterate boundedness and gap summability
    for a noiseless constant-step run with eta in (0, lambda].
    """
    _require_noiseless_constant(record, "the descent-invariants check")
    verdicts = []

    norms = np.sqrt(record.gap)
    tol_mono = 1e-10 * (1.0 + float(norms[0]))
    diffs = norms[1:] - norms[:-1]
    worst = float(diffs.max()) if diffs.size else -math.inf
    bad = np.nonzero(diffs > tol_mono)[0]
    verdicts.append(ConvergenceVerdict(
        "descent.grad_norm_monotone", passed=worst <= tol_mono, worst_violation=worst,
        first_violation_step=int(bad[0]) + 1 if bad.size else None))

    x0 = record.states[0]
    p0 = project_to_nash(game, x0).flat
    d0 = float(np.linalg.norm(x0 - p0))
    dists = np.linalg.norm(record.states - p0, axis=1)
    worst = float((dists - d0).max())
    bad = np.nonzero(dists > d0 + 1e-9)[0]
    verdicts.append(ConvergenceVerdict(
        "descent.iterate_bounded", passed=worst <= 1e-9, worst_violation=worst,
        first_violation_step=int(record.state_steps[bad[0]]) if bad.size else None))

    total = float(record.gap.sum())
    bound = d0 * d0 / (eta * lam)
    verdicts.append(ConvergenceVerdict(
        "descent.gap_summable", passed=total <= bound + 1e-6, worst_violation=total - bound,
        first_violation_step=None))
    return verdicts


def distance_to_nash(game: Game, x) -> float:
    """Euclidean distance from x to the game's Nash set, via its oracle."""
    from .games import _as_flat
    vec = _as_flat(game, x)
    proj = project_to_nash(game, vec).flat
    return float(np.linalg.norm(vec - proj))


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
                  window: Optional[tuple[float, float]] = None,
                  burnin: int = 0) -> ConvergenceVerdict:
    """Pass when the fitted log-log slope is <= bound.

    A curve whose final value is exactly zero converged in finite time and
    passes outright (any decay target is met); an otherwise unfittable curve
    fails.
    """
    pts = list(points)[burnin:]
    if pts and pts[-1][1] == 0.0:
        return ConvergenceVerdict(check_id, passed=True, worst_violation=-math.inf)
    try:
        fit = fit_rate(pts, window=window)
    except IndeterminateResult:
        return ConvergenceVerdict(check_id, passed=False, worst_violation=math.inf)
    return ConvergenceVerdict(check_id, passed=fit.slope <= bound,
                              worst_violation=fit.slope - bound)


# ---------------------------------------------------------------------------
# Named per-trial checks (config `checks` entries; "name:arg" parameterized)
# ---------------------------------------------------------------------------

def _check_descent_invariants_entry(record: TrajectoryRecord, game: Game, arg: Optional[str]) -> list[ConvergenceVerdict]:
    eta = _require_noiseless_constant(record, "the descent-invariants check")
    if game.cocoercivity is None or game.nash_oracle is None:
        raise UnsupportedOperation("descent-invariants check needs a game with known cocoercivity and Nash oracle")
    return check_descent_invariants(record, game, eta, game.cocoercivity)


def _check_eta_monotone(record, game, arg) -> list[ConvergenceVerdict]:
    diffs = np.diff(record.eta)
    worst = float(diffs.max()) if diffs.size else -math.inf
    bad = np.nonzero(diffs > 0)[0]
    return [ConvergenceVerdict("eta_monotone", passed=worst <= 0, worst_violation=worst,
                               first_violation_step=int(bad[0]) + 1 if bad.size else None)]


def _check_beta_stable(record, game, arg) -> list[ConvergenceVerdict]:
    if record.beta is None:
        raise UnsupportedOperation("beta_stable applies to grad_norm schedule runs only")
    T = len(record.beta) - 1
    worst = float(record.beta[T] - record.beta[T // 2])
    return [ConvergenceVerdict("beta_stable", passed=worst == 0.0, worst_violation=worst)]


def _check_gap_step_consistency(record, game, arg) -> list[ConvergenceVerdict]:
    noise = record.config.get("noise", {})
    if noise.get("kind", "none") != "none":
        raise UnsupportedOperation("gap_step_consistency applies to noiseless runs only")
    expected = record.eta ** 2 * record.gap[:-1]
    scale = np.maximum(np.abs(expected), 1e-300)
    rel = np.abs(record.step_norm_sq - expected) / scale
    worst = float(rel.max()) if rel.size else 0.0
    bad = np.nonzero(rel > 1e-12)[0]
    return [ConvergenceVerdict("gap_step_consistency", passed=worst <= 1e-12, worst_violation=worst,
                               first_violation_step=int(bad[0]) if bad.size else None)]


def _check_no_divergence(record, game, arg) -> list[ConvergenceVerdict]:
    return [ConvergenceVerdict("no_divergence", passed=not record.diverged,
                               worst_violation=1.0 if record.diverged else 0.0,
                               first_violation_step=record.divergence_step)]


def _check_tail_to_zero(record, game, arg) -> list[ConvergenceVerdict]:
    factor = _tail_factor(arg)
    series = tail_product(record)
    burn = burnin_count(len(series.value))
    ok = vanishes_monotonically(series.value, burnin=burn, drop_factor=factor)
    final, first = series.value[-1], series.value[burn]
    worst = 0.0 if first == 0.0 else float(final / max(first, 1e-300))
    return [ConvergenceVerdict(f"tail_to_zero:{factor:g}", passed=ok, worst_violation=worst)]


def _check_distance_below(record, game, arg) -> list[ConvergenceVerdict]:
    thresh = _distance_threshold(arg)
    dist = distance_to_nash(game, record.final_state)
    return [ConvergenceVerdict(f"distance_below:{thresh:g}", passed=dist < thresh,
                               worst_violation=dist - thresh)]


CHECKS = {
    "descent_invariants": _check_descent_invariants_entry,
    "eta_monotone": _check_eta_monotone,
    "beta_stable": _check_beta_stable,
    "gap_step_consistency": _check_gap_step_consistency,
    "no_divergence": _check_no_divergence,
    "tail_to_zero": _check_tail_to_zero,
    "distance_below": _check_distance_below,
}

# Report-level checks evaluated on cross-trial curves rather than single runs.
REPORT_CHECKS = ("slope_below",)


def parse_check_id(check_id: str) -> tuple[str, Optional[str]]:
    name, sep, arg = check_id.partition(":")
    return name, (arg if sep else None)


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None


def _tail_factor(arg: Optional[str]) -> float:
    return _number(arg, "tail_to_zero factor") if arg else 1e-3


def _distance_threshold(arg: Optional[str]) -> float:
    if arg is None:
        raise ConfigError("distance_below needs a threshold, e.g. distance_below:1e-3")
    return _number(arg, "distance_below threshold")


def parse_slope_check(check_id: str) -> tuple[str, float, Optional[tuple[float, float]]]:
    """Split 'slope_below:<curve>:<bound>[:Tmin:Tmax]' into curve, bound and window."""
    parts = check_id.split(":")
    if len(parts) not in (3, 5):
        raise ConfigError(f"malformed slope check {check_id!r}; "
                          "expected slope_below:<curve>:<bound>[:Tmin:Tmax]")
    window = None
    if len(parts) == 5:
        window = (_number(parts[3], "slope_below Tmin"), _number(parts[4], "slope_below Tmax"))
    return parts[1], _number(parts[2], "slope_below bound"), window


def validate_check_id(check_id) -> None:
    """Reject an unknown check or a malformed check argument, before any trial runs."""
    if not isinstance(check_id, str):
        raise ConfigError(f"check ids must be strings, got {check_id!r}")
    name, arg = parse_check_id(check_id)
    if name not in CHECKS and name not in REPORT_CHECKS:
        raise ConfigError(f"unknown check id {check_id!r}")
    if name == "tail_to_zero":
        _tail_factor(arg)
    elif name == "distance_below":
        _distance_threshold(arg)
    elif name == "slope_below":
        parse_slope_check(check_id)
    elif arg is not None:
        raise ConfigError(f"check {name!r} takes no argument, got {check_id!r}")


def run_check(check_id: str, record: TrajectoryRecord, game: Game) -> list[ConvergenceVerdict]:
    """Run one named per-trial check; unknown names are rejected."""
    name, arg = parse_check_id(check_id)
    if name not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; available: {sorted(CHECKS)} "
                         f"plus report-level {sorted(REPORT_CHECKS)}")
    return CHECKS[name](record, game, arg)
