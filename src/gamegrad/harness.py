"""Multi-trial seeded execution, aggregation and persistence.

Trials draw independent Philox streams keyed by (master_seed, trial index),
so results do not depend on execution order or worker count; aggregation is
a fixed-order reduction over trial indices. An experiment builds its game
once, and its trials run in contiguous blocks, one per worker. A one-block
run steps in the calling process; only two or more blocks import and start
a process pool (``concurrent.futures.process``, ``multiprocessing``), whose
workers each build their own copy of the game, as its closures do not
pickle. Games
without an unrolled runner body step a whole block in lock-step, whose rows
are block-independent. Reports serialize to JSON with sorted keys, making
repeated runs of the same config byte-identical.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from . import metrics
from ._version import __version__
from .dynamics import (
    DynamicsConfig,
    NoNoise,
    TrajectoryRecord,
    dyadic_steps,
    run_lockstep,
    run_trajectory,
    runner_body,
)
from .errors import (
    ConfigError,
    IndeterminateResult,
    config_dict,
    config_float,
    config_int,
    config_section,
)
from .games import Game, GameSpec, make_game

SCHEMA_VERSION = "1.0"

# Trajectory rows formatted and written at a time, bounding the text held.
_WRITE_ROWS = 4096


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    game: GameSpec
    dynamics: DynamicsConfig
    trials: int = 1
    master_seed: int = 0
    checks: tuple[str, ...] = ()
    trajectory_dir: Optional[str] = None
    check_specs: tuple[metrics.CheckSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.trajectory_dir is not None and not isinstance(self.trajectory_dir, str):
            raise ConfigError(f"trajectory_dir must be a string or null, got {self.trajectory_dir!r}")
        object.__setattr__(self, "check_specs",
                           tuple(metrics.parse_check(cid, self.dynamics) for cid in self.checks))

    def to_dict(self) -> dict:
        return {
            "game": self.game.to_dict(),
            "dynamics": self.dynamics.to_dict(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "checks": list(self.checks),
            "trajectory_dir": self.trajectory_dir,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        config_section(doc, "experiment config", ("game", "dynamics"),
                       ("trials", "master_seed", "checks", "trajectory_dir"))
        dynamics = DynamicsConfig.from_dict(doc["dynamics"])
        checks = doc.get("checks", [])
        if not isinstance(checks, (list, tuple)):
            raise ConfigError(f"checks must be a list of check ids, got {checks!r}")
        return ExperimentConfig(
            game=GameSpec.from_dict(doc["game"]),
            dynamics=dynamics,
            trials=config_int(doc.get("trials", 1), "trials"),
            master_seed=config_int(doc.get("master_seed", 0), "master_seed"),
            checks=tuple(checks),
            trajectory_dir=doc.get("trajectory_dir"),
        )


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial, independent of execution order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[master_seed, trial])))


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class TrialSummary:
    trial: int
    final_gap: Optional[float]
    final_distance: Optional[float]
    diverged: bool
    divergence_step: Optional[int]

    def to_dict(self) -> dict:
        return {"trial": self.trial, "final_gap": self.final_gap,
                "final_distance": self.final_distance, "diverged": self.diverged,
                "divergence_step": self.divergence_step}

    @staticmethod
    def from_dict(doc: dict) -> "TrialSummary":
        return TrialSummary(doc["trial"], doc["final_gap"], doc["final_distance"],
                            doc["diverged"], doc.get("divergence_step"))


@dataclass
class ExperimentReport:
    schema_version: str
    provenance: dict
    config: dict
    trials: list[TrialSummary]
    curve_steps: list[int]
    mean_gap: list[Optional[float]]
    stderr_gap: list[Optional[float]]
    mean_time_avg_gap: list[Optional[float]]
    mean_distance: Optional[list[Optional[float]]]
    fits: dict[str, Optional[dict]]
    checks: list[dict]
    all_diverged: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "provenance": self.provenance,
            "config": self.config,
            "trials": [t.to_dict() for t in self.trials],
            "curves": {
                "steps": self.curve_steps,
                "mean_gap": self.mean_gap,
                "stderr_gap": self.stderr_gap,
                "mean_time_avg_gap": self.mean_time_avg_gap,
                "mean_distance": self.mean_distance,
            },
            "fits": self.fits,
            "checks": self.checks,
            "all_diverged": self.all_diverged,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentReport":
        config_dict(doc, "report")
        try:
            version = doc["schema_version"]
            if str(version).split(".")[0] != SCHEMA_VERSION.split(".")[0]:
                raise ConfigError(f"unsupported report schema major version {version!r}")
            curves = config_dict(doc["curves"], "report curves")
            steps = _curve_values(curves, "steps", None)
            trials = doc["trials"]
            if not isinstance(trials, list):
                raise ConfigError(f"report trials must be a list, got {trials!r}")
            return ExperimentReport(
                schema_version=version,
                provenance=doc["provenance"],
                config=doc["config"],
                trials=[TrialSummary.from_dict(config_dict(t, f"report trials[{i}]"))
                        for i, t in enumerate(trials)],
                curve_steps=steps,
                mean_gap=_curve_values(curves, "mean_gap", len(steps)),
                stderr_gap=_curve_values(curves, "stderr_gap", len(steps)),
                mean_time_avg_gap=_curve_values(curves, "mean_time_avg_gap", len(steps)),
                mean_distance=(None if curves["mean_distance"] is None
                               else _curve_values(curves, "mean_distance", len(steps))),
                fits=doc["fits"],
                checks=doc["checks"],
                all_diverged=doc["all_diverged"],
            )
        except KeyError as exc:
            raise ConfigError(f"report document is missing field {exc}") from None

    def curve(self, name: str) -> list[tuple[float, float]]:
        """Dyadic (step, value) points of a named mean curve, skipping gaps."""
        series = dict(zip(metrics.CURVES,
                          (self.mean_gap, self.mean_time_avg_gap, self.mean_distance)))
        if name not in series or series[name] is None:
            available = [k for k, v in series.items() if v is not None]
            raise ConfigError(f"report has no curve {name!r}; available: {available}")
        return [(float(t), float(v)) for t, v in zip(self.curve_steps, series[name]) if v is not None]

    def failed_checks(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]


def _curve_values(curves: dict, key: str, length: Optional[int]) -> list:
    """curves[key], checked: the steps (length None), or a number or null per step."""
    values = curves[key]
    if not isinstance(values, list):
        raise ConfigError(f"report curves.{key} must be a list, got {values!r}")
    if length not in (None, len(values)):
        raise ConfigError(f"report curves.{key} has {len(values)} entries, curves.steps has {length}")
    for i, v in enumerate(values):
        if v is not None or length is None:
            config_float(v, f"report curves.{key}[{i}]")
    return values


def write_report(report: ExperimentReport, path: str) -> None:
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_report(path: str) -> ExperimentReport:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed report {path}: {exc}") from None
    return ExperimentReport.from_dict(doc)


# ---------------------------------------------------------------------------
# Trajectory persistence (newline-delimited records, header first)
# ---------------------------------------------------------------------------

def write_trajectory(record: TrajectoryRecord, path: str,
                     eta_text: Optional[list[str]] = None) -> None:
    """Stream one trajectory to disk: a header line, then one line per step t.

    Every line is what ``json.dumps(row, sort_keys=True)`` writes for it.
    A step line has the keys ``beta`` (only on grad_norm runs), ``eta``,
    ``gap``, ``step_norm_sq`` (neither eta nor step_norm_sq on the final
    row), ``t``, and ``x`` at logged steps. Floats are written as their
    Python ``repr`` and non-finite values (reached as a run diverges) as
    ``null``, so the file is byte-deterministic for a fixed config and
    seed. The columns are formatted and written ``_WRITE_ROWS`` rows at a
    time: one repr pass over each column slice and one f-string per line.

    ``eta_text`` is the eta column's text, formatted once from the
    schedule's step sizes when the schedule gives every trial the same ones
    (constant, power; see _block_payloads): each record's eta is a prefix
    of that sequence, so its rows take their share of the list, and a
    diverged record a shorter share.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {"type": "header", "game": record.game_name, "config": record.config,
                  "seed": record.seed, "horizon": record.horizon,
                  "diverged": record.diverged, "divergence_step": record.divergence_step}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, len(record.gap), _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, len(record.gap))
            fh.write("".join(_step_lines(record, lo, hi, eta_text)))


def _step_lines(record: TrajectoryRecord, lo: int, hi: int,
                eta_text: Optional[list[str]]) -> list[str]:
    """The lines of steps lo..hi-1 (hi <= len(record.gap))."""
    gap = _reprs(record.gap[lo:hi])
    eta = (_reprs(record.eta[lo:hi]) if eta_text is None
           else eta_text[lo:min(hi, len(record.eta))])
    step = _reprs(record.step_norm_sq[lo:hi])
    if record.beta is None:
        beta = [""] * (hi - lo)
    else:
        beta = [f'"beta": {v}, ' for v in _reprs(record.beta[lo:hi])]
    ends = ["}\n"] * (hi - lo)
    first, last = np.searchsorted(record.state_steps, (lo, hi))
    n = record.states.shape[1]
    xs = _reprs(record.states[first:last].ravel())
    for k, t in enumerate(record.state_steps[first:last].tolist()):
        ends[t - lo] = f', "x": [{", ".join(xs[k * n:(k + 1) * n])}]}}\n'
    lines = [f'{{{bt}"eta": {e}, "gap": {g}, "step_norm_sq": {s}, "t": {t}{x}'
             for t, bt, e, g, s, x in zip(range(lo, hi), beta, eta, gap, step, ends)]
    # zip stops at the shortest column; the rows past it (the final row,
    # which has no step) are written key by key.
    for i in range(len(lines), hi - lo):
        bt = beta[i] if i < len(beta) else ""
        e, s = (f'"eta": {eta[i]}, ', f'"step_norm_sq": {step[i]}, ') if i < len(eta) else ("", "")
        lines.append(f'{{{bt}{e}"gap": {gap[i]}, {s}"t": {lo + i}{ends[i]}')
    return lines


def _reprs(values: np.ndarray) -> list[str]:
    """Each float as json.dumps writes it: its repr, or null if not finite."""
    out = list(map(float.__repr__, values.tolist()))
    finite = np.isfinite(values)
    if not finite.all():
        for i in np.flatnonzero(~finite).tolist():
            out[i] = "null"
    return out


def iter_trajectory(path: str):
    """Yield the parsed header and step records of a trajectory file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def _json_float(v) -> Optional[float]:
    v = float(v)
    return v if math.isfinite(v) else None


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def build_game(config: ExperimentConfig) -> Game:
    """The config's game, checked for what its dynamics and checks read of it.

    Raises ConfigError when make_game rejects the spec, when x0's length
    differs from the game's dimension, or when the game lacks what a check
    reads (a Nash oracle, a known cocoercivity).
    """
    game = make_game(config.game)
    if len(config.dynamics.x0) != game.n:
        raise ConfigError(f"x0 has length {len(config.dynamics.x0)}, game dimension is {game.n}")
    for spec in config.check_specs:
        spec.require_game(game)
    return game


def _block_payloads(config: ExperimentConfig, game: Game, trials: range) -> list[dict]:
    """Run a contiguous block of trials on the config's game (from build_game).

    Each trial is reduced to its payload. Games with an unrolled runner body
    run one trial at a time; every other game steps the block in lock-step
    (run_lockstep, which splits it to bound the record memory). When the
    block writes trajectories and its schedule gives every trial the same
    step sizes, their text is formatted once from the schedule's sequence
    and each trial's file takes its share (see write_trajectory).
    """
    seed, dynamics = config.master_seed, config.dynamics
    eta_text = None
    if config.trajectory_dir:
        os.makedirs(config.trajectory_dir, exist_ok=True)
        if dynamics.schedule.shared:
            eta_text = _reprs(dynamics.schedule.step_sizes(dynamics.horizon)[0])
    if runner_body(game) != "lockstep":
        records = (run_trajectory(game, dynamics, rng=trial_rng(seed, i)) for i in trials)
    else:
        records = run_lockstep(game, dynamics, [trial_rng(seed, i) for i in trials])
    return [_trial_payload(config, game, i, rec, eta_text) for i, rec in zip(trials, records)]


def _trial_payload(config: ExperimentConfig, game: Game, trial: int, record: TrajectoryRecord,
                   eta_text: Optional[list[str]]) -> dict:
    """Reduce one trial to the small summary the aggregator needs."""
    if config.trajectory_dir:
        write_trajectory(record, os.path.join(config.trajectory_dir, f"trial_{trial:04d}.jsonl"),
                         eta_text)

    steps = dyadic_steps(config.dynamics.horizon)
    has_oracle = game.nash_oracle is not None
    payload: dict[str, Any] = {
        "trial": trial,
        "final_gap": _json_float(record.gap[-1]),
        "diverged": record.diverged,
        "divergence_step": record.divergence_step,
        "final_distance": None,
        "gap_dyadic": None,
        "tavg_dyadic": None,
        "dist_dyadic": None,
        "verdicts": [],
    }
    if has_oracle and not record.diverged:
        payload["final_distance"] = _json_float(metrics.distance_to_nash(game, record.final_state))
    if not record.diverged:
        idx = np.asarray(steps, dtype=np.int64)
        payload["gap_dyadic"] = record.gap[idx].tolist()
        payload["tavg_dyadic"] = metrics.time_average_gap(record.gap)[idx].tolist()
        if has_oracle:
            pos = np.searchsorted(record.state_steps, idx)  # dyadics are always logged
            proj = np.stack([np.asarray(game.nash_oracle(record.states[p]), dtype=float)
                             for p in pos])
            payload["dist_dyadic"] = np.linalg.norm(record.states[pos] - proj, axis=1).tolist()
    for spec in config.check_specs:
        if not spec.report_level:
            payload["verdicts"].extend({"trial": trial, **verdict.to_dict()}
                                       for verdict in metrics.run_check(spec, record, game))
    return payload


def _mean_stderr(columns: list[list[float]]) -> tuple[list[Optional[float]], list[Optional[float]]]:
    if not columns:
        return [], []
    arr = np.asarray(columns)  # trials x steps, fixed trial order
    mean = arr.mean(axis=0)
    if arr.shape[0] >= 2:
        stderr = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    else:
        stderr = np.zeros(arr.shape[1])
    return [_json_float(v) for v in mean], [_json_float(v) for v in stderr]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run all trials, aggregate at dyadic steps, evaluate checks, fit rates."""
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    return _experiment(config, build_game(config), workers)


def _experiment(config: ExperimentConfig, game: Game, workers: int) -> ExperimentReport:
    """run_experiment on the config's game, already built by build_game."""
    doc = config.to_dict()
    payloads = _run_trials(config, game, workers)

    steps = dyadic_steps(config.dynamics.horizon)
    summaries = [TrialSummary(p["trial"], p["final_gap"], p["final_distance"],
                              p["diverged"], p["divergence_step"]) for p in payloads]
    live = [p for p in payloads if not p["diverged"]]
    all_diverged = not live

    mean_gap, stderr_gap = _mean_stderr([p["gap_dyadic"] for p in live])
    mean_tavg, _ = _mean_stderr([p["tavg_dyadic"] for p in live])
    has_dist = bool(live) and live[0]["dist_dyadic"] is not None
    mean_dist = _mean_stderr([p["dist_dyadic"] for p in live])[0] if has_dist else None
    if all_diverged:
        mean_gap = stderr_gap = mean_tavg = [None] * len(steps)
        mean_dist = None

    report = ExperimentReport(
        schema_version=SCHEMA_VERSION,
        provenance={"config_hash": config_hash(doc), "master_seed": config.master_seed,
                    "code_version": f"gamegrad {__version__}"},
        config=doc,
        trials=summaries,
        curve_steps=steps,
        mean_gap=mean_gap,
        stderr_gap=stderr_gap,
        mean_time_avg_gap=mean_tavg,
        mean_distance=mean_dist,
        fits={},
        checks=[v for p in payloads for v in p["verdicts"]],
        all_diverged=all_diverged,
    )
    burn = metrics.burnin_count(len(steps))
    for name in ("last_iterate", "time_average"):
        report.fits[name] = _fit_or_none(report.curve(name)[burn:])
    noise = config.dynamics.noise
    report.fits["noise_budget"] = (None if isinstance(noise, NoNoise)
                                   else _fit_or_none(metrics.budget_curve(noise, steps)[burn:]))
    for spec in config.check_specs:
        if spec.report_level:  # the distance curve is absent only when every trial diverged
            points = [] if all_diverged else report.curve(spec.curve)
            verdict = metrics.slope_verdict(points, spec.value, spec.check_id, window=spec.window)
            report.checks.append({"trial": None, **verdict.to_dict()})
    return report


def _fit_or_none(points: list[tuple[float, float]]) -> Optional[dict]:
    try:
        return metrics.fit_rate(points).to_dict()
    except IndeterminateResult:
        return None


def _blocks(trials: int, workers: int) -> list[range]:
    """min(workers, trials) contiguous, nonempty blocks of near-equal size."""
    k = min(workers, trials)
    bounds = [trials * j // k for j in range(k + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_trials(config: ExperimentConfig, game: Game, workers: int) -> list[dict]:
    blocks = _blocks(config.trials, workers)
    if len(blocks) == 1:
        return _block_payloads(config, game, blocks[0])
    from concurrent.futures import ProcessPoolExecutor  # only a multi-block run pays for the pool
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        return [p for payloads in pool.map(_pool_block, [config] * len(blocks), blocks)
                for p in payloads]  # trial order preserved


def _pool_block(config: ExperimentConfig, trials: range) -> list[dict]:
    """A pool worker's block: a game's closures do not pickle, so it builds its own."""
    return _block_payloads(config, build_game(config), trials)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    point: dict
    report: Optional[ExperimentReport]
    error: Optional[str]


def set_by_path(doc: dict, path: str, value) -> None:
    """Assign into a nested config dict by dotted path; the leaf must exist."""
    keys = path.split(".")
    node = doc
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"config has no entry at {path!r} (missing {k!r})")
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"config has no entry at {path!r}")
    node[keys[-1]] = value


def sweep(template: dict, grid: dict[str, Sequence], workers: int = 1) -> list[SweepEntry]:
    """One experiment per grid point (cartesian product, axis order preserved).

    The template and every grid point are parsed, and each point's game
    built and checked (build_game), before any point runs; each point then
    runs on the game built for it. A template or a point that fails either
    raises ConfigError, naming the point, with nothing run. Only a failure
    found while a point runs (say, a trajectory directory that cannot be
    made) is its entry's error.
    """
    config_dict(grid, "sweep grid")
    if not grid:
        raise ConfigError("sweep grid is empty")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    for path, values in grid.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"sweep axis {path!r} has no values")
    ExperimentConfig.from_dict(template)

    axes = list(grid.keys())
    points = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        point = dict(zip(axes, combo))
        doc = copy.deepcopy(template)
        for path, value in point.items():
            set_by_path(doc, path, value)
        try:
            config = ExperimentConfig.from_dict(doc)
            points.append((point, config, build_game(config)))
        except ConfigError as exc:
            tag = ", ".join(f"{k}={v}" for k, v in point.items())
            raise ConfigError(f"sweep point {tag}: {exc}") from None

    entries: list[SweepEntry] = []
    for point, config, game in points:
        try:
            entries.append(SweepEntry(point, _experiment(config, game, workers), None))
        except Exception as exc:  # isolate failures per grid point
            entries.append(SweepEntry(point, None, str(exc)))
    return entries
