"""Multi-trial seeded execution, aggregation and persistence.

Trials that draw noise draw independent Philox streams keyed by
(master_seed, trial index), so results do not depend on execution order or
worker count. Each trial passes the runner that key, and the runner builds
the stream only for a config with noise: a noiseless run builds no
generator and does not import numpy.random. Aggregation is a fixed-order
reduction over trial indices. An experiment builds its game once, and its
trials run in contiguous blocks, one per worker. A one-block run steps in
the calling process; only two or more blocks import and start a process
pool (``concurrent.futures.process``, ``multiprocessing``), whose workers
each build their own copy of the game, as its closures do not pickle. A
block steps in lock-step when dynamics.runner_body says so; a lock-step row
does not depend on its block, and a one-dimensional trial's record is the
same whichever body ran it. Reports serialize to JSON with sorted keys,
making repeated runs of the same config byte-identical.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    trial_generator,
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
                           tuple(metrics.parse_check(cid) for cid in self.checks))

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
    """Counter-based stream for one trial, independent of execution order: the
    generator a noisy run builds from the key (master_seed, trial) it is passed."""
    return trial_generator((master_seed, trial))


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

    @staticmethod
    def from_dict(doc: dict, where: str) -> "TrialSummary":
        config_section(doc, where, ("trial", "final_gap", "final_distance", "diverged"),
                       ("divergence_step",))
        return TrialSummary(doc["trial"], doc["final_gap"], doc["final_distance"],
                            doc["diverged"], doc.get("divergence_step"))


# The report's curves, in curves.csv column order: the dyadic steps, then one
# value (or null) per step of each mean curve. The last, the mean distance to
# the Nash set, is null as a whole when the game has no Nash oracle or every
# trial diverged.
CURVE_KEYS = ("steps", "mean_gap", "stderr_gap", "mean_time_avg_gap", "mean_distance")


@dataclass
class ExperimentReport:
    """An experiment's report; its fields are report.json's top-level keys.

    ``curves`` maps each of CURVE_KEYS to its list, as curves.csv has them in
    columns; ``checks`` holds one verdict per check per trial (``trial`` its
    index), then one per report-level check (``trial`` null).
    """

    schema_version: str
    provenance: dict
    config: dict
    trials: list[TrialSummary]
    curves: dict[str, Optional[list]]
    fits: dict[str, Optional[dict]]
    checks: list[dict]
    all_diverged: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentReport":
        """Read report.json's document; an unknown or missing key at the top
        level, in ``curves`` or in a trial is a ConfigError that names it."""
        config_section(doc, "report", [f.name for f in dataclasses.fields(ExperimentReport)])
        version = doc["schema_version"]
        if str(version).split(".")[0] != SCHEMA_VERSION.split(".")[0]:
            raise ConfigError(f"unsupported report schema major version {version!r}")
        curves = config_section(doc["curves"], "report curves", CURVE_KEYS)
        steps = _curve_values(curves, CURVE_KEYS[0], None)
        trials = doc["trials"]
        if not isinstance(trials, list):
            raise ConfigError(f"report trials must be a list, got {trials!r}")
        return ExperimentReport(
            schema_version=version,
            provenance=doc["provenance"],
            config=doc["config"],
            trials=[TrialSummary.from_dict(t, f"report trials[{i}]") for i, t in enumerate(trials)],
            curves={CURVE_KEYS[0]: steps,
                    **{key: _curve_values(curves, key, steps) for key in CURVE_KEYS[1:]}},
            fits=doc["fits"],
            checks=doc["checks"],
            all_diverged=doc["all_diverged"],
        )

    def curve(self, name: str) -> list[tuple[float, float]]:
        """Dyadic (step, value) points of a named mean curve, skipping gaps."""
        key = metrics.CURVES.get(name)
        if key is None or self.curves[key] is None:
            available = [n for n, k in metrics.CURVES.items() if self.curves[k] is not None]
            raise ConfigError(f"report has no curve {name!r}; available: {available}")
        return [(float(t), float(v)) for t, v in zip(self.curves[CURVE_KEYS[0]], self.curves[key])
                if v is not None]

    def failed_checks(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]


def _curve_values(curves: dict, key: str, steps: Optional[list]) -> Optional[list]:
    """curves[key], checked: the steps themselves (steps None), else a number
    or null per step, or null as a whole for the distance (CURVE_KEYS[-1])."""
    values = curves[key]
    if values is None and key == CURVE_KEYS[-1]:
        return None
    if not isinstance(values, list):
        raise ConfigError(f"report curves.{key} must be a list, got {values!r}")
    if steps is not None and len(steps) != len(values):
        raise ConfigError(f"report curves.{key} has {len(values)} entries, "
                          f"curves.{CURVE_KEYS[0]} has {len(steps)}")
    for i, v in enumerate(values):
        if v is not None or steps is None:
            config_float(v, f"report curves.{key}[{i}]")
    return values


def write_report(report: ExperimentReport, path: str) -> None:
    # What to_dict gives, without its copy of every value: the report and its
    # TrialSummary entries are written as their fields (vars).
    text = json.dumps(report, default=vars, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_report(path: str) -> ExperimentReport:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # also json's int-digit and nesting limits
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

    ``eta_text`` is the eta column's text, formatted from the schedule's
    step sizes when the schedule gives every trial the same ones (constant,
    power; see _EtaText), at least as far as this record's eta reaches:
    each record's eta is a prefix of that sequence, so its rows take their
    share of the list, and a diverged record a shorter share. A record
    without step norms is refused before the file is opened.
    """
    if record.step_norm_sq is None:
        raise ValueError("a trajectory file has a step_norm_sq column, and this record has "
                         "no step norms: run the trial with step_norms=True")
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
    if hi == len(record.gap):  # the final row, past the eta column's end, has no step
        lines.append(f'{{{beta[-1]}"gap": {gap[-1]}, "t": {hi - 1}{ends[-1]}')
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
    differs from the game's dimension, or when a check does not apply to
    runs of the config's dynamics on the game (CheckSpec.require).
    """
    game = make_game(config.game)
    if len(config.dynamics.x0) != game.n:
        raise ConfigError(f"x0 has length {len(config.dynamics.x0)}, game dimension is {game.n}")
    for spec in config.check_specs:
        spec.require(game, config.dynamics)
    return game


class _EtaText:
    """A shared schedule's step sizes as text, formatted once per block as far as asked."""

    def __init__(self, steps: np.ndarray):
        self.steps = steps
        self.text: list[str] = []

    def upto(self, count: int) -> list[str]:
        """The text of at least the first count step sizes."""
        if len(self.text) < count:
            self.text += _reprs(self.steps[len(self.text):count])
        return self.text


def _block_payloads(config: ExperimentConfig, game: Game, trials: range) -> list[tuple]:
    """Run a contiguous block of trials on the config's game (from build_game).

    Each trial is reduced to its payload. A trial passes its entropy key
    (master_seed, trial) as its rng, which the runner turns into trial_rng's
    generator only if the config draws noise. runner_body picks the body from
    the game and the block's size: an unrolled body runs one trial at a
    time, lock-step steps the block together (run_lockstep, which splits it
    to bound the record memory). The records keep their step norms only
    when something reads them: the trajectory files, or a check whose
    CHECKS entry asks for them. When the block writes trajectories and its
    schedule gives every trial the same step sizes, their text is formatted
    once, as far as the longest record of the block reaches, and each
    trial's file takes its share (see write_trajectory).
    """
    seed, dynamics = config.master_seed, config.dynamics
    eta_text = None
    if config.trajectory_dir:
        os.makedirs(config.trajectory_dir, exist_ok=True)
        if dynamics.schedule.shared:
            eta_text = _EtaText(dynamics.schedule.step_sizes(dynamics.horizon)[0])
    step_norms = bool(config.trajectory_dir) or any(
        metrics.CHECKS[spec.name].step_norms for spec in config.check_specs)
    if runner_body(game, len(trials)) != "lockstep":
        records = (run_trajectory(game, dynamics, rng=(seed, i), step_norms=step_norms)
                   for i in trials)
    else:
        records = run_lockstep(game, dynamics, [(seed, i) for i in trials],
                               step_norms=step_norms)
    return [_trial_payload(config, game, i, rec, eta_text) for i, rec in zip(trials, records)]


def _trial_payload(config: ExperimentConfig, game: Game, trial: int, record: TrajectoryRecord,
                   eta_text: Optional[_EtaText]
                   ) -> tuple[TrialSummary, Optional[tuple[list, list, Optional[list]]], list[dict]]:
    """Reduce one trial to what the report keeps of it, writing its trajectory
    file first if the config asks for one.

    Returns the trial's TrialSummary; its gap, time-average gap and (on a game
    with a Nash oracle, else None) distance at the dyadic steps, or None if
    it diverged; and its per-trial check verdicts, as report ``checks`` entries.
    """
    if config.trajectory_dir:
        write_trajectory(record, os.path.join(config.trajectory_dir, f"trial_{trial:04d}.jsonl"),
                         None if eta_text is None else eta_text.upto(len(record.eta)))

    has_oracle = game.nash_oracle is not None
    final_distance = dyadic = None
    if not record.diverged:
        idx = np.asarray(dyadic_steps(config.dynamics.horizon), dtype=np.int64)
        dist = None
        if has_oracle:
            final_distance = _json_float(metrics.distance_to_nash(game, record.final_state))
            pos = np.searchsorted(record.state_steps, idx)  # dyadics are always logged
            proj = np.stack([np.asarray(game.nash_oracle(record.states[p]), dtype=float)
                             for p in pos])
            dist = np.linalg.norm(record.states[pos] - proj, axis=1).tolist()
        dyadic = (record.gap[idx].tolist(),
                  metrics.time_average_gap(record.gap, idx).tolist(), dist)
    summary = TrialSummary(trial, _json_float(record.gap[-1]), final_distance,
                           record.diverged, record.divergence_step)
    verdicts = [{"trial": trial, **verdict.to_dict()}
                for spec in config.check_specs if not spec.report_level
                for verdict in metrics.run_check(spec, record, game)]
    return summary, dyadic, verdicts


def _mean_stderr(columns: list[list[float]], steps: list[int]
                 ) -> tuple[list[Optional[float]], list[Optional[float]]]:
    """The mean and standard error over trials at each step; nulls when no trial survived."""
    if not columns:
        return [None] * len(steps), [None] * len(steps)
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
    live = [dyadic for _, dyadic, _ in payloads if dyadic is not None]
    all_diverged = not live
    mean_gap, stderr_gap = _mean_stderr([d[0] for d in live], steps)
    mean_tavg, _ = _mean_stderr([d[1] for d in live], steps)
    mean_dist = (None if all_diverged or game.nash_oracle is None
                 else _mean_stderr([d[2] for d in live], steps)[0])

    report = ExperimentReport(
        schema_version=SCHEMA_VERSION,
        provenance={"config_hash": config_hash(doc), "master_seed": config.master_seed,
                    "code_version": f"gamegrad {__version__}"},
        config=doc,
        trials=[summary for summary, _, _ in payloads],
        curves=dict(zip(CURVE_KEYS, (steps, mean_gap, stderr_gap, mean_tavg, mean_dist))),
        fits={},
        checks=[v for _, _, verdicts in payloads for v in verdicts],
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


def _run_trials(config: ExperimentConfig, game: Game, workers: int) -> list[tuple]:
    blocks = _blocks(config.trials, workers)
    if len(blocks) == 1:
        return _block_payloads(config, game, blocks[0])
    from concurrent.futures import ProcessPoolExecutor  # only a multi-block run pays for the pool
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        return [p for payloads in pool.map(_pool_block, [config] * len(blocks), blocks)
                for p in payloads]  # trial order preserved


def _pool_block(config: ExperimentConfig, trials: range) -> list[tuple]:
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
    made) is its entry's error. Point i writes its trajectory files, if the
    config asks for them, under ``<trajectory_dir>/point_<iii>/`` (iii its
    three-digit index, as the CLI's report_<iii>.json), and its report's
    config names that directory.
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
    for i, combo in enumerate(itertools.product(*(grid[a] for a in axes))):
        point = dict(zip(axes, combo))
        doc = copy.deepcopy(template)
        for path, value in point.items():
            set_by_path(doc, path, value)
        if doc.get("trajectory_dir") and isinstance(doc["trajectory_dir"], str):
            doc["trajectory_dir"] = os.path.join(doc["trajectory_dir"], f"point_{i:03d}")
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
