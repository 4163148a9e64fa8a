"""Multi-trial seeded execution, aggregation and persistence.

Trials draw independent Philox streams keyed by (master_seed, trial index),
so results do not depend on execution order or worker count; aggregation is
a fixed-order reduction over trial indices. Trials run in contiguous blocks,
one per worker, each with one config parse and one game build; games
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
from concurrent.futures import ProcessPoolExecutor
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
    record_bytes,
    run_lockstep,
    run_trajectory,
    runner_body,
)
from .errors import (
    ConfigError,
    IndeterminateResult,
    config_dict,
    config_int,
    config_keys,
)
from .games import Game, GameSpec, game_spec_from_dict, make_game

SCHEMA_VERSION = "1.0"

# Record memory one lock-step block may hold; larger runs go in several blocks.
_BLOCK_BYTES = 64 << 20

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
    game_name: str = ""
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
        game = self.game.to_dict()
        if self.game_name:
            game["name"] = self.game_name
        return {
            "game": game,
            "dynamics": self.dynamics.to_dict(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "checks": list(self.checks),
            "trajectory_dir": self.trajectory_dir,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        doc = config_dict(doc, "experiment config")
        config_keys(doc, ("game", "dynamics", "trials", "master_seed", "checks", "trajectory_dir"),
                    "experiment config")
        try:
            game_doc = config_dict(doc["game"], "game")
            dynamics = DynamicsConfig.from_dict(doc["dynamics"])
        except KeyError as exc:
            raise ConfigError(f"experiment config is missing field {exc}") from None
        checks = doc.get("checks", [])
        if not isinstance(checks, (list, tuple)):
            raise ConfigError(f"checks must be a list of check ids, got {checks!r}")
        spec, name = game_spec_from_dict(game_doc)
        return ExperimentConfig(
            game=spec,
            dynamics=dynamics,
            trials=config_int(doc.get("trials", 1), "trials"),
            master_seed=config_int(doc.get("master_seed", 0), "master_seed"),
            checks=tuple(checks),
            game_name=name,
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
        try:
            version = doc["schema_version"]
            major = int(str(version).split(".")[0])
            if major != int(SCHEMA_VERSION.split(".")[0]):
                raise ConfigError(f"unsupported report schema major version {version!r}")
            curves = doc["curves"]
            return ExperimentReport(
                schema_version=version,
                provenance=doc["provenance"],
                config=doc["config"],
                trials=[TrialSummary.from_dict(t) for t in doc["trials"]],
                curve_steps=curves["steps"],
                mean_gap=curves["mean_gap"],
                stderr_gap=curves["stderr_gap"],
                mean_time_avg_gap=curves["mean_time_avg_gap"],
                mean_distance=curves["mean_distance"],
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
                     eta_text: Optional[dict] = None) -> None:
    """Stream one trajectory to disk: a header line, then one line per step t.

    Every line is what ``json.dumps(row, sort_keys=True)`` writes for it.
    A step line has the keys ``beta`` (only on grad_norm runs), ``eta``,
    ``gap``, ``step_norm_sq`` (neither eta nor step_norm_sq on the final
    row), ``t``, and ``x`` at logged steps. Floats are written as their
    Python ``repr`` and non-finite values (reached as a run diverges) as
    ``null``, so the file is byte-deterministic for a fixed config and
    seed. The columns are formatted and written ``_WRITE_ROWS`` rows at a
    time: one repr pass over each column slice and one f-string per line.

    ``eta_text`` is an optional cache of eta text shared by the records of
    one block whose schedule gives every trial the same step sizes
    (constant, power): chunk start -> (the chunk's raw bytes, its reprs). A
    chunk reuses the cached text only if its bytes begin the cached chunk's,
    so a record never gets text for values it does not hold; a diverged
    record, a prefix, reuses its share. The cache holds one record's eta
    column, about 85 B per step as text, list slot and raw bytes (2.8 MB
    at 2^15 steps), until the block ends.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {"type": "header", "game": record.game_name, "config": record.config,
                  "seed": record.seed, "horizon": record.horizon,
                  "diverged": record.diverged, "divergence_step": record.divergence_step}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, len(record.gap), _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, len(record.gap))
            fh.write("".join(_step_lines(record, lo, hi, eta_text)))


def _step_lines(record: TrajectoryRecord, lo: int, hi: int, eta_text: Optional[dict]) -> list[str]:
    """The lines of steps lo..hi-1 (hi <= len(record.gap))."""
    gap = _reprs(record.gap[lo:hi])
    eta = _eta_reprs(record.eta[lo:hi], lo, eta_text)
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


def _eta_reprs(values: np.ndarray, lo: int, cache: Optional[dict]) -> list[str]:
    """_reprs(values), reusing the cached text of chunk start lo when it covers them."""
    if cache is None:
        return _reprs(values)
    raw = values.tobytes()
    hit = cache.get(lo)
    if hit is not None and hit[0].startswith(raw):
        return hit[1][:len(values)]
    out = _reprs(values)
    cache[lo] = (raw, out)
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

def _block_payloads(config_doc: dict, trials: range) -> list[dict]:
    """Run a contiguous block of trials and reduce each to its payload.

    The config is parsed and the game built once per block, and the game is
    checked for what each check reads before any trial steps. Games with an
    unrolled runner body run one trial at a time; every other game steps the
    block in lock-step, split only to bound the record memory. When the
    block writes trajectories and its step sizes are shared by every trial,
    their eta text is formatted once and reused (see write_trajectory).
    """
    config = ExperimentConfig.from_dict(config_doc)
    game = make_game(config.game, name=config.game_name or config.game.kind)
    for spec in config.check_specs:
        spec.require_game(game)
    seed = config.master_seed
    eta_text = None
    if config.trajectory_dir:
        os.makedirs(config.trajectory_dir, exist_ok=True)
        if config.dynamics.schedule.shared:
            eta_text = {}
    if runner_body(game) != "lockstep":
        return [_trial_payload(config, game, i,
                               run_trajectory(game, config.dynamics, rng=trial_rng(seed, i)),
                               eta_text)
                for i in trials]
    payloads = []
    size = max(1, _BLOCK_BYTES // record_bytes(config.dynamics, game.n))
    for lo in range(trials.start, trials.stop, size):
        part = range(lo, min(lo + size, trials.stop))
        records = run_lockstep(game, config.dynamics, [trial_rng(seed, i) for i in part])
        payloads.extend(_trial_payload(config, game, i, rec, eta_text)
                        for i, rec in zip(part, records))
    return payloads


def _trial_payload(config: ExperimentConfig, game: Game, trial: int, record: TrajectoryRecord,
                   eta_text: Optional[dict]) -> dict:
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
    doc = config.to_dict()
    payloads = _run_trials(doc, config.trials, workers)

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


def _run_trials(doc: dict, trials: int, workers: int) -> list[dict]:
    blocks = _blocks(trials, workers)
    if len(blocks) == 1:
        return _block_payloads(doc, blocks[0])
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        return [p for payloads in pool.map(_block_payloads, [doc] * len(blocks), blocks)
                for p in payloads]  # trial order preserved


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

    The template and every grid point are parsed before any point runs. A
    template or a point that does not parse as an experiment config raises
    ConfigError, naming the point, with nothing run. Only a failure found
    while a point runs (say, a matrix make_game rejects) is its entry's error.
    """
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
            points.append((point, ExperimentConfig.from_dict(doc)))
        except ConfigError as exc:
            tag = ", ".join(f"{k}={v}" for k, v in point.items())
            raise ConfigError(f"sweep point {tag}: {exc}") from None

    entries: list[SweepEntry] = []
    for point, config in points:
        try:
            entries.append(SweepEntry(point, run_experiment(config, workers=workers), None))
        except Exception as exc:  # isolate failures per grid point
            entries.append(SweepEntry(point, None, str(exc)))
    return entries
