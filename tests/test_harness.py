import copy
import dataclasses
import importlib.util
import itertools
import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gamegrad import dynamics as dynamics_module
from gamegrad.dynamics import (
    AbsoluteNoise,
    ConstantSchedule,
    DynamicsConfig,
    GradNormSchedule,
    NoNoise,
    PowerSchedule,
    RelativeNoise,
    StepNormSchedule,
    TrajectoryRecord,
    VarianceSchedule,
    run_trajectory,
)
from gamegrad.errors import ConfigError
from gamegrad.games import GameSpec, make_game, make_named_game
from gamegrad.harness import (
    _WRITE_ROWS,
    ExperimentConfig,
    _blocks,
    config_hash,
    dyadic_steps,
    iter_trajectory,
    read_report,
    run_experiment,
    set_by_path,
    sweep,
    trial_rng,
    write_report,
    write_trajectory,
)
from gamegrad.metrics import parse_check


def quad1d_config(horizon=64, trials=1, eta=0.5, checks=(), **kw):
    return ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(ConstantSchedule(eta), horizon=horizon, x0=(1.0,)),
        trials=trials,
        master_seed=kw.pop("master_seed", 42),
        checks=tuple(checks),
        **kw,
    )


def noisy_config(trials=3, horizon=256, checks=()):
    noise = RelativeNoise(VarianceSchedule("constant", 0.25), shape="sphere")
    return ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(ConstantSchedule(0.3), horizon=horizon, x0=(1.0,), noise=noise),
        trials=trials,
        master_seed=7,
        checks=tuple(checks),
    )


def test_dyadic_steps():
    assert dyadic_steps(64) == [1, 2, 4, 8, 16, 32, 64]
    assert dyadic_steps(100) == [1, 2, 4, 8, 16, 32, 64, 100]
    assert dyadic_steps(1) == [1]


def test_run_experiment_closed_form_final_gap():
    report = run_experiment(quad1d_config(horizon=64, checks=("descent_invariants",)))
    assert report.trials[0].final_gap == pytest.approx(0.25 ** 64, rel=1e-12)
    assert all(c["passed"] for c in report.checks)
    # gap at dyadic t is exactly 0.25^t
    for t, g in zip(report.curve_steps, report.mean_gap):
        assert g == pytest.approx(0.25 ** t, rel=1e-12)


def test_run_experiment_noiseless_trials_identical():
    report = run_experiment(quad1d_config(trials=3))
    finals = [t.final_gap for t in report.trials]
    assert finals[0] == finals[1] == finals[2]
    assert all(s == 0.0 for s in report.stderr_gap)  # zero cross-trial variance


def test_run_experiment_byte_determinism(tmp_path):
    cfg = noisy_config(trials=5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(run_experiment(cfg), str(a))
    write_report(run_experiment(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_experiment_trial_streams_are_independent_and_keyed():
    cfg = noisy_config(trials=3)
    report = run_experiment(cfg)
    game = make_named_game("quad_1d")
    # Re-running any single trial from its (master_seed, index) stream reproduces it.
    for i, summary in enumerate(report.trials):
        rec = run_trajectory(game, cfg.dynamics, rng=trial_rng(cfg.master_seed, i))
        assert summary.final_gap == pytest.approx(rec.gap[-1], rel=0, abs=0)
    # distinct trials see distinct noise
    assert len({t.final_gap for t in report.trials}) > 1


def test_run_experiment_aggregates_match_manual_reduction():
    cfg = noisy_config(trials=4, horizon=64)
    report = run_experiment(cfg)
    game = make_named_game("quad_1d")
    per_trial = []
    for i in range(4):
        rec = run_trajectory(game, cfg.dynamics, rng=trial_rng(cfg.master_seed, i))
        per_trial.append(rec.gap[np.asarray(report.curve_steps)])
    arr = np.stack(per_trial)
    assert np.allclose(report.mean_gap, arr.mean(axis=0), rtol=0, atol=0)
    assert np.allclose(report.stderr_gap, arr.std(axis=0, ddof=1) / math.sqrt(4), rtol=1e-15)


def test_run_experiment_workers_match_sequential():
    cfg = noisy_config(trials=4, horizon=128)
    seq = run_experiment(cfg, workers=1)
    par = run_experiment(cfg, workers=2)
    assert seq.to_dict() == par.to_dict()


def test_run_experiment_divergence_isolated():
    cfg = ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(ConstantSchedule(3.0), horizon=50, x0=(1.0,),
                                blow_up_radius=100.0),
        trials=2, master_seed=0, checks=("no_divergence", "slope_below:distance:-1"))
    report = run_experiment(cfg)
    assert report.all_diverged
    assert all(t.diverged for t in report.trials)
    assert [c["trial"] for c in report.checks] == [0, 1, None]  # no curve left to fit
    assert not any(c["passed"] for c in report.checks)
    assert all(v is None for v in report.mean_gap)


def test_slope_check_on_report_curves():
    cfg = quad1d_config(horizon=4096, checks=("slope_below:last_iterate:-1.0",))
    report = run_experiment(cfg)
    slope_checks = [c for c in report.checks if c["check_id"].startswith("slope_below")]
    assert len(slope_checks) == 1
    assert slope_checks[0]["passed"]  # exact convergence beats any slope bound
    assert slope_checks[0]["trial"] is None


def test_report_round_trip(tmp_path):
    report = run_experiment(noisy_config(trials=2, checks=("eta_monotone",)))
    path = tmp_path / "report.json"
    write_report(report, str(path))
    again = read_report(str(path))
    assert again.to_dict() == report.to_dict()


def test_report_refuses_unknown_major_version(tmp_path):
    report = run_experiment(quad1d_config())
    doc = report.to_dict()
    doc["schema_version"] = "2.0"
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="major version"):
        read_report(str(path))


def test_report_parse_error_names_missing_field(tmp_path):
    report = run_experiment(quad1d_config())
    doc = report.to_dict()
    del doc["curves"]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="curves"):
        read_report(str(path))


def test_report_truncated_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"schema_version": "1.0", "provenance": {')
    with pytest.raises(ConfigError, match="malformed"):
        read_report(str(path))


def test_report_curve_selector():
    report = run_experiment(quad1d_config(horizon=32))
    pts = report.curve("last_iterate")
    assert pts[0] == (1.0, 0.25)
    with pytest.raises(ConfigError, match="available"):
        report.curve("wiggle")


def test_experiment_config_round_trip_and_validation():
    cfg = noisy_config(checks=("eta_monotone",))
    doc = cfg.to_dict()
    assert ExperimentConfig.from_dict(doc).to_dict() == doc
    with pytest.raises(ConfigError, match="does not apply"):
        ExperimentConfig.from_dict({**doc, "checks": ["descent_invariants"]})
    with pytest.raises(ConfigError, match="unknown check"):
        ExperimentConfig.from_dict({**doc, "checks": ["nope"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**doc, "trials": 0})
    with pytest.raises(ConfigError, match="built-in"):
        ExperimentConfig.from_dict({**doc, "game": {"name": "atlantis"}})


def test_experiment_config_named_game():
    doc = {"game": {"name": "piecewise"},
           "dynamics": {"schedule": {"kind": "constant", "eta": 0.25},
                        "horizon": 8, "x0": [-1.0]}}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.game.kind == "piecewise_scalar"
    assert cfg.game.name == cfg.game.label == "piecewise"


def _load_bench_workloads() -> dict:
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"bench {name}": doc for name, (_, doc) in module.WORKLOADS.items()}


def _experiment_docs(doc: dict) -> list[dict]:
    """A run config, or every grid point of a sweep config."""
    if "template" not in doc:
        return [doc]
    axes = list(doc["grid"])
    points = []
    for combo in itertools.product(*(doc["grid"][a] for a in axes)):
        point = copy.deepcopy(doc["template"])
        for path, value in zip(axes, combo):
            set_by_path(point, path, value)
        points.append(point)
    return points


def test_bundled_configs_and_benchmark_workloads_parse():
    bundled = resources.files("gamegrad").joinpath("configs")
    docs = {f.name: json.loads(f.read_text()) for f in bundled.iterdir() if f.name.endswith(".cfg")}
    assert len(docs) == 12
    docs.update(_load_bench_workloads())
    assert len(docs) == 16
    for name, doc in docs.items():
        for point in _experiment_docs(doc):
            cfg = ExperimentConfig.from_dict(point)
            out = cfg.to_dict()
            again = ExperimentConfig.from_dict(out).to_dict()
            # the hash also tells 1 from 1.0 and 0.0 from -0.0, which == does not
            assert again == out and config_hash(again) == config_hash(out), name
            if not name.startswith("bench "):  # so `--set KEY=VALUE` reaches every key
                assert set(doc.get("template", doc)) == set(cfg.to_dict()), name


def test_trajectory_persistence_round_trip(tmp_path):
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=8, x0=(1.0,), thinning=1)
    rec = run_trajectory(game, cfg)
    path = tmp_path / "traj.jsonl"
    write_trajectory(rec, str(path))
    rows = list(iter_trajectory(str(path)))
    assert rows[0]["type"] == "header"
    assert rows[0]["horizon"] == 8
    steps = rows[1:]
    assert len(steps) == 9
    assert steps[0]["gap"] == 1.0
    assert steps[1]["x"] == [0.5]
    assert steps[3]["gap"] == rec.gap[3]


def test_experiment_writes_trajectories(tmp_path):
    cfg = quad1d_config(horizon=8, trials=2, trajectory_dir=str(tmp_path / "trajs"))
    run_experiment(cfg)
    files = sorted((tmp_path / "trajs").iterdir())
    assert [f.name for f in files] == ["trial_0000.jsonl", "trial_0001.jsonl"]


def test_trajectory_dir_is_made_once_per_block(tmp_path, monkeypatch):
    made = []
    monkeypatch.setattr("gamegrad.harness.os.makedirs",
                        lambda path, exist_ok=False: made.append(path) or os.mkdir(path))
    cfg = quad1d_config(horizon=8, trials=3, trajectory_dir=str(tmp_path / "trajs"))
    run_experiment(cfg)
    assert made == [str(tmp_path / "trajs")]
    assert len(list((tmp_path / "trajs").iterdir())) == 3


def reference_trajectory_text(record):
    """The row-by-row encoder: one json.dumps(row, sort_keys=True) per step."""
    def num(v):
        v = float(v)
        return v if math.isfinite(v) else None

    logged = {int(s): i for i, s in enumerate(record.state_steps)}
    header = {"type": "header", "game": record.game_name, "config": record.config,
              "seed": record.seed, "horizon": record.horizon,
              "diverged": record.diverged, "divergence_step": record.divergence_step}
    lines = [json.dumps(header, sort_keys=True)]
    for t in range(len(record.gap)):
        row = {"t": t, "gap": num(record.gap[t])}
        if t < len(record.eta):
            row["eta"] = num(record.eta[t])
            row["step_norm_sq"] = num(record.step_norm_sq[t])
        if record.beta is not None and t < len(record.beta):
            row["beta"] = num(record.beta[t])
        if t in logged:
            row["x"] = [num(v) for v in record.states[logged[t]]]
        lines.append(json.dumps(row, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def assert_writes_reference(record, path):
    write_trajectory(record, str(path))
    assert path.read_bytes() == reference_trajectory_text(record).encode()


@pytest.mark.parametrize("master_seed,radius,diverged", [(2, 2.0, 0), (13, 2.2, 1)])
def test_block_with_a_diverged_trial_shares_eta_text_exactly(tmp_path, master_seed, radius,
                                                             diverged):
    # one of the 3 trials leaves the blow-up ball past the first written chunk:
    # the first trial of the block (seed 2) or the middle one (seed 13)
    dynamics = DynamicsConfig(PowerSchedule(1.9, 0.01), horizon=6000, x0=(1.0,),
                              noise=AbsoluteNoise(VarianceSchedule("constant", 0.04), "gaussian"),
                              blow_up_radius=radius)
    cfg = ExperimentConfig(game=GameSpec.from_dict({"name": "quad_1d"}), dynamics=dynamics,
                           trials=3, master_seed=master_seed,
                           trajectory_dir=str(tmp_path / "trajs"))
    report = run_experiment(cfg)
    assert [t.diverged for t in report.trials] == [i == diverged for i in range(3)]
    assert report.trials[diverged].divergence_step > _WRITE_ROWS
    game = make_named_game("quad_1d")
    for i in range(3):
        record = run_trajectory(game, dynamics, rng=trial_rng(master_seed, i))
        path = tmp_path / "trajs" / f"trial_{i:04d}.jsonl"
        assert path.read_bytes() == reference_trajectory_text(record).encode()


def test_lockstep_blocks_split_at_the_record_cap_write_the_same_files(tmp_path, monkeypatch):
    # 16 trials of a 16-d game; trial 4 leaves the blow-up ball at step 3
    dynamics = DynamicsConfig(PowerSchedule(1.0, 0.5), horizon=600, x0=(0.0,) * 16,
                              noise=AbsoluteNoise(VarianceSchedule("constant", 1.0), "gaussian"),
                              blow_up_radius=10.2, thinning=7)
    cfg = ExperimentConfig(game=GameSpec.random_cocoercive(16, seed=3), dynamics=dynamics,
                           trials=16, master_seed=1, checks=("no_divergence",),
                           trajectory_dir=str(tmp_path / "trajs"))
    blocks = []
    real_run = dynamics_module._run

    def counted_run(body, game, config, rngs):
        blocks.append(len(rngs))
        return real_run(body, game, config, rngs)

    monkeypatch.setattr(dynamics_module, "_run", counted_run)

    def outputs():
        report = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
        return report, {f.name: f.read_bytes() for f in (tmp_path / "trajs").iterdir()}

    whole = outputs()
    assert blocks == [16]
    monkeypatch.setattr(dynamics_module, "_BLOCK_BYTES",
                        4 * dynamics_module._record_bytes(dynamics, 16) - 1)
    del blocks[:]
    split = outputs()
    assert blocks == [3, 3, 3, 3, 3, 1]
    assert split == whole
    report = json.loads(whole[0])
    assert [t["diverged"] for t in report["trials"]] == [i == 4 for i in range(16)]
    game = make_game(cfg.game)
    for i in range(16):
        record = run_trajectory(game, dynamics, rng=trial_rng(1, i))
        assert whole[1][f"trial_{i:04d}.jsonl"] == reference_trajectory_text(record).encode()


ORACLE_GAMES = ["quad_1d", "quad_2d", "piecewise", "rand_2d", "rand_4d"]
ORACLE_DYNAMICS = {  # schedule, noise: every column kind the writer emits
    "constant": (ConstantSchedule(0.3), None),
    "power_relative": (PowerSchedule(0.5, 0.5),
                       RelativeNoise(VarianceSchedule("constant", 0.25))),
    "step_norm_absolute": (StepNormSchedule(1.0),
                           AbsoluteNoise(VarianceSchedule("power", 0.01, 0.5))),
    "grad_norm": (GradNormSchedule(1.0, 2.0), None),  # writes the beta column
}


def oracle_game(name):
    if name == "rand_4d":  # no unrolled body: runs in lock-step
        return make_game(dataclasses.replace(GameSpec.random_cocoercive(4, seed=3), name=name))
    return make_named_game(name)


def assert_oracle_runs_match(tmp_path, game_name, dynamics, horizons, thinnings):
    game = oracle_game(game_name)
    schedule, noise = ORACLE_DYNAMICS[dynamics]
    extra = {} if noise is None else {"noise": noise}
    for horizon in horizons:
        for thinning in thinnings:
            cfg = DynamicsConfig(schedule, horizon=horizon, x0=(1.0,) * game.n,
                                 thinning=thinning, **extra)
            record = run_trajectory(game, cfg, rng=trial_rng(3, horizon + thinning))
            assert (record.beta is not None) == (dynamics == "grad_norm")
            assert_writes_reference(record, tmp_path / f"T{horizon}_k{thinning}.jsonl")


@pytest.mark.parametrize("dynamics", sorted(ORACLE_DYNAMICS))
@pytest.mark.parametrize("game_name", ORACLE_GAMES)
def test_trajectory_writer_matches_row_encoder(tmp_path, monkeypatch, game_name, dynamics):
    # A short write chunk puts several chunk boundaries inside a cheap run.
    monkeypatch.setattr("gamegrad.harness._WRITE_ROWS", 64)
    assert_oracle_runs_match(tmp_path, game_name, dynamics, (1, 5, 3 * 64 + 37), (0, 1, 7))


@pytest.mark.parametrize("dynamics", ["grad_norm", "power_relative"])
def test_trajectory_writer_matches_row_encoder_past_one_chunk(tmp_path, dynamics):
    assert_oracle_runs_match(tmp_path, "quad_2d", dynamics, (_WRITE_ROWS + 37,), (0, 1, 7))


@pytest.mark.parametrize("game_name", ["quad_1d", "quad_2d", "rand_2d", "rand_4d"])
@pytest.mark.parametrize("radius", [50.0, 1e300])
def test_trajectory_writer_matches_row_encoder_after_divergence(tmp_path, game_name, radius):
    game = oracle_game(game_name)
    path = tmp_path / "traj.jsonl"
    for thinning in (0, 1, 7):
        cfg = DynamicsConfig(ConstantSchedule(5.0), horizon=2000, x0=(1.0,) * game.n,
                             blow_up_radius=radius, thinning=thinning)
        record = run_trajectory(game, cfg)
        assert record.diverged
        assert_writes_reference(record, path)
        # Leaving a ball of radius 50 keeps every value finite; overflowing
        # before leaving a huge ball writes the non-finite gap as null.
        steps = path.read_bytes().split(b"\n", 1)[1]  # the header has null seed
        assert (b"null" in steps) == (radius == 1e300)


@pytest.mark.parametrize("game_name", ["quad_1d", "piecewise"])
def test_trajectory_writer_keeps_negative_zero(tmp_path, game_name):
    for horizon in (1, 5):
        cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=horizon, x0=(-0.0,), thinning=1)
        record = run_trajectory(make_named_game(game_name), cfg)
        path = tmp_path / f"T{horizon}.jsonl"
        assert_writes_reference(record, path)
        assert '"x": [-0.0]' in path.read_text()


def test_trajectory_writer_non_finite_values_in_every_column(tmp_path):
    inf, nan = math.inf, math.nan
    record = TrajectoryRecord(
        game_name="fabricated", config={"horizon": 3}, gap=np.array([1.0, nan, inf, -inf]),
        eta=np.array([0.5, -inf, 1e-300]), step_norm_sq=np.array([nan, 0.0, 5e-324]),
        beta=np.array([1.0, inf, 2.0, nan]), state_steps=np.array([0, 2, 3]),
        states=np.array([[nan, -0.0], [1e308, -inf], [0.1, inf]]),
        seed=None, horizon=3, diverged=True, divergence_step=3)
    path = tmp_path / "traj.jsonl"
    assert_writes_reference(record, path)
    rows = list(iter_trajectory(str(path)))[1:]
    assert rows[2] == {"beta": 2.0, "eta": 1e-300, "gap": None, "step_norm_sq": 5e-324,
                       "t": 2, "x": [1e308, None]}
    assert rows[3] == {"beta": None, "gap": None, "t": 3, "x": [0.1, None]}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_template():
    return quad1d_config(horizon=16).to_dict()


def test_sweep_eta_grid():
    entries = sweep(sweep_template(), {"dynamics.schedule.eta": [0.1, 0.5, 1.0]})
    assert [e.point["dynamics.schedule.eta"] for e in entries] == [0.1, 0.5, 1.0]
    assert all(e.error is None for e in entries)
    final = entries[-1].report.trials[0].final_gap
    assert final == 0.0  # eta = 1 converges in one step


def test_sweep_rejects_empty_grid_and_bad_axis():
    with pytest.raises(ConfigError, match="empty"):
        sweep(sweep_template(), {})
    with pytest.raises(ConfigError, match="no entry"):
        sweep(sweep_template(), {"dynamics.schedule.warp": [1]})
    with pytest.raises(ConfigError, match="no values"):
        sweep(sweep_template(), {"dynamics.schedule.eta": []})


def test_sweep_isolates_failures():
    # a malformed point stops the sweep before any point runs
    with pytest.raises(ConfigError, match="sweep point dynamics.schedule.eta=-1.0: .*positive"):
        sweep(sweep_template(), {"dynamics.schedule.eta": [0.5, -1.0]})


def test_sweep_isolates_failures_at_run_time(tmp_path, monkeypatch):
    # the second matrix parses, but make_game finds it is not monotone: no point runs
    ran = []
    monkeypatch.setattr("gamegrad.harness.run_trajectory", lambda *a, **k: ran.append(a))
    template = quad1d_config(horizon=16, checks=("descent_invariants",)).to_dict()
    bad = {"kind": "quadratic", "matrix": [[-1.0]], "offset": [0.0]}
    with pytest.raises(ConfigError, match="sweep point game=.*negative eigenvalue"):
        sweep(template, {"game": [template["game"], bad]})
    assert ran == []
    monkeypatch.undo()
    # a failure that shows only while a point runs stays that point's error
    blocker = tmp_path / "file"
    blocker.write_text("")
    entries = sweep(template, {"trajectory_dir": [str(tmp_path / "traj"), str(blocker / "traj")]})
    assert entries[0].error is None and not entries[0].report.failed_checks()
    assert entries[1].report is None and entries[1].error
    assert (tmp_path / "traj" / "trial_0000.jsonl").exists()


def test_sweep_rejects_a_check_that_does_not_apply_before_any_point_runs(monkeypatch):
    # descent_invariants applies only to noiseless runs: the relative point is malformed
    ran = []
    monkeypatch.setattr("gamegrad.harness.run_trajectory", lambda *a, **k: ran.append(a))
    template = quad1d_config(horizon=16, checks=("descent_invariants",)).to_dict()
    relative = {"kind": "relative", "tau": {"kind": "constant", "c": 0.25}, "shape": "sphere"}
    with pytest.raises(ConfigError, match=r"sweep point dynamics.noise=\{'kind': 'relative'.*"
                                          r"does not apply"):
        sweep(template, {"dynamics.noise": [{"kind": "none"}, relative]})
    assert ran == []


def test_sweep_and_run_build_each_game_and_parse_each_config_once(monkeypatch):
    counts = {"make_game": 0, "from_dict": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    template = sweep_template()
    monkeypatch.setattr("gamegrad.harness.make_game", counted("make_game", make_game))
    monkeypatch.setattr(ExperimentConfig, "from_dict",
                        staticmethod(counted("from_dict", ExperimentConfig.from_dict)))
    sweep(template, {"dynamics.schedule.eta": [0.1, 0.5, 1.0]})
    assert counts == {"make_game": 3, "from_dict": 4}  # the template and each point once
    counts.update(make_game=0, from_dict=0)
    run_experiment(ExperimentConfig.from_dict({**template, "trials": 3}))
    assert counts == {"make_game": 1, "from_dict": 1}  # the caller's parse


def test_set_by_path_leaf_must_exist():
    doc = {"a": {"b": 1}}
    set_by_path(doc, "a.b", 2)
    assert doc["a"]["b"] == 2
    with pytest.raises(ConfigError):
        set_by_path(doc, "a.c", 3)


def test_mean_time_average_gap_contracts_under_relative_noise():
    cfg = noisy_config(trials=20, horizon=4096)
    report = run_experiment(cfg)
    steps = report.curve_steps
    tavg = dict(zip(steps, report.mean_time_avg_gap))
    assert tavg[4096] < tavg[64]
    assert all(not t.diverged for t in report.trials)


def test_sweep_over_noise_schedules_reports_budget_slopes():
    template = ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(
            ConstantSchedule(0.3), horizon=1 << 16, x0=(1.0,),
            noise=RelativeNoise(VarianceSchedule("power", 1.0, 0.5))),
        trials=1, master_seed=1).to_dict()
    grid = {"dynamics.noise.tau": [{"kind": "power", "c": 1.0, "q": 0.5},
                                   {"kind": "power", "c": 1.0, "q": 1.0}]}
    entries = sweep(template, grid)
    assert [e.error for e in entries] == [None, None]
    # analytic decay target of the averaged noise schedule, alongside the
    # empirical last-iterate fit in the same report
    slope_sqrt = entries[0].report.fits["noise_budget"]["slope"]
    slope_inv = entries[1].report.fits["noise_budget"]["slope"]
    assert slope_sqrt == pytest.approx(-0.5, abs=0.05)
    assert -1.0 <= slope_inv <= -0.75  # log(T)/T regime, log-corrected
    assert "last_iterate" in entries[0].report.fits


def test_incompatible_check_is_config_error():
    with pytest.raises(ConfigError, match="does not apply"):
        noisy_config(checks=("descent_invariants",))  # needs a noiseless run


_SCHEDULES = {
    "constant": ConstantSchedule(0.5),
    "power": PowerSchedule(0.5, 0.5),
    "grad_norm": GradNormSchedule(1.0, 2.0),
    "step_norm": StepNormSchedule(1.0),
}
_NOISES = {
    "none": NoNoise(),
    "relative": RelativeNoise(VarianceSchedule("constant", 0.25)),
    "absolute": AbsoluteNoise(VarianceSchedule("constant", 0.01)),
}
_PER_TRIAL_CHECKS = ("descent_invariants", "eta_monotone", "beta_stable", "gap_step_consistency",
                     "no_divergence", "tail_to_zero", "distance_below:1e-3")


@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
@pytest.mark.parametrize("noise", sorted(_NOISES))
def test_checks_that_parse_run_and_the_rest_are_config_errors(schedule, noise):
    # the needs table in metrics.CHECKS is what stands between a check and a
    # record it cannot read; an accepted check must not fail as it runs
    try:
        dynamics = DynamicsConfig(_SCHEDULES[schedule], horizon=16, x0=(1.0,),
                                  noise=_NOISES[noise])
    except ConfigError:
        assert schedule == "grad_norm" and noise != "none"  # exact gradients only
        return
    game = GameSpec.from_dict({"name": "quad_1d"})
    accepted = []
    for cid in _PER_TRIAL_CHECKS:
        try:
            parse_check(cid, dynamics)
        except ConfigError:
            with pytest.raises(ConfigError, match="does not apply"):
                ExperimentConfig(game, dynamics, checks=(cid,))
            continue
        accepted.append(cid)
        config = ExperimentConfig(game, dynamics, trials=2, checks=(cid,))
        assert {c["trial"] for c in run_experiment(config).checks} == {0, 1}, cid
    assert {"eta_monotone", "no_divergence", "tail_to_zero", "distance_below:1e-3"} <= set(accepted)


# ---------------------------------------------------------------------------
# lock-step blocks
# ---------------------------------------------------------------------------

def highdim_config(trials=5, horizon=300):
    noise = RelativeNoise(VarianceSchedule("power", 1.0, 0.5), shape="sphere")
    return ExperimentConfig(
        game=GameSpec.random_cocoercive(16, seed=3),
        dynamics=DynamicsConfig(ConstantSchedule(0.2), horizon=horizon, x0=(1.0,) * 16,
                                noise=noise, thinning=16),
        trials=trials, master_seed=11, checks=("no_divergence",))


def test_blocks_are_contiguous_and_nonempty():
    assert _blocks(5, 1) == [range(0, 5)]
    assert _blocks(5, 2) == [range(0, 2), range(2, 5)]
    assert _blocks(5, 3) == [range(0, 1), range(1, 3), range(3, 5)]
    assert _blocks(2, 8) == [range(0, 1), range(1, 2)]


def test_highdim_report_bytes_do_not_depend_on_workers(tmp_path):
    cfg = highdim_config(trials=5)
    blobs = []
    for workers in (1, 2, 3):  # 3 splits 5 trials unevenly: 1 + 2 + 2
        path = tmp_path / f"w{workers}.json"
        write_report(run_experiment(cfg, workers=workers), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_workers_below_one_rejected():
    with pytest.raises(ConfigError, match="workers"):
        run_experiment(quad1d_config(), workers=0)
    with pytest.raises(ConfigError, match="workers"):
        sweep(quad1d_config().to_dict(), {"dynamics.schedule.eta": [0.5]}, workers=0)


def test_more_workers_than_trials_matches_sequential():
    cfg = highdim_config(trials=2, horizon=64)
    assert run_experiment(cfg, workers=3).to_dict() == run_experiment(cfg).to_dict()
