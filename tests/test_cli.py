import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from gamegrad.cli import CSV_HEADER, main
from gamegrad.errors import ConfigError
from gamegrad.games import make_named_game
from gamegrad.harness import CURVE_KEYS, ExperimentReport, read_report


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, doc, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quad1d_doc(eta=0.5, horizon=64, checks=("descent_invariants",), **extra):
    return {
        "game": {"name": "quad_1d"},
        "dynamics": {"schedule": {"kind": "constant", "eta": eta},
                     "noise": {"kind": "none"}, "horizon": horizon, "x0": [1.0],
                     "blow_up_radius": None, "thinning": 1},
        "trials": 1, "master_seed": 5, "checks": list(checks), **extra,
    }


def test_list_games(runner):
    result = runner.invoke(main, ["list-games"])
    assert result.exit_code == 0
    for name in ("quad_1d", "quad_2d", "piecewise", "rand_2d"):
        assert name in result.output


def test_run_bundled_demo_config(runner, tmp_path):
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    csv = (tmp_path / "curves.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[1]) == 0.25 ** int(cells[0])
    report = read_report(str(tmp_path / "report.json"))
    assert not report.failed_checks()


@pytest.mark.parametrize("eta", [0.5, 3.0], ids=["converges", "all_diverged"])
def test_report_layout_is_the_report_dataclass(runner, tmp_path, eta):
    doc = quad1d_doc(eta=eta, checks=())
    doc["dynamics"]["blow_up_radius"] = 100.0
    result = runner.invoke(main, ["run", "--config", write_cfg(tmp_path, doc),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    report = read_report(str(tmp_path / "out" / "report.json"))
    assert report.all_diverged == (eta == 3.0)
    for layout in (written, report.to_dict()):  # report.json's keys are sorted
        assert sorted(layout) == sorted(f.name for f in dataclasses.fields(ExperimentReport))
        assert sorted(layout["curves"]) == sorted(CURVE_KEYS)
    assert CSV_HEADER == ",".join(("t",) + CURVE_KEYS[1:])
    lines = (tmp_path / "out" / "curves.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.curves["steps"])


def test_run_missing_config_is_config_error(runner, tmp_path):
    result = runner.invoke(main, ["run", "--config", str(tmp_path / "nope.cfg")])
    assert result.exit_code == 2
    assert "not found" in result.output


LONG_INT = "1" + "0" * 4400  # past Python's 4,300-digit limit on int conversion
DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON reader's recursion limit


@pytest.mark.parametrize("command, message", [
    (["run", "--config"], "could not parse"),
    (["sweep", "--config"], "could not parse"),
    (["verify-game", "--config"], "could not parse"),
    (["fit-rate", "--report"], "malformed report"),
], ids=["run", "sweep", "verify-game", "fit-rate"])
@pytest.mark.parametrize("data", [b"{not json", b'{"trials": ' + LONG_INT.encode() + b"}",
                                  DEEP.encode(), b'{"trials": "\xff"}'],
                         ids=["not_json", "long_int", "deep", "not_utf8"])
def test_malformed_json_is_a_config_error(runner, tmp_path, command, message, data):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data)
    result = runner.invoke(main, [*command, str(path)])
    assert result.exit_code == 2, result.output
    assert f"config error: {message} {path}: " in result.output


def test_run_check_failure_exits_one(runner, tmp_path):
    # eta > lambda: the summability bound of the noiseless descent check fails.
    cfg = write_cfg(tmp_path, quad1d_doc(eta=1.5))
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_run_set_override(runner, tmp_path):
    cfg = write_cfg(tmp_path, quad1d_doc(checks=()))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out),
                                  "--set", "dynamics.schedule.eta=1.0"])
    assert result.exit_code == 0
    report = read_report(str(out / "report.json"))
    assert report.trials[0].final_gap == 0.0  # one-step convergence at eta = 1


def test_run_bad_override_path(runner, tmp_path):
    cfg = write_cfg(tmp_path, quad1d_doc())
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path),
                                  "--set", "dynamics.schedule.warp=1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", [LONG_INT, DEEP], ids=["long_int", "deep"])
def test_run_override_past_the_json_limits_is_a_config_error(runner, tmp_path, monkeypatch, value):
    forbid_dynamics(monkeypatch)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", f"dynamics.x0={value}"])
    assert result.exit_code == 2, result.output
    assert "config error: could not parse the value of override 'dynamics.x0': " in result.output
    assert not list(tmp_path.iterdir())


def test_run_io_error_exits_three(runner, tmp_path):
    cfg = write_cfg(tmp_path, quad1d_doc(checks=()))
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(blocker)])
    assert result.exit_code == 3


def test_sweep_cli(runner, tmp_path):
    doc = {"template": quad1d_doc(checks=()),
           "grid": {"dynamics.schedule.eta": [0.1, 0.5, 1.0]}}
    cfg = write_cfg(tmp_path, doc, "sweep.cfg")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(os.listdir(out)) == ["report_000.json", "report_001.json", "report_002.json"]
    last = read_report(str(out / "report_002.json"))
    assert last.trials[0].final_gap == 0.0


def test_sweep_writes_each_points_trajectories_in_its_own_directory(runner, tmp_path):
    # criterion 1's three step sizes: every point used to write traj/trial_0000.jsonl
    traj, out = tmp_path / "traj", tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", "criterion1_descent.cfg", "--out", str(out),
                                  "--set", f"trajectory_dir={traj}",
                                  "--set", "dynamics.horizon=64"])
    assert result.exit_code == 0, result.output
    etas = [0.08333333333333333, 0.16666666666666666, 0.3333333333333333]
    assert sorted(os.listdir(traj)) == ["point_000", "point_001", "point_002"]
    for i, eta in enumerate(etas):
        point = traj / f"point_{i:03d}"
        assert os.listdir(point) == ["trial_0000.jsonl"]
        with open(point / "trial_0000.jsonl", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["config"]["schedule"]["eta"] == eta
        report = read_report(str(out / f"report_{i:03d}.json"))
        assert report.config["trajectory_dir"] == str(point)
        assert report.config["dynamics"]["schedule"]["eta"] == eta


def noisy_quad1d_doc():
    doc = quad1d_doc(checks=())
    doc["dynamics"]["noise"] = {"kind": "relative", "shape": "gaussian",
                                "tau": {"kind": "constant", "c": 0.25}}
    return doc


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_option_is_the_master_seed(runner, tmp_path, command):
    doc = noisy_quad1d_doc()
    names = ["report.json"]
    if command == "sweep":
        doc = {"template": doc, "grid": {"dynamics.schedule.eta": [0.1, 0.5]}}
        names = ["report_000.json", "report_001.json"]
    cfg = write_cfg(tmp_path, doc)
    outputs = []
    for name, args in [("seed", ["--seed", "7"]), ("set", ["--set", "master_seed=7"]),
                       ("default", [])]:
        out = tmp_path / name
        result = runner.invoke(main, [command, "--config", cfg, "--out", str(out), *args])
        assert result.exit_code == 0, result.output
        outputs.append([(out / n).read_bytes() for n in names])
    assert outputs[0] == outputs[1]
    assert all(a != b for a, b in zip(outputs[0], outputs[2]))  # the config's own seed is 5


def test_sweep_point_that_fails_while_running_is_an_error_entry(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("file, not a directory")
    doc = {"template": quad1d_doc(checks=(), trajectory_dir=None),
           "grid": {"trajectory_dir": [None, str(blocker / "traj")]}}
    cfg = write_cfg(tmp_path, doc, "sweep.cfg")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0] == "[000] trajectory_dir=None: ok"
    assert lines[1].startswith(f"[001] trajectory_dir={blocker / 'traj'}: ERROR ")
    assert "Not a directory" in lines[1]
    assert sorted(os.listdir(out)) == ["report_000.json"]


def test_sweep_requires_template_and_grid(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"template": quad1d_doc()}, "sweep.cfg")
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_verify_game_piecewise(runner):
    result = runner.invoke(main, ["verify-game", "--name", "piecewise", "--pairs", "2000"])
    assert result.exit_code == 0, result.output
    assert "lambda_hat=0.5" in result.output
    assert "verdict: pass" in result.output


def test_verify_game_quad_2d(runner):
    result = runner.invoke(main, ["verify-game", "--name", "quad_2d", "--pairs", "4000"])
    assert result.exit_code == 0, result.output
    assert "lambda_hat=0.33" in result.output


def test_verify_game_rejects_indefinite(runner, tmp_path):
    doc = {"game": {"kind": "quadratic", "matrix": [[1.0, 2.0], [2.0, 1.0]],
                    "offset": [0.0, 0.0]}}
    cfg = write_cfg(tmp_path, doc, "bad_game.cfg")
    result = runner.invoke(main, ["verify-game", "--config", cfg])
    assert result.exit_code == 1
    assert "rejected" in result.output


@pytest.mark.parametrize("matrix,offset,oracle", [
    ([[0.0]], [0.0], "nash oracle: max"),
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0], "nash oracle: absent"),
], ids=["zero_1d", "zero_2d_offset"])
def test_verify_game_constant_field_is_indeterminate(runner, tmp_path, matrix, offset, oracle):
    # every sampled pair has the same field value, so no cocoercivity estimate exists
    cfg = write_cfg(tmp_path, {"kind": "quadratic", "matrix": matrix, "offset": offset})
    result = runner.invoke(main, ["verify-game", "--config", cfg])
    assert result.exit_code == 1, result.output
    assert ("cocoercivity estimate: indeterminate "
            "(all sampled pairs had identical field values)") in result.output
    assert oracle in result.output
    assert "verdict: FAIL" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("dims", [[1, 1], [2]], ids=["two_players", "one_player"])
def test_verify_game_accepts_player_dims(runner, tmp_path, dims):
    cfg = write_cfg(tmp_path, {"kind": "quadratic", "matrix": [[2.0, 1.0], [1.0, 2.0]],
                               "offset": [0.0, 0.0], "dims": dims})
    result = runner.invoke(main, ["verify-game", "--config", cfg, "--pairs", "2000"])
    assert result.exit_code == 0, result.output
    assert "verdict: pass" in result.output


def test_verify_game_needs_exactly_one_source(runner):
    result = runner.invoke(main, ["verify-game"])
    assert result.exit_code == 2


@pytest.mark.parametrize("option, value", [("--pairs", "1"), ("--seed", "-1")])
def test_verify_game_rejects_too_few_pairs(runner, option, value):
    result = runner.invoke(main, ["verify-game", "--name", "quad_1d", option, value])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert option in result.output


def test_unknown_builtin_game_is_one_config_error_everywhere(runner, tmp_path):
    # run, verify-game --name and make_named_game resolve names in one place
    with pytest.raises(ConfigError) as exc:
        make_named_game("atlantis")
    message = f"config error: {exc.value}"
    assert "unknown built-in game 'atlantis'" in message
    cfg = write_cfg(tmp_path, {**quad1d_doc(), "game": {"name": "atlantis"}})
    for args in (["run", "--config", cfg, "--out", str(tmp_path)],
                 ["verify-game", "--name", "atlantis"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output.strip() == message


@pytest.mark.parametrize("window,message", [
    (("100", "10"), "fit-rate --window has an empty window: Tmin > Tmax"),
    (("nan", "10"), "fit-rate --window Tmin must be finite, got nan"),
], ids=["empty", "nan"])
def test_fit_rate_malformed_window_is_a_config_error(runner, tmp_path, window, message):
    # the same rule as a slope_below check's window (metrics.fit_window)
    cfg = write_cfg(tmp_path, quad1d_doc(checks=()))
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["fit-rate", "--report", str(out / "report.json"),
                                  "--window", *window])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("horizon,thinning", [("1" + "0" * 400, 0), (str(10 ** 12), 1)],
                         ids=["401_digits", "thinning_1"])
def test_run_rejects_a_horizon_whose_record_outgrows_a_block(runner, tmp_path, monkeypatch,
                                                             horizon, thinning):
    def no_log_grid(*args):
        raise AssertionError("sized a log grid before the horizon was bounded")

    monkeypatch.setattr("gamegrad.dynamics._log_steps", no_log_grid)  # a fault exits 4
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", f"dynamics.horizon={horizon}",
                                  "--set", f"dynamics.thinning={thinning}"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error: horizon is too large")
    assert not list(tmp_path.iterdir())


def test_fit_rate_constant_curve(runner, tmp_path):
    # constant gradient field: gap is identically 1, slope 0
    doc = {"game": {"kind": "quadratic", "matrix": [[0.0]], "offset": [1.0]},
           "dynamics": {"schedule": {"kind": "constant", "eta": 0.1},
                        "noise": {"kind": "none"}, "horizon": 64, "x0": [0.0],
                        "blow_up_radius": None, "thinning": 0},
           "trials": 1, "master_seed": 0, "checks": []}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["fit-rate", "--report", str(out / "report.json"),
                                  "--curve", "last_iterate"])
    assert result.exit_code == 0, result.output
    assert "slope: +0.000000" in result.output


def test_fit_rate_adaptive_slope(runner, tmp_path):
    doc = {"game": {"name": "quad_2d"},
           "dynamics": {"schedule": {"kind": "grad_norm", "beta1": 1.0, "r": 2.0},
                        "noise": {"kind": "none"}, "horizon": 4096, "x0": [2.0, -1.0],
                        "blow_up_radius": None, "thinning": 0},
           "trials": 1, "master_seed": 0, "checks": []}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["fit-rate", "--report", str(out / "report.json")])
    assert result.exit_code == 0, result.output
    slope = float([l for l in result.output.splitlines() if l.startswith("slope:")][0].split()[1])
    assert slope <= -0.85


def test_fit_rate_missing_curve_lists_available(runner, tmp_path):
    cfg = write_cfg(tmp_path, quad1d_doc(checks=()))
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["fit-rate", "--report", str(out / "report.json"),
                                  "--curve", "wobble"])
    assert result.exit_code == 2
    assert "available" in result.output
    assert "time_average" in result.output


def _edit_curve(doc, key, value):
    return {**doc, "curves": {**doc["curves"], key: value}}


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [1, 2], "report must be an object"),
    (lambda doc: {**doc, "curves": [1]}, "report curves must be an object"),
    (lambda doc: {**doc, "schema_version": "abc"}, "major version 'abc'"),
    (lambda doc: {**doc, "trials": [1]}, "report trials[0] must be an object"),
    (lambda doc: _edit_curve(doc, "mean_gap", ["x"] * 7), "curves.mean_gap[0] must be a number"),
    (lambda doc: _edit_curve(doc, "steps", 5), "curves.steps must be a list"),
    (lambda doc: _edit_curve(doc, "steps", [str(t) for t in doc["curves"]["steps"]]),
     "curves.steps[0] must be a number"),
    (lambda doc: _edit_curve(doc, "mean_gap", doc["curves"]["mean_gap"][:4]),
     "curves.mean_gap has 4 entries, curves.steps has 7"),
    (lambda doc: {**doc, "extra": 1}, "report has unknown key(s) 'extra'"),
    (lambda doc: _edit_curve(doc, "mean_gapp", doc["curves"]["mean_gap"]),
     "report curves has unknown key(s) 'mean_gapp'"),
    (lambda doc: {**doc, "trials": [{**doc["trials"][0], "bogus": 1}]},
     "report trials[0] has unknown key(s) 'bogus'"),
], ids=["array", "curves", "schema_version", "trials", "gap_strings", "steps_int",
        "steps_strings", "gap_short", "top_level_key", "curves_key", "trial_key"])
def test_fit_rate_malformed_report_is_a_config_error(runner, tmp_path, edit, message):
    cfg = write_cfg(tmp_path, quad1d_doc(checks=()))
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads((out / "report.json").read_text()))))
    result = runner.invoke(main, ["fit-rate", "--report", str(bad)])
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("override", [
    "trials=\"abc\"", "trials=2.5", "master_seed=1.5", "master_seed=\"7\"",
    "dynamics.horizon=1.5", "dynamics.horizon=true", "dynamics.thinning=0.5",
])
def test_run_rejects_non_integer_fields(runner, tmp_path, override):
    cfg = write_cfg(tmp_path, quad1d_doc())
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path), "--set", override])
    assert result.exit_code == 2, result.output
    assert "must be an integer" in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("override,message", [
    ('checks=["distance_below:abc"]', "distance_below threshold must be a number"),
    ('checks=["tail_to_zero:x"]', "tail_to_zero factor must be a number"),
    ('dynamics.schedule.eta="0.1"', "dynamics.schedule.eta must be a number"),
    ('dynamics.x0=["a"]', "dynamics.x0[0] must be a number"),
    ('dynamics.blow_up_radius="big"', "dynamics.blow_up_radius must be a number"),
    ("dynamics.schedule.eta=NaN", "dynamics.schedule.eta must be finite"),
    ("dynamics.schedule.eta=Infinity", "dynamics.schedule.eta must be finite"),
    ("dynamics.blow_up_radius=Infinity", "dynamics.blow_up_radius must be finite"),
    ('dynamics.schedule={"kind": "power", "c": NaN, "p": 0.5}', "dynamics.schedule.c must be finite"),
    ('dynamics.schedule={"kind": "grad_norm", "beta1": 1.0, "r": NaN}',
     "dynamics.schedule.r must be finite"),
    ('checks=["distance_below:inf"]', "distance_below threshold must be finite"),
    ('checks=["tail_to_zero:inf"]', "tail_to_zero factor must be finite"),
    ('checks=["slope_below:last_iterate:inf"]', "slope_below bound must be finite"),
])
def test_run_rejects_malformed_numbers_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                           override, message):
    def no_dynamics(*args, **kwargs):
        raise AssertionError("dynamics ran on a malformed config")

    monkeypatch.setattr("gamegrad.harness.run_trajectory", no_dynamics)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", override])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "report.json").exists()


def test_run_accepts_integral_float_fields(runner, tmp_path):
    cfg = write_cfg(tmp_path, quad1d_doc())
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path),
                                  "--set", "dynamics.horizon=32.0"])
    assert result.exit_code == 0, result.output
    assert read_report(str(tmp_path / "report.json")).config["dynamics"]["horizon"] == 32


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_must_be_positive(runner, tmp_path, command, workers):
    doc = quad1d_doc()
    if command == "sweep":
        doc = {"template": doc, "grid": {"dynamics.schedule.eta": [0.5]}}
    cfg = write_cfg(tmp_path, doc)
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path),
                                  "--workers", workers])
    assert result.exit_code == 2, result.output
    assert "--workers" in result.output


def forbid_dynamics(monkeypatch):
    def no_dynamics(*args, **kwargs):
        raise AssertionError("dynamics ran on a malformed config")

    monkeypatch.setattr("gamegrad.harness.run_trajectory", no_dynamics)
    monkeypatch.setattr("gamegrad.harness.run_lockstep", no_dynamics)


@pytest.mark.parametrize("check_id", ["distance_below:0", "distance_below:-1", "tail_to_zero:",
                                      "tail_to_zero:0", "tail_to_zero:-1"])
def test_run_rejects_check_arguments_no_run_can_use(runner, tmp_path, monkeypatch, check_id):
    forbid_dynamics(monkeypatch)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", f'checks=["{check_id}"]'])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error: ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("override,message", [
    ('dynamics.schedule="constant"', "dynamics.schedule must be an object"),
    ("dynamics.noise=5", "dynamics.noise must be an object"),
    ("game=5", "game must be an object"),
    ('checks=["no_divergence:xyz"]', "check 'no_divergence' takes no argument"),
    ("dynamics=5", "dynamics must be an object"),
    ('dynamics.noise={"kind": "relative", "tau": 5}', "dynamics.noise.tau must be an object"),
    ('dynamics.schedule={"kind": ["constant"]}', "unknown schedule kind"),
    ('checks="no_divergence"', "checks must be a list of check ids"),
    ('game={"name": ["quad_1d"]}', "game.name must be a string"),
    ('dynamics.noise={"kind": "pink"}', "unknown noise kind 'pink'; available"),
    # one missing key per section, and a section missing two keys
    ('dynamics={"schedule": {"kind": "constant", "eta": 0.5}, "horizon": 8}',
     "dynamics is missing key(s) 'x0'"),
    ('dynamics={"schedule": {"kind": "constant", "eta": 0.5}}',
     "dynamics is missing key(s) 'horizon', 'x0'"),
    ('dynamics.schedule={"kind": "constant"}', "dynamics.schedule (constant) is missing key(s) 'eta'"),
    ('dynamics.schedule={"eta": 0.5}', "schedule section is missing its 'kind' tag"),
    ('dynamics.noise={"kind": "relative"}', "dynamics.noise (relative) is missing key(s) 'tau'"),
    ('dynamics.noise={"kind": "absolute", "sigma_sq": {"kind": "power"}}',
     "dynamics.noise.sigma_sq (power) is missing key(s) 'c'"),
    ('dynamics.noise={"kind": "absolute", "sigma_sq": {"c": 0.1}}',
     "variance schedule section is missing its 'kind' tag"),
    ('game={"kind": "quadratic", "matrix": [[1]]}', "quadratic game is missing key(s) 'offset'"),
    ('game={"kind": "random_cocoercive", "n": 2}', "random_cocoercive game is missing key(s) 'seed'"),
    ('game={"matrix": [[1]], "offset": [0]}',
     "game entry needs either a 'kind' spec or a built-in 'name'"),
])
def test_run_rejects_wrong_type_sections_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                             override, message):
    forbid_dynamics(monkeypatch)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", override])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("args,message", [
    (["--set", "dynamics.horizon=0"], "horizon must be at least 1"),
    (["--set", "dynamics.x0=[]"], "x0 must be nonempty"),
    (["--set", "dynamics.thinning=-1"], "thinning must be nonnegative"),
    (["--seed", "-1"], "master_seed must be a 64-bit unsigned integer"),
    (["--seed", "18446744073709551616"], "master_seed must be a 64-bit unsigned integer"),
    (["--set", 'dynamics.noise={"kind": "relative", "tau": {"kind": "constant", "c": 0.1}, '
      '"shape": "cube"}'], "unknown noise shape 'cube'"),
    (["--set", 'dynamics.noise={"kind": "absolute", "sigma_sq": {"kind": "power", "c": 0.1, '
      '"q": -1}}'], "variance decay exponent must be finite and nonnegative"),
    (["--set", 'checks=["distance_below"]'], "distance_below needs a threshold"),
    (["--set", "checks=[3]"], "check ids must be strings, got 3"),
    (["--set", 'checks=["slope_below:last_iterate"]'],
     "malformed slope check 'slope_below:last_iterate'"),
    (["--set", 'game={"kind": "quadratic", "matrix": [[1, 2]], "offset": [0]}'], "must be square"),
    (["--set", 'game={"kind": "random_cocoercive", "n": 0, "seed": 1}'], "zero dimension"),
    (["--set", 'game={"kind": "random_cocoercive", "n": 1, "seed": 1, "conditioning": 0}'],
     "conditioning bound must be positive"),
    (["--set", 'game={"kind": "quadratic", "matrix": [[0]], "offset": [0]}',
      "--set", 'checks=["descent_invariants"]'], "needs a game with a known cocoercivity"),
    (["--set", "dynamics.horizon"], "not of the form dotted.path=value"),
    (["--set", "nope.x=1"], "config has no entry at 'nope.x' (missing 'nope')"),
    (None, "report trials must be a list"),
], ids=["horizon_zero", "x0_empty", "thinning_negative", "seed_negative", "seed_2_64",
        "noise_shape", "variance_exponent", "distance_no_threshold", "check_not_string",
        "slope_no_bound", "matrix_not_square", "random_zero_dimension", "random_conditioning",
        "descent_without_cocoercivity", "override_no_value", "override_no_entry",
        "fit_rate_trials_object"])
def test_malformed_input_exits_two_before_any_dynamics(runner, tmp_path, monkeypatch, args,
                                                       message):
    if args is None:  # fit-rate on a report whose trials are an object
        out = tmp_path / "out"
        assert runner.invoke(main, ["run", "--config", "quadratic_1d.cfg",
                                    "--out", str(out)]).exit_code == 0
        doc = json.loads((out / "report.json").read_text())
        bad = write_cfg(tmp_path, {**doc, "trials": {}}, name="bad.json")
        args = ["fit-rate", "--report", bad]
    else:
        args = ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path / "run"), *args]
    forbid_dynamics(monkeypatch)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error: ")
    assert message in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("trajectory_dir", [5, ["a"]])
def test_run_rejects_non_string_trajectory_dir(runner, tmp_path, monkeypatch, trajectory_dir):
    forbid_dynamics(monkeypatch)
    cfg = write_cfg(tmp_path, quad1d_doc(trajectory_dir=trajectory_dir))
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "trajectory_dir must be a string or null" in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("override,message", [
    ('game={"kind": "quadratic", "matrix": "abc", "offset": [0]}',
     "game.matrix must be a list of rows of numbers"),
    ('game={"kind": "random_cocoercive", "n": "a", "seed": 1}', "game.n must be an integer"),
    ('game={"kind": "quadratic", "matrix": [[1]], "offset": 5}',
     "game.offset must be a list of numbers"),
    ('game={"kind": "quadratic", "matrix": [[1]], "offset": [0, 0]}',
     "offset length 2 does not match matrix size 1"),
    ('game={"kind": "quadratic", "matrix": [[1, 0], [0, 1]], "offset": [0, 0], "dims": [0, 2]}',
     "game.dims must be positive"),
    ('game={"kind": "quadratic", "matrix": [[1, 0], [0, 1]], "offset": [0, 0], "dims": [1, 2]}',
     "do not sum to matrix size 2"),
    ('game={"kind": "quadratic", "matrix": [[1, 0], [0, 1]], "offset": [0, 0], "dims": 2}',
     "game.dims must be a list of integers"),
    ('game={"kind": "random_cocoercive", "n": 2, "seed": -1}', "game.seed must be nonnegative"),
], ids=["matrix_string", "n_string", "offset_scalar", "offset_length", "dims_zero", "dims_sum",
        "dims_scalar", "seed_negative"])
def test_run_rejects_malformed_game_parameters_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                                   override, message):
    forbid_dynamics(monkeypatch)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", override])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("section,value,message", [
    ("dynamics", {"schedule": {"kind": "constant", "eta": 0.5}, "horizon": 8, "x0": [1.0],
                  "thinnig": 3}, "dynamics has unknown key(s) 'thinnig'"),
    ("dynamics.schedule", {"kind": "constant", "eta": 0.5, "c": 1.0},
     "dynamics.schedule (constant) has unknown key(s) 'c'"),
    ("dynamics.schedule", {"kind": "power", "c": 0.5, "p": 0.5, "eta": 0.5},
     "dynamics.schedule (power) has unknown key(s) 'eta'"),
    ("dynamics.schedule", {"kind": "grad_norm", "beta1": 1.0, "r": 2.0, "beta": 1.0},
     "dynamics.schedule (grad_norm) has unknown key(s) 'beta'"),
    ("dynamics.schedule", {"kind": "step_norm", "beta": 1.0, "beta1": 1.0},
     "dynamics.schedule (step_norm) has unknown key(s) 'beta1'"),
    ("dynamics.noise", {"kind": "none", "tau": {"kind": "constant", "c": 0.1}},
     "dynamics.noise (none) has unknown key(s) 'tau'"),
    ("dynamics.noise", {"kind": "relative", "tau": {"kind": "constant", "c": 0.1}, "shap": "sphere"},
     "dynamics.noise (relative) has unknown key(s) 'shap'"),
    ("dynamics.noise", {"kind": "relative", "tau": {"kind": "constant", "c": 0.1, "q": 1.0}},
     "dynamics.noise.tau (constant) has unknown key(s) 'q'"),
    ("dynamics.noise", {"kind": "absolute", "sigma_sq": {"kind": "power", "c": 0.1, "qq": 1.0}},
     "dynamics.noise.sigma_sq (power) has unknown key(s) 'qq'"),
    ("game", {"name": "quad_1d", "offset": [1.0]},
     "game 'quad_1d' (built-in) has unknown key(s) 'offset'"),
    ("game", {"kind": "random_cocoercive", "n": 2, "seed": 1, "conditionning": 2.0},
     "random_cocoercive game has unknown key(s) 'conditionning'"),
], ids=["dynamics", "constant", "power", "grad_norm", "step_norm", "noise_none", "noise_relative",
        "variance_constant", "variance_power", "game_builtin", "game_kind"])
def test_run_rejects_unknown_keys_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                      section, value, message):
    forbid_dynamics(monkeypatch)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", f"{section}={json.dumps(value)}"])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "report.json").exists()


def test_run_names_every_missing_top_level_key_before_any_dynamics(runner, tmp_path, monkeypatch):
    forbid_dynamics(monkeypatch)
    doc = quad1d_doc()
    del doc["game"], doc["dynamics"]
    result = runner.invoke(main, ["run", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "experiment config is missing key(s) 'game', 'dynamics'" in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("doc,message", [
    ({"template": quad1d_doc(), "grid": {"trials": [1]}, "grids": {"trials": [2]}},
     "sweep config has unknown key(s) 'grids'"),
    ({"grid": {"trials": [1]}}, "sweep config is missing key(s) 'template'"),
], ids=["extra_key", "missing_key"])
def test_sweep_document_keys_are_checked_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                             doc, message):
    forbid_dynamics(monkeypatch)
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_run_rejects_unknown_top_level_key_before_any_dynamics(runner, tmp_path, monkeypatch):
    forbid_dynamics(monkeypatch)
    cfg = write_cfg(tmp_path, quad1d_doc(trails=3))
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "experiment config has unknown key(s) 'trails'" in result.output
    assert not (tmp_path / "report.json").exists()


def test_sweep_rejects_malformed_template_before_any_dynamics(runner, tmp_path, monkeypatch):
    forbid_dynamics(monkeypatch)
    template = quad1d_doc(checks=())
    template["dynamics"]["thinnig"] = 2
    cfg = write_cfg(tmp_path, {"template": template,
                               "grid": {"dynamics.schedule.eta": [0.1, 0.5]}}, "sweep.cfg")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "dynamics has unknown key(s) 'thinnig'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("overrides,message", [
    (['checks=["gap_step_consistency"]',
      'dynamics.noise={"kind": "relative", "tau": {"kind": "constant", "c": 0.25}}'],
     "check 'gap_step_consistency' does not apply to this configuration: it needs noiseless runs"),
    (['checks=["slope_below:wiggle:-1"]'], "names unknown curve 'wiggle'"),
    (['checks=["distance_below:1e-3"]', "dynamics.x0=[1, 1]",
      'game={"kind": "quadratic", "matrix": [[1, 0], [0, 0]], "offset": [0, 1]}'],
     "check 'distance_below:1e-3' needs a game with a Nash oracle"),
    (['checks=["tail_to_zero"]', "dynamics.horizon=1"],
     "check 'tail_to_zero' needs a horizon of at least 3"),
    (['checks=["tail_to_zero:0.5"]', "dynamics.horizon=2"],
     "check 'tail_to_zero:0.5' needs a horizon of at least 3"),
    (['checks=["slope_below:last_iterate:-1:100:10"]'],
     "slope check 'slope_below:last_iterate:-1:100:10' has an empty window: Tmin > Tmax"),
], ids=["noisy_gap_step_consistency", "unknown_slope_curve", "distance_without_oracle",
        "tail_horizon_1", "tail_horizon_2", "slope_window_empty"])
def test_run_rejects_a_check_that_cannot_apply_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                                   overrides, message):
    forbid_dynamics(monkeypatch)
    args = ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path)]
    for override in overrides:
        args += ["--set", override]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "report.json").exists()


def test_sweep_rejects_a_check_that_cannot_apply_before_any_dynamics(runner, tmp_path,
                                                                     monkeypatch):
    forbid_dynamics(monkeypatch)
    relative = {"kind": "relative", "tau": {"kind": "constant", "c": 0.25}}
    cfg = write_cfg(tmp_path, {"template": quad1d_doc(),
                               "grid": {"dynamics.noise": [{"kind": "none"}, relative]}},
                    "sweep.cfg")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "sweep point dynamics.noise={'kind': 'relative'" in result.output
    assert "check 'descent_invariants' does not apply" in result.output
    assert not out.exists()


def test_diverged_trials_fail_tail_to_zero_without_stopping_the_run(runner, tmp_path):
    # eta = 5 on quad_1d maps x to -4x: every trial leaves the ball of radius 2 at step 1.
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", "dynamics.schedule.eta=5",
                                  "--set", "dynamics.blow_up_radius=2", "--set", "trials=3",
                                  "--set", 'checks=["tail_to_zero", "no_divergence"]'])
    assert result.exit_code == 1, result.output
    report = read_report(str(tmp_path / "report.json"))
    assert [t.divergence_step for t in report.trials] == [1, 1, 1]
    assert [(c["trial"], c["check_id"], c["passed"]) for c in report.checks] == [
        (i, check, False) for i in range(3) for check in ("tail_to_zero", "no_divergence")]


def test_default_blow_up_radius_reaches_a_distant_nash_point(runner, tmp_path):
    # x* = -1e12 lies far outside 1e8 * (1 + ||x0||); step 0 moves x0 = 1 to about -5e11
    game = '{"kind": "quadratic", "matrix": [[1]], "offset": [-1e12]}'
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", f"game={game}"])
    assert result.exit_code == 0, result.output
    report = read_report(str(tmp_path / "report.json"))
    assert [t.divergence_step for t in report.trials] == [None]
    verdicts = {c["check_id"]: c["passed"] for c in report.checks}
    assert verdicts["no_divergence"] is True and all(verdicts.values())


def test_run_set_trajectory_dir_on_a_bundled_config(runner, tmp_path):
    traj = tmp_path / "traj"
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path),
                                  "--set", f"trajectory_dir={traj}"])
    assert result.exit_code == 0, result.output
    assert [f.name for f in traj.iterdir()] == ["trial_0000.jsonl"]


def test_verify_game_rejects_keys_beside_a_builtin_name(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"game": {"name": "quad_1d", "matrix": [[3.0]]}}, "game.json")
    result = runner.invoke(main, ["verify-game", "--config", cfg, "--pairs", "100"])
    assert result.exit_code == 2, result.output
    assert "game 'quad_1d' (built-in) has unknown key(s) 'matrix'" in result.output
    assert "verdict" not in result.output


def test_sweep_rejects_a_malformed_grid_point_before_any_dynamics(runner, tmp_path, monkeypatch):
    forbid_dynamics(monkeypatch)
    cfg = write_cfg(tmp_path, {"template": quad1d_doc(),
                               "grid": {"dynamics.schedule.eta": [0.5, -1.0]}}, "sweep.cfg")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "sweep point dynamics.schedule.eta=-1.0" in result.output
    assert "constant step size must be positive" in result.output
    assert not out.exists()


@pytest.mark.parametrize("checks,x0,grid,message", [
    ((), [1.0], {"dynamics.x0": [[1.0], [1.0, 1.0]]},
     "sweep point dynamics.x0=[1.0, 1.0]: x0 has length 2, game dimension is 1"),
    (("distance_below:1e-3",), [1.0, 1.0],
     {"game": [{"name": "quad_2d"},
               {"kind": "quadratic", "matrix": [[1, 0], [0, 0]], "offset": [0, 1]}]},
     "check 'distance_below:1e-3' needs a game with a Nash oracle"),
], ids=["x0_length", "no_nash_oracle"])
def test_sweep_checks_every_points_game_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                            checks, x0, grid, message):
    forbid_dynamics(monkeypatch)
    template = quad1d_doc(checks=checks)
    template["dynamics"]["x0"] = x0
    cfg = write_cfg(tmp_path, {"template": template, "grid": grid}, "sweep.cfg")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "[000]" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,doc,message", [
    (["sweep"], {"template": quad1d_doc(), "grid": [1, 2]}, "sweep grid must be an object"),
    (["run", "--seed", "3"], [quad1d_doc()], "experiment config must be an object"),
    (["run"], [quad1d_doc()], "experiment config must be an object"),
    (["sweep", "--seed", "3"], {"template": [quad1d_doc()], "grid": {"trials": [1]}},
     "sweep template must be an object"),
    (["sweep"], [{"template": quad1d_doc(), "grid": {"trials": [1]}}],
     "sweep config must be an object"),
], ids=["sweep_grid_list", "run_seed_array", "run_array", "sweep_seed_template_array",
        "sweep_array"])
def test_malformed_documents_are_config_errors_before_any_dynamics(runner, tmp_path, monkeypatch,
                                                                   command, doc, message):
    forbid_dynamics(monkeypatch)
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_unexpected_exception_is_an_internal_error(runner, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr("gamegrad.harness.run_experiment", broken)
    result = runner.invoke(main, ["run", "--config", "quadratic_1d.cfg", "--out", str(tmp_path)])
    assert result.exit_code == 4, result.output  # not 1: no check failed
    assert "Traceback" in result.stderr and "RuntimeError: simulated fault" in result.stderr
    assert not (tmp_path / "report.json").exists()


_BUNDLED = sorted(f.name for f in resources.files("gamegrad").joinpath("configs").iterdir()
                  if f.name.endswith(".cfg"))


@pytest.mark.parametrize("name", _BUNDLED)
def test_bundled_outputs_do_not_depend_on_workers(runner, tmp_path, name):
    # Cut to at most 40 trials of 2,048 steps: a one-dimensional config runs
    # one lock-step block of 40 at --workers 1 and two scalar-body blocks of 20
    # at --workers 2, whose report and CSV bytes must agree.
    doc = json.loads(resources.files("gamegrad").joinpath("configs", name).read_text())
    template = doc.get("template", doc)
    command = "sweep" if "grid" in doc else "run"
    cut = ["--set", f"trials={min(template['trials'], 40)}",
           "--set", f"dynamics.horizon={min(template['dynamics']['horizon'], 2048)}"]
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        result = runner.invoke(main, [command, "--config", name, "--out", str(out),
                                      "--workers", workers, *cut])
        assert result.exit_code in (0, 1), result.output
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1] and outputs[0]


_LOCKSTEP_DOC = {  # no unrolled body: the trials run in lock-step, as in highdim_trials
    "game": {"kind": "random_cocoercive", "n": 4, "seed": 3, "conditioning": 4.0},
    "dynamics": {"schedule": {"kind": "constant", "eta": 0.2}, "noise": {"kind": "none"},
                 "horizon": 256, "x0": [1.0] * 4, "blow_up_radius": None, "thinning": 0},
    "trials": 3, "master_seed": 1, "checks": ["no_divergence", "gap_step_consistency"],
}


def run_traced_child(tmp_path, doc):
    """Run doc through bench/child.py with spans installed; the names of its spans."""
    root = Path(__file__).resolve().parent.parent
    cfg = write_cfg(tmp_path, {**doc, "trajectory_dir": None})
    result_path = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "bench/child.py", str(result_path), "1", "run", "--config", cfg,
         "--out", str(tmp_path / "out"), "--set", f"trajectory_dir={tmp_path / 'traj'}"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["exit"] == 0, result
    assert len(list((tmp_path / "traj").iterdir())) == doc["trials"]
    return [span["name"] for span in result["spans"]]


def test_traced_benchmark_child_runs_a_command(tmp_path):
    # bench/spans.py rebinds names in gamegrad at run time; this fails when one goes away
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / "src" / "gamegrad" / "configs" / "quadratic_1d.cfg").read_text())
    names = run_traced_child(tmp_path, doc)
    assert {"dynamics.run_trajectory", "harness.write_trajectory", "metrics.run_check"} <= set(names)


def test_traced_benchmark_child_runs_a_lockstep_command(tmp_path):
    names = run_traced_child(tmp_path, _LOCKSTEP_DOC)
    assert {"harness.write_trajectory", "metrics.run_check"} <= set(names)
    assert "dynamics.run_trajectory" not in names  # spans.py does not span run_lockstep
    assert names.count("harness.write_trajectory") == _LOCKSTEP_DOC["trials"]


_POOL_SCRIPT = """
import json, sys
from gamegrad.cli import main

def run(workers):
    try:
        main(["run", "--config", "quadratic_1d.cfg", "--set", "trials=3",
              "--out", f"{sys.argv[1]}/w{workers}", "--workers", str(workers)])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    return [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]

print(json.dumps([run(1), run(2)]))
"""


def test_one_worker_run_does_not_import_the_process_pool(tmp_path):
    # a fresh interpreter: this test session may have loaded the pool already
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _POOL_SCRIPT, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    one, two = json.loads(proc.stdout.splitlines()[-1])
    assert one == []
    assert two == ["concurrent.futures.process", "multiprocessing"]  # two blocks use the pool
    for name in ("report.json", "curves.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


_RANDOM_SCRIPT = """
import json, sys
from gamegrad.cli import main

def run(*args):
    try:
        main([*args, "--out", f"{sys.argv[1]}/{len(seen)}"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    seen.append("numpy.random" in sys.modules)

seen = ["numpy.random" in sys.modules]
run("run", "--config", "criterion2_tail.cfg")
run("sweep", "--config", "criterion1_descent.cfg")
run("run", "--config", "quadratic_1d.cfg", "--set", 'checks=["no_divergence"]', "--set",
    'dynamics.noise={"kind": "relative", "tau": {"kind": "constant", "c": 0.25}}')
print(json.dumps(seen))
"""


def test_noiseless_commands_do_not_import_numpy_random(tmp_path):
    # a fresh interpreter: this test session has loaded numpy.random already
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _RANDOM_SCRIPT, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # start-up, the noiseless run and sweep, then a noisy run, which builds its generator
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, True]
