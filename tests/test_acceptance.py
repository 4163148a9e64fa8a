"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each bundled ``criterion*.cfg`` is one experiment and one row here, and it
may carry the checks of more than one criterion: criterion 4's row also
prints criterion 5's time-average verdict, as both are checked on the same
100 trials. A row runs through ``gamegrad run`` (``gamegrad sweep`` for a
document with a grid) and passes when it exits 0, every verdict passed and
every per-trial check has one verdict per trial. Adding a ``criterion*.cfg``
adds a row. Criterion 1's loop over the built-in games (eta = frac * lambda
for each game) and criterion 9's oracle and property suite have no config
form and stay in Python.

The convergence claims being checked are asymptotic; the suite verifies them
through invariant checks plus slope-fit surrogates at fixed horizons. Runs
that reach the Nash set exactly (gap identically zero from some step on, as
the one-dimensional piecewise game does, or after float underflow) count as
having attained any decay target; a slope check passed that way prints
``attained`` instead of a slope.
"""

import json
import re
import time
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import record_criterion
from gamegrad.cli import main
from gamegrad.dynamics import (
    ConstantSchedule,
    DynamicsConfig,
    RelativeNoise,
    VarianceSchedule,
    run_trajectory,
)
from gamegrad.games import (
    GameSpec,
    builtin_game_specs,
    estimate_cocoercivity,
    make_named_game,
    project_to_nash,
    verify_gradient,
)
from gamegrad.harness import ExperimentConfig, read_report, run_experiment
from gamegrad.metrics import fit_rate, parse_check, run_check

BUILTINS = sorted(builtin_game_specs())
CONFIGS = resources.files("gamegrad").joinpath("configs")
PIECEWISE = ("--set", 'game={"name": "piecewise"}', "--set", "dynamics.x0=[-1.0]")
ROWS = [(name, ()) for name in sorted(f.name for f in CONFIGS.iterdir())
        if re.fullmatch(r"criterion.*\.cfg", name)] + [
    ("criterion2_tail.cfg", PIECEWISE + ("--set", "dynamics.schedule.eta=0.5")),
    ("criterion3_adaptive.cfg", PIECEWISE),
]


def conclude(num, ok, detail=""):
    record_criterion(num, ok, detail)
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _worst(check_id, verdicts):
    """A check's worst violation; for a slope check the slope, or `attained`
    when it passed on a curve that reached exactly 0 (no fit, null violation)."""
    worst = [v["worst_violation"] for v in verdicts if v["worst_violation"] is not None]
    slope = check_id.startswith("slope_below:")
    if not worst:
        return "attained" if slope and all(v["passed"] for v in verdicts) else "worst none"
    if slope:  # worst_violation is slope - bound
        return f"slope {float(check_id.split(':')[2]) + max(worst):+.3f}"
    return f"worst {max(worst):.3g}"


def run_row(out, name, overrides=()):
    """Run one bundled config through the CLI; return (exit code, passed, summary).

    It passes when the command exits 0, every verdict in every written report
    passed, and each per-trial check id has exactly one verdict per trial.
    """
    command = "sweep" if "grid" in json.loads(CONFIGS.joinpath(name).read_text()) else "run"
    result = CliRunner().invoke(main, [command, "--config", name, "--out", str(out), *overrides])
    reports = [read_report(str(path)) for path in sorted(out.glob("report*.json"))]
    by_id, one_per_trial = {}, bool(reports)
    for report in reports:
        trials = {}
        for verdict in report.checks:
            by_id.setdefault(verdict["check_id"], []).append(verdict)
            if verdict["trial"] is not None:
                trials.setdefault(verdict["check_id"], []).append(verdict["trial"])
        expected = list(range(report.config["trials"]))
        one_per_trial &= all(sorted(t) == expected for t in trials.values())
    passed = (result.exit_code == 0 and one_per_trial and bool(by_id)
              and all(v["passed"] for vs in by_id.values() for v in vs))
    summary = "; ".join(f"{cid} {sum(v['passed'] for v in vs)}/{len(vs)} {_worst(cid, vs)}"
                        for cid, vs in by_id.items())
    return result.exit_code, passed, summary or result.output.strip()


@pytest.mark.parametrize("name, overrides", ROWS,
                         ids=[name + ("+piecewise" if o else "") for name, o in ROWS])
def test_bundled_criterion_config(tmp_path, name, overrides):
    code, passed, summary = run_row(tmp_path, name, overrides)
    num = re.match(r"criterion(\d+)", name).group(1)
    conclude(f"{num} ({name}{', piecewise' if overrides else ''})", passed,
             f"exit {code}; {summary}")


def test_row_runner_fails_a_row_whose_check_fails(tmp_path):
    # criterion 5's time-average slope, checked on criterion 4's trials, is
    # about -0.99, so a -1.5 bound must fail
    code, passed, summary = run_row(
        tmp_path, "criterion4_relative_as.cfg",
        ("--set", 'checks=["slope_below:time_average:-1.5:64:65536"]'))
    assert code == 1 and not passed, summary
    assert "slope_below:time_average:-1.5:64:65536 0/1 slope -0.9" in summary


def test_criterion_1_noiseless_constant_step_invariants():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    runs = 0
    spec = parse_check("descent_invariants")
    for name in BUILTINS:
        game = make_named_game(name)
        lam = game.cocoercivity
        starts = rng.uniform(-3.0, 3.0, size=(5, game.n))
        for frac in (0.25, 0.5, 1.0):
            for x0 in starts:
                cfg = DynamicsConfig(ConstantSchedule(frac * lam), horizon=100_000,
                                     x0=tuple(x0), thinning=1)
                spec.require(game, cfg)
                rec = run_trajectory(game, cfg)
                for v in run_check(spec, rec, game):
                    assert v.passed, (name, frac, x0, v)
                runs += 1
    elapsed = time.perf_counter() - start
    conclude(1, runs == 60 and elapsed < 10.0,
             f"{runs} runs at T=1e5, all descent invariants pass, {elapsed:.1f}s < 10s")


def test_criterion_9_oracle_and_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # gradient consistency against finite differences on every payoff-bearing game
    grad_ok = True
    for name in BUILTINS:
        game = make_named_game(name)
        assert game.payoffs is not None
        for x in rng.uniform(-2.0, 2.0, size=(10, game.n)):
            if name == "piecewise" and abs(x[0]) < 1e-3:
                x = x + 0.5  # finite differences straddle the kink otherwise
            grad_ok &= verify_gradient(game, x).max_abs_error <= 1e-8

    # cocoercivity estimates inside their stated brackets
    est1 = estimate_cocoercivity(make_named_game("quad_1d"), -10, 10, pairs=1000, seed=3)
    est2 = estimate_cocoercivity(make_named_game("quad_2d"), -5, 5, pairs=10_000, seed=11)
    est3 = estimate_cocoercivity(make_named_game("piecewise"), -5, 5, pairs=1000, seed=5)
    bracket_ok = (abs(est1.lambda_hat - 1.0) <= 1e-9
                  and 1 / 3 <= est2.lambda_hat <= 1 / 3 + 0.05
                  and 0.5 <= est3.lambda_hat <= 0.5 + 1e-6)

    # projection idempotence
    idem_ok = True
    for name in BUILTINS:
        game = make_named_game(name)
        for x in rng.uniform(-10.0, 10.0, size=(50, game.n)):
            once = project_to_nash(game, x)
            twice = project_to_nash(game, once)
            idem_ok &= float(np.linalg.norm(twice - once)) <= 1e-12

    # rate-fit exactness on synthetic power laws
    fit_ok = True
    for exponent in (-1.0, -0.5, 0.0):
        pts = [(T, 3.0 * T ** exponent) for T in (16, 64, 256, 1024)]
        fit_ok &= abs(fit_rate(pts).slope - exponent) <= 1e-9

    # harness byte-determinism on repeated runs
    cfg = ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(ConstantSchedule(0.3), horizon=512, x0=(1.0,), noise=RelativeNoise(
            VarianceSchedule("constant", 0.25), shape="sphere")),
        trials=5, master_seed=909)
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    det_ok = dump(run_experiment(cfg)) == dump(run_experiment(cfg))

    elapsed = time.perf_counter() - start
    ok = grad_ok and bracket_ok and idem_ok and fit_ok and det_ok and elapsed < 30.0
    conclude(9, ok, f"gradients:{grad_ok} brackets:{bracket_ok} idempotence:{idem_ok} "
                    f"fits:{fit_ok} determinism:{det_ok} {elapsed:.1f}s<30s")
