"""Acceptance suite: every criterion at its stated tolerance, one line each.

The convergence claims being checked are asymptotic; the suite verifies them
through invariant checks plus slope-fit surrogates at fixed horizons. Runs
that reach the Nash set exactly (gap identically zero from some step on, as
the one-dimensional piecewise game does, or after float underflow) count as
having attained any decay target; see vanishes_monotonically / slope_verdict.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from gamegrad.dynamics import (
    AbsoluteNoise,
    ConstantSchedule,
    DynamicsConfig,
    GradNormSchedule,
    PowerSchedule,
    RelativeNoise,
    StepNormSchedule,
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
from gamegrad.harness import ExperimentConfig, run_experiment
from gamegrad.metrics import (
    check_descent_invariants,
    fit_rate,
    slope_verdict,
    tail_product,
    vanishes_monotonically,
)

BUILTINS = sorted(builtin_game_specs())
WINDOW = (64.0, 65536.0)  # dyadic fit window [2^6, 2^16]


def conclude(num, ok, detail=""):
    record_criterion(num, ok, detail)
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def windowed(curve, lo=WINDOW[0], hi=WINDOW[1]):
    return [(t, v) for t, v in curve if lo <= t <= hi]


def tail_16_to_4096(gap):
    """Tail-product values at T = 2^4 .. 2^12 (needs gap up to index 2^13-1)."""
    series = tail_product(gap, doublings=13)
    assert not series.truncated
    return series.value[4:13]


def relative_experiment(tau_schedule, horizon=100_000, trials=100, seed=2024,
                        schedule=None, checks=()):
    return ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(
            schedule or ConstantSchedule(0.3), horizon=horizon, x0=(1.0,),
            noise=RelativeNoise(tau_schedule, shape="sphere")),
        trials=trials, master_seed=seed, checks=tuple(checks))


@pytest.fixture(scope="session")
def relative_const_report():
    # tau_t = 0.25 constant, eta = 0.3 < lambda/(1+tau) = 0.8; shared by criteria 4 and 5
    return run_experiment(relative_experiment(VarianceSchedule("constant", 0.25)))


def test_criterion_1_noiseless_constant_step_invariants():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    runs = 0
    for name in BUILTINS:
        game = make_named_game(name)
        lam = game.cocoercivity
        starts = rng.uniform(-3.0, 3.0, size=(5, game.n))
        for frac in (0.25, 0.5, 1.0):
            for x0 in starts:
                cfg = DynamicsConfig(ConstantSchedule(frac * lam), horizon=100_000,
                                     x0=tuple(x0), thinning=1)
                rec = run_trajectory(game, cfg)
                verdicts = check_descent_invariants(rec, game, eta=frac * lam, lam=lam)
                for v in verdicts:
                    assert v.passed, (name, frac, x0, v)
                runs += 1
    elapsed = time.perf_counter() - start
    conclude(1, runs == 60 and elapsed < 10.0,
             f"{runs} runs at T=1e5, all descent invariants pass, {elapsed:.1f}s < 10s")


def test_criterion_2_tail_product_vanishes_at_eta_lambda():
    ok = True
    details = []
    for name, x0 in (("piecewise", (-1.0,)), ("quad_2d", (1.3, 0.4))):
        game = make_named_game(name)
        cfg = DynamicsConfig(ConstantSchedule(game.cocoercivity), horizon=1 << 13, x0=x0)
        rec = run_trajectory(game, cfg)
        values = tail_16_to_4096(rec.gap)
        burn = math.ceil(0.1 * len(values))
        good = vanishes_monotonically(values, burnin=burn, drop_factor=1e-3)
        ok &= good
        final = values[-1]
        details.append(f"{name}: first={values[0]:.3g} final={final:.3g}")
    conclude(2, ok, "; ".join(details))


def test_criterion_3_adaptive_noiseless():
    ok = True
    details = []
    for name, x0 in (("piecewise", (-1.0,)), ("quad_2d", (2.0, -1.0))):
        game = make_named_game(name)
        T = 1 << 16
        cfg = DynamicsConfig(GradNormSchedule(beta1=1.0, r=2.0), horizon=T, x0=x0)
        rec = run_trajectory(game, cfg)

        stable = rec.beta[T] == rec.beta[T // 2]
        values = tail_16_to_4096(rec.gap)
        tail_ok = vanishes_monotonically(values, burnin=math.ceil(0.1 * len(values)),
                                         drop_factor=1e-3)
        points = [(float(t), float(rec.gap[t])) for t in (2 ** k for k in range(17))]
        burn = math.ceil(0.1 * len(points))
        slope_ok = slope_verdict(points, bound=-0.85, check_id="c3", burnin=burn).passed
        ok &= stable and tail_ok and slope_ok
        details.append(f"{name}: beta_stable={stable} tail={tail_ok} slope_ok={slope_ok}")
    conclude(3, ok, "; ".join(details))


def test_criterion_4_relative_noise_reaches_nash(relative_const_report):
    report = relative_const_report
    diverged = [t.trial for t in report.trials if t.diverged]
    dists = [t.final_distance for t in report.trials]
    worst = max(dists)
    ok = not diverged and worst < 1e-3
    conclude(4, ok, f"max distance at T=1e5: {worst:.3g} < 1e-3, {len(diverged)} divergences")


def test_criterion_5_relative_noise_time_average_rate(relative_const_report):
    pts = windowed(relative_const_report.curve("time_average"))
    fit = fit_rate(pts)
    conclude(5, fit.slope <= -0.8, f"time-average slope {fit.slope:+.3f} <= -0.8")


def test_criterion_6_relative_noise_last_iterate_tracks_budget():
    results = []
    ok = True
    for q, bound in ((0.5, -0.35), (1.0, -0.85)):
        report = run_experiment(relative_experiment(VarianceSchedule("power", 1.0, q),
                                                    seed=600 + int(10 * q)))
        pts = windowed(report.curve("last_iterate"))
        verdict = slope_verdict(pts, bound=bound, check_id=f"c6-q{q}")
        ok &= verdict.passed
        desc = "converged to 0" if pts and pts[-1][1] == 0.0 else f"slope-bound gap {verdict.worst_violation:+.3f}"
        results.append(f"tau~1/t^{q}: {desc} (bound {bound})")
    conclude(6, ok, "; ".join(results))


def test_criterion_7_step_norm_schedule_under_noise():
    report = run_experiment(relative_experiment(
        VarianceSchedule("power", 1.0, 0.5), horizon=1 << 16, seed=700,
        schedule=StepNormSchedule(beta=1.0), checks=("eta_monotone",)))
    eta_ok = all(c["passed"] for c in report.checks if c["check_id"] == "eta_monotone")
    assert len([c for c in report.checks if c["check_id"] == "eta_monotone"]) == 100
    pts = windowed(report.curve("last_iterate"))
    verdict = slope_verdict(pts, bound=-0.45, check_id="c7")
    conclude(7, eta_ok and verdict.passed,
             f"eta nonincreasing in all 100 trials: {eta_ok}; last-iterate bound met: {verdict.passed}")


def absolute_experiment(schedule, sigma_schedule, seed):
    return ExperimentConfig(
        game=GameSpec.from_dict({"name": "quad_1d"}),
        dynamics=DynamicsConfig(schedule, horizon=1 << 16, x0=(1.0,),
                                noise=AbsoluteNoise(sigma_schedule, shape="sphere")),
        trials=100, master_seed=seed)


def test_criterion_8_absolute_noise_suite():
    # (a) eta_t = (lambda/2)/sqrt(t), constant sigma^2: time-average decay
    rep_a = run_experiment(absolute_experiment(PowerSchedule(0.5, 0.5),
                                               VarianceSchedule("constant", 0.01), seed=801))
    fit_a = fit_rate(windowed(rep_a.curve("time_average")))
    ok_a = fit_a.slope <= -0.4

    # (b) sigma_t^2 = 0.01/(t+1)^2, constant eta = lambda/2: last-iterate decay
    rep_b = run_experiment(absolute_experiment(ConstantSchedule(0.5),
                                               VarianceSchedule("power", 0.01, 2.0), seed=802))
    verdict_b = slope_verdict(windowed(rep_b.curve("last_iterate")), bound=-0.85, check_id="c8b")
    ok_b = verdict_b.passed

    # (c) square-summable steps eta_t = 0.5/t^0.75: iterates settle near the Nash set
    rep_c = run_experiment(absolute_experiment(PowerSchedule(0.5, 0.75),
                                               VarianceSchedule("constant", 0.01), seed=803))
    dists = [t.final_distance for t in rep_c.trials]
    ok_c = not any(t.diverged for t in rep_c.trials) and max(dists) < 1e-2

    conclude(8, ok_a and ok_b and ok_c,
             f"(a) tavg slope {fit_a.slope:+.3f}<=-0.4: {ok_a}; "
             f"(b) last-iterate bound met: {ok_b}; "
             f"(c) max distance {max(dists):.3g}<1e-2: {ok_c}")


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
    cfg = relative_experiment(VarianceSchedule("constant", 0.25), horizon=512, trials=5, seed=909)
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    det_ok = dump(run_experiment(cfg)) == dump(run_experiment(cfg))

    elapsed = time.perf_counter() - start
    ok = grad_ok and bracket_ok and idem_ok and fit_ok and det_ok and elapsed < 30.0
    conclude(9, ok, f"gradients:{grad_ok} brackets:{bracket_ok} idempotence:{idem_ok} "
                    f"fits:{fit_ok} determinism:{det_ok} {elapsed:.1f}s<30s")
