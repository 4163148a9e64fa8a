import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

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
    dyadic_steps,
    run_trajectory,
)
from gamegrad.errors import ConfigError, IndeterminateResult
from gamegrad.games import (
    Game,
    GameSpec,
    estimate_cocoercivity,
    gradient_field,
    make_game,
    make_named_game,
    project_to_nash,
    verify_gradient,
)
from gamegrad.metrics import (
    CHECKS,
    ConvergenceVerdict,
    _BLOCK,
    _state_distances,
    distance_to_nash,
    fit_rate,
    optimality_gap,
    parse_check,
    run_check,
    slope_verdict,
    tail_product,
    time_average_gap,
    vanishes_monotonically,
    variance_budget,
)


def fabricate(gap, eta=None, states=None, schedule=None, noise=None, step_norm_sq=None,
              beta=None, diverged=False):
    """Build a minimal record directly, for negative controls."""
    gap = np.asarray(gap, dtype=float)
    T = len(gap) - 1
    eta = np.asarray(eta if eta is not None else np.full(T, 0.5))
    states = np.asarray(states if states is not None else np.zeros((1, 1)))
    return TrajectoryRecord(
        game_name="fabricated",
        config={"schedule": schedule or {"kind": "constant", "eta": float(eta[0]) if T else 0.5},
                "noise": noise or {"kind": "none"},
                "horizon": T, "x0": list(map(float, states[0])),
                "blow_up_radius": None, "thinning": 0},
        gap=gap, eta=eta,
        step_norm_sq=np.asarray(step_norm_sq if step_norm_sq is not None else eta ** 2 * gap[:-1]),
        beta=beta if beta is None else np.asarray(beta, dtype=float),
        state_steps=np.arange(len(states)), states=states,
        seed=None, horizon=T, diverged=diverged,
        divergence_step=T if diverged else None)


# ---------------------------------------------------------------------------
# optimality gap / distance
# ---------------------------------------------------------------------------

def test_optimality_gap_values():
    piecewise = make_named_game("piecewise")
    assert optimality_gap(piecewise, [2.0]) == 0.0
    assert optimality_gap(piecewise, [-1.0]) == 4.0
    quad = make_named_game("quad_2d")
    assert optimality_gap(quad, [1.0, 1.0]) == 18.0


def test_distance_to_nash_values():
    piecewise = make_named_game("piecewise")
    assert distance_to_nash(piecewise, [-3.0]) == 3.0
    assert distance_to_nash(piecewise, [7.0]) == 0.0
    game = make_game(GameSpec.quadratic([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
    assert distance_to_nash(game, [3.0, 4.0]) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_time_average_gap_prefix_means():
    assert np.allclose(time_average_gap([4.0, 0.0, 0.0]), [4.0, 2.0, 4.0 / 3.0])
    assert np.array_equal(time_average_gap([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.allclose(time_average_gap([1.0, 0.25, 0.0625]), [1.0, 0.625, 0.4375])


def test_time_average_gap_at_steps_has_the_bits_of_the_whole_curve():
    gap = np.sin(np.arange(5000.0)) ** 2 / np.arange(1.0, 5001.0)
    steps = np.array([0, 1, 2, 4, 1000, 4096, 4999])
    assert time_average_gap(gap, steps).tobytes() == time_average_gap(gap)[steps].tobytes()


def test_time_average_monotone_when_gap_monotone():
    gap = 0.9 ** np.arange(200)
    avg = time_average_gap(gap)
    assert np.all(np.diff(avg) <= 0)


def test_tail_product_geometric_series():
    gap = 0.25 ** np.arange(10)
    series = tail_product(gap)
    assert series.T.tolist() == [1.0, 2.0, 4.0]
    assert series.value[0] == 0.25
    assert series.value[1] == 0.03125
    assert series.value[2] == pytest.approx(2.44140625e-4, rel=1e-12)


def test_tail_product_zero_tail():
    gap = np.array([4.0] + [0.0] * 16)
    series = tail_product(gap)
    assert np.array_equal(series.value, np.zeros(len(series.value)))


def test_tail_product_inverse_square_decreases():
    ts = np.arange(1, 1 << 12)
    gap = np.concatenate([[1.0], 1.0 / ts ** 2])
    series = tail_product(gap)
    assert np.all(np.diff(series.value[1:]) < 0)


def test_tail_product_points_match_dyadic_loop():
    gap = np.linspace(1.0, 0.0, 70) ** 2
    for size in range(1, 71):
        ts, T = [], 1  # the reference: T = 1, 2, 4, ... while gap[2T - 1] exists
        while 2 * T - 1 < size:
            ts.append(T)
            T *= 2
        if not ts:
            with pytest.raises(ValueError):
                tail_product(gap[:size])
            continue
        series = tail_product(gap[:size])
        assert series.T.tolist() == ts
        assert series.value.tolist() == [t * gap[2 * t - 1] for t in ts]


def test_vanishes_monotonically_rules():
    assert vanishes_monotonically([8.0, 4.0, 2.0, 1.0], drop_factor=0.5)
    assert vanishes_monotonically([8.0, 4.0, 0.0, 0.0])          # exact convergence
    assert vanishes_monotonically([0.0, 0.0, 0.0])               # converged at once
    assert not vanishes_monotonically([8.0, 9.0, 1.0])           # increase
    assert not vanishes_monotonically([8.0, 0.0, 1.0])           # leaves the limit
    assert not vanishes_monotonically([8.0, 4.0, 2.0], drop_factor=1e-3)
    assert vanishes_monotonically([9.0, 8.0, 4.0, 2.0], burnin=1, drop_factor=0.5)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_inverse_law():
    fit = fit_rate([(10.0, 0.1), (100.0, 0.01), (1000.0, 0.001)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.residual_rms <= 1e-12


def test_fit_rate_constant():
    fit = fit_rate([(10.0, 1.0), (100.0, 1.0), (1000.0, 1.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_half_power():
    pts = [(T, 3.0 / math.sqrt(T)) for T in (16, 64, 256, 1024)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.window == (16.0, 1024.0)
    assert fit.n_points == 4


def test_fit_rate_excludes_nonpositive_and_goes_indeterminate():
    fit = fit_rate([(1, 1.0), (2, 0.5), (4, 0.25), (8, 0.0), (16, -1.0)])
    assert fit.n_points == 3
    with pytest.raises(IndeterminateResult):
        fit_rate([(1, 1.0), (2, 0.5), (4, 0.0)])


def test_fit_rate_window():
    pts = [(T, 1.0 / T) for T in (1, 2, 4, 8, 16, 32)]
    fit = fit_rate(pts, window=(4, 16))
    assert fit.n_points == 3
    assert fit.window == (4.0, 16.0)


def test_slope_verdict_zero_converged_passes():
    v = slope_verdict([(1, 1.0), (2, 0.1), (4, 0.0)], bound=-1.0, check_id="slope_below")
    assert v.passed
    v = slope_verdict([(1, 1.0), (2, 1.0), (4, 1.0)], bound=-1.0, check_id="slope_below")
    assert not v.passed


# ---------------------------------------------------------------------------
# variance budget
# ---------------------------------------------------------------------------

def test_variance_budget_relative_sqrt_schedule():
    noise = RelativeNoise(VarianceSchedule("power", 1.0, 0.5))
    # direct sum: (1 + 1/sqrt2 + 1/sqrt3 + 1/2) / 5
    expected = (1.0 + 1.0 / math.sqrt(2) + 1.0 / math.sqrt(3) + 0.5) / 5.0
    assert variance_budget(noise, 4) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.5569, abs=1e-4)


def test_variance_budget_constant_relative():
    noise = RelativeNoise(VarianceSchedule("constant", 0.25))
    for T in (1, 10, 1000):
        assert variance_budget(noise, T) == pytest.approx(0.25 * T / (T + 1.0), rel=1e-15)


def test_variance_budget_inverse_t_tracks_log_over_t():
    noise = RelativeNoise(VarianceSchedule("power", 1.0, 1.0))
    for T in (10_000, 1_000_000):
        ratio = variance_budget(noise, T) * (T + 1.0) / math.log(T)
        assert 0.9 <= ratio <= 1.15  # harmonic sum ~ log T


def test_variance_budget_absolute_weighting():
    noise = AbsoluteNoise(VarianceSchedule("constant", 0.01))
    # sum (t+1)*0.01 for t < 3 = 0.01*6, divided by 4
    assert variance_budget(noise, 3) == pytest.approx(0.06 / 4.0, rel=1e-15)
    assert variance_budget(NoNoise(), 100) == 0.0


# ---------------------------------------------------------------------------
# descent-invariant checks
# ---------------------------------------------------------------------------

def run_named_check(check_id, rec, game):
    """run_check on the spec, after its needs are tested against the record's own dynamics."""
    spec = parse_check(check_id)
    spec.require(game, DynamicsConfig.from_dict(rec.config))
    return run_check(spec, rec, game)


def test_check_descent_invariants_geometric_case():
    game = make_named_game("quad_1d")  # lambda = 1
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=100, x0=(1.0,), thinning=1)
    rec = run_trajectory(game, cfg)
    verdicts = run_named_check("descent_invariants", rec, game)
    assert all(v.passed for v in verdicts)
    total = rec.gap.sum()
    assert total == pytest.approx(4.0 / 3.0, rel=1e-12)  # geometric series
    assert total <= 1.0 / (0.5 * 1.0)


def test_check_descent_invariants_piecewise_boundary_tight():
    game = make_named_game("piecewise")  # lambda = 0.5
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=50, x0=(-1.0,), thinning=1)
    rec = run_trajectory(game, cfg)
    verdicts = run_named_check("descent_invariants", rec, game)
    assert all(v.passed for v in verdicts)
    assert rec.gap.sum() == pytest.approx(4.0, abs=1e-12)  # bound is 1/(0.5*0.5) = 4
    assert verdicts[2].worst_violation == pytest.approx(0.0, abs=1e-12)


def test_check_descent_invariants_negative_control():
    gap = np.array([4.0, 2.0, 1.0, 0.5, 0.9, 0.1, 0.0])
    rec = fabricate(gap, states=np.array([[-2.0]]))  # eta = 0.5
    game = make_named_game("quad_1d")
    verdicts = run_named_check("descent_invariants", rec, game)
    mono = verdicts[0]
    assert not mono.passed
    assert mono.first_violation_step == 4  # sqrt(gap) rises entering index 4
    assert mono.worst_violation > 0
    # gap sum 8.5 against d0^2 / (eta * lambda) = 4 / (0.5 * 1): eta is the
    # record's step size, lambda the game's cocoercivity
    assert verdicts[2].worst_violation == pytest.approx(8.5 - 8.0, rel=1e-15)


def descent_reference(record, game):
    """descent_invariants as first written: full-length temporaries and np.linalg.norm(axis=1)."""
    norms = np.sqrt(record.gap)
    tol = 1e-10 * (1.0 + float(norms[0]))
    diffs = norms[1:] - norms[:-1]
    worst = float(diffs.max()) if diffs.size else -math.inf
    bad = np.nonzero(diffs > tol)[0]
    mono = ConvergenceVerdict("descent.grad_norm_monotone", worst <= tol, worst,
                              int(bad[0]) + 1 if bad.size else None)
    p0 = project_to_nash(game, record.states[0])
    d0 = float(np.linalg.norm(record.states[0] - p0))
    dists = np.linalg.norm(record.states - p0, axis=1)
    worst = float((dists - d0).max())
    bad = np.nonzero(dists > d0 + 1e-9)[0]
    bounded = ConvergenceVerdict("descent.iterate_bounded", worst <= 1e-9, worst,
                                 int(record.state_steps[bad[0]]) if bad.size else None)
    total = float(record.gap.sum())
    bound = d0 * d0 / (record.config["schedule"]["eta"] * game.cocoercivity)
    return [mono, bounded, ConvergenceVerdict("descent.gap_summable", total <= bound + 1e-6,
                                              total - bound)]


def quad_3d():
    return make_game(GameSpec.quadratic([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],
                                        [1.0, 0.0, -1.0]))


def descent_record(name):
    """A game and a noiseless constant-step record with every state logged."""
    if name == "quad_2d":
        # descent_sweep's eta = lambda / 4 point: the gap is exactly 0 from step
        # 4,289, and the states shrink through the subnormals until step 8,542
        game = make_named_game(name)
        cfg = DynamicsConfig(ConstantSchedule(0.08333333333333333), horizon=50_000,
                             x0=(1.5, -2.0), thinning=1)
        rec = run_trajectory(game, cfg)
        assert int(np.flatnonzero(rec.gap == 0.0)[0]) == 4289 and rec.settle_step == 8542
        assert np.any((rec.states != 0.0) & (np.abs(rec.states) < np.finfo(float).tiny))
        return game, rec
    if name == "quad_3d":  # n > 2: np.linalg.norm itself
        game = quad_3d()
    else:
        game = make_named_game(name)
    cfg = DynamicsConfig(ConstantSchedule(0.5 * game.cocoercivity), horizon=3000,
                         x0=(1.3, -0.7, 2.1)[:game.n], thinning=1)
    return game, run_trajectory(game, cfg)


@pytest.mark.parametrize("name", ["quad_1d", "rand_2d", "quad_3d", "quad_2d"])
def test_descent_invariants_read_distances_with_the_bits_of_the_axis_1_norm(name):
    game, rec = descent_record(name)
    p0 = project_to_nash(game, rec.states[0])
    expected = np.linalg.norm(rec.states - p0, axis=1)
    assert _state_distances(rec.states, p0).tobytes() == expected.tobytes()
    verdicts = run_named_check("descent_invariants", rec, game)
    assert repr(verdicts) == repr(descent_reference(rec, game))
    assert all(v.passed for v in verdicts)


def test_descent_invariants_find_the_first_violations_as_the_reference_does():
    # the gap rises entering step 2 and the states leave the start's ball at
    # step 2; from step 2 on, a NaN (the maximum) comes before the first
    # violation of each
    gap = np.array([4.0, 1.0, 2.0, np.nan, 0.5, 3.0])
    states = np.array([[1.0, 1.0], [0.5, 0.2], [2.0, 0.0], [np.nan, 0.0], [3.0, 1.0], [0.0, 0.0]])
    game = make_named_game("quad_2d")
    firsts = []
    for rec in (fabricate(gap, states=states), fabricate(gap[2:], states=states[2:])):
        verdicts = run_check(parse_check("descent_invariants"), rec, game)
        assert repr(verdicts) == repr(descent_reference(rec, game))
        assert not any(v.passed for v in verdicts)
        firsts.append([v.first_violation_step for v in verdicts[:2]])
    assert firsts == [[2, 2], [3, 2]]


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def test_run_check_descent_invariants_matrix():
    for name in ("quad_1d", "quad_2d", "piecewise", "rand_2d"):
        game = make_named_game(name)
        lam = game.cocoercivity
        for frac in (0.25, 0.5, 1.0):
            cfg = DynamicsConfig(ConstantSchedule(frac * lam), horizon=500,
                                 x0=(0.8,) * game.n, thinning=1)
            rec = run_trajectory(game, cfg)
            assert all(v.passed for v in run_named_check("descent_invariants", rec, game))


def test_run_check_eta_monotone_and_beta_stable():
    game = make_named_game("quad_2d")
    cfg = DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=2048, x0=(3.0, -2.0))
    rec = run_trajectory(game, cfg)
    assert run_named_check("eta_monotone", rec, game)[0].passed
    assert run_named_check("beta_stable", rec, game)[0].passed


def _eta_monotone_by_full_scan(eta):
    """The eta_monotone verdict as the check computed it before it searched
    for a first violation only when one exists: one scan of the whole row."""
    diffs = np.diff(eta)
    worst = float(diffs.max()) if diffs.size else -math.inf
    bad = np.nonzero(diffs > 0)[0]
    return ConvergenceVerdict("eta_monotone", passed=worst <= 0, worst_violation=worst,
                              first_violation_step=int(bad[0]) + 1 if bad.size else None)


@pytest.mark.parametrize("eta", [
    [1.0, 0.5, 0.5, 0.25],             # passes
    [1.0, 0.5, 0.75, 0.25, 0.3],       # fails first at step 2
    [1.0, math.nan, 0.5, 0.6, 0.2],    # NaN, then a rise at step 3
    [1.0, math.nan, 0.5, 0.25],        # NaN and no rise
    [1.0],                             # no differences
], ids=["passing", "failing", "nan_and_rise", "nan_only", "one_step"])
def test_eta_monotone_verdict_matches_a_full_scan(eta):
    game = make_named_game("quad_1d")
    rec = fabricate(np.ones(len(eta) + 1), eta=eta)
    got = run_named_check("eta_monotone", rec, game)
    want = _eta_monotone_by_full_scan(np.asarray(eta))
    assert len(got) == 1
    assert (got[0].passed, got[0].first_violation_step) == (want.passed,
                                                            want.first_violation_step)
    assert np.array_equal(got[0].worst_violation, want.worst_violation, equal_nan=True)


def test_run_check_gap_step_consistency_and_negative_control():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=64, x0=(1.0,))
    rec = run_trajectory(game, cfg)
    assert run_named_check("gap_step_consistency", rec, game)[0].passed
    bad = fabricate([1.0, 0.25, 0.0625], step_norm_sq=np.array([0.25, 0.9]))
    assert not run_named_check("gap_step_consistency", bad, game)[0].passed


def test_a_check_that_reads_step_norms_refuses_a_record_without_them():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=64, x0=(1.0,))
    rec = run_trajectory(game, cfg, step_norms=False)
    with pytest.raises(ValueError, match="step_norms=True"):
        run_check(parse_check("gap_step_consistency"), rec, game)
    assert run_check(parse_check("no_divergence"), rec, game)[0].passed  # it reads none


@pytest.mark.parametrize("offset,x0,eta", [([0.0], (1.0,), 0.5), ([5.0], (1.0,), 0.5),
                                           ([-1e6], (3.0,), 0.5), ([3.0, -1e3], (1.5, -2.0), 0.25)])
def test_gap_step_consistency_holds_to_rounding_and_catches_a_1e_9_step_size(offset, x0, eta):
    # offset [5] is quadratic_1d.cfg's run around a nonzero Nash point: its
    # increments reach the last bits of x near 5, which a fixed relative
    # tolerance of 1e-12 failed
    A = np.eye(len(offset)) if len(offset) == 1 else [[2.0, 0.5], [0.5, 1.0]]
    game = make_game(GameSpec.quadratic(A, offset))
    rec = run_trajectory(game, DynamicsConfig(ConstantSchedule(eta), horizon=64, x0=x0,
                                              thinning=1))
    (ok,) = run_named_check("gap_step_consistency", rec, game)
    assert ok.passed and ok.worst_violation <= 1.0
    for mutated in (rec.eta * (1 + 1e-9), rec.eta * (1 - 1e-9)):
        bad = fabricate(rec.gap, eta=mutated, states=rec.states, step_norm_sq=rec.step_norm_sq)
        (verdict,) = run_named_check("gap_step_consistency", bad, game)
        assert not verdict.passed and verdict.first_violation_step == 0


def test_run_check_distance_and_divergence():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=64, x0=(1.0,))
    rec = run_trajectory(game, cfg)
    assert run_named_check("no_divergence", rec, game)[0].passed
    assert run_named_check("distance_below:1e-3", rec, game)[0].passed
    assert not run_named_check("distance_below:1e-30", rec, game)[0].passed


def test_run_check_tail_to_zero():
    game = make_named_game("quad_2d")
    lam = game.cocoercivity
    cfg = DynamicsConfig(ConstantSchedule(lam), horizon=1 << 13, x0=(1.3, 0.4))
    rec = run_trajectory(game, cfg)
    assert run_named_check("tail_to_zero", rec, game)[0].passed


@pytest.mark.parametrize("gap", [[1.0, math.inf], [1.0, 4.0, math.inf]],
                         ids=["diverged_at_step_1", "diverged_at_step_2"])
def test_tail_to_zero_fails_a_record_with_no_point_after_burn_in(gap):
    spec = parse_check("tail_to_zero")
    verdicts = run_check(spec, fabricate(gap, diverged=True), make_named_game("quad_1d"))
    assert verdicts == [ConvergenceVerdict("tail_to_zero", passed=False,
                                           worst_violation=math.inf)]


def test_parse_check_unknown_id():
    with pytest.raises(ConfigError, match="unknown check id"):
        parse_check("mystery")


@pytest.mark.parametrize("check_id,message", [
    ("distance_below:0", "distance_below threshold must be positive"),
    ("distance_below:-1", "distance_below threshold must be positive"),
    ("distance_below:", "distance_below threshold must be a number"),
    ("tail_to_zero:", "tail_to_zero factor must be a number"),
    ("tail_to_zero:0", "tail_to_zero factor must be positive"),
    ("tail_to_zero:-1", "tail_to_zero factor must be positive"),
    ("no_divergence:", "takes no argument"),
])
def test_parse_check_rejects_arguments_no_run_can_use(check_id, message):
    # a distance and a gap are >= 0 and their tests are strict; an empty argument is no number
    with pytest.raises(ConfigError, match=message):
        parse_check(check_id)


def test_verdict_to_dict_writes_non_finite_worst_violation_as_null():
    assert ConvergenceVerdict("x", False, 0.5, 3).to_dict() == {
        "check_id": "x", "passed": False, "worst_violation": 0.5, "first_violation_step": 3}
    for worst in (math.inf, -math.inf, math.nan):
        doc = ConvergenceVerdict("x", True, worst).to_dict()
        assert doc["worst_violation"] is None and doc["first_violation_step"] is None


# ---------------------------------------------------------------------------
# checks in blocks
# ---------------------------------------------------------------------------

BLOCK_LENGTHS = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
# Where the NaN and the violations sit, as seen by every check's scan at the
# longer lengths: "nan_first" puts a NaN in the first block and the one
# violation in the last, "nan_later" violations in the first and the last
# block and a NaN after them.
BLOCK_CASES = ["passing", "nan_first", "nan_later", "inf"]


def _gap_step_by_full_scan(record):
    """gap_step_consistency as one pass over full-length arrays."""
    n = len(record.config["x0"])
    S = record.step_norm_sq
    E = record.eta ** 2 * record.gap[:-1]
    diff = np.abs(S - E)
    steps = np.flatnonzero(diff != 0.0)
    end = steps[-1] + 1 if steps.size else 0
    X = max(map(abs, record.config["x0"])) + np.add.accumulate(np.sqrt(S[:end]))[steps]
    S, E, diff, eta_sq = S[steps], E[steps], diff[steps], record.eta[steps] ** 2
    floor = (2 * n + 4) * 2.0 ** -1074 * (1.0 + eta_sq)
    r = np.sqrt(S + floor) + np.sqrt(E + floor)
    bound = r * (2.0 * math.sqrt(n) * np.spacing(X) + (n + 4) * 2.0 ** -53 * r) + floor
    ratio = diff / bound
    worst = float(ratio.max()) if ratio.size else 0.0
    bad = steps[~(ratio <= 1.0)]
    return [ConvergenceVerdict("gap_step_consistency", passed=not bad.size, worst_violation=worst,
                               first_violation_step=int(bad[0]) if bad.size else None)]


def _blocked_series(length, case, start=4.0):
    """A decreasing positive series with -0.0, inf and NaN entries as the case asks;
    a rise or an inf is a violation of every check that reads the series."""
    values = start * 0.9995 ** np.arange(length)
    if case == "nan_first":
        values[3] = math.nan
        values[-3:] = [-0.0, 0.0, 1.0]  # no rise into the +0.0, then a rise
    elif case == "nan_later":
        values[2] = 2.0 * values[1]
        values[-3:] = [1.0, -0.0, math.nan]
    elif case == "inf":
        values[-1] = math.inf
    return values


def _blocked_verdicts(check_id, record, game, reference):
    with np.errstate(all="ignore"):  # inf - inf and the like, on both sides alike
        return repr(run_check(parse_check(check_id), record, game)), repr(reference(record))


@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("length", BLOCK_LENGTHS)
@pytest.mark.parametrize("name", ["quad_2d", "quad_3d"])
def test_descent_invariants_in_blocks_keep_the_bits_of_one_pass(name, length, case):
    # quad_3d's distances are np.linalg.norm(..., axis=1) on blocks of 8,192 // 3 rows
    game = quad_3d() if name == "quad_3d" else make_named_game(name)
    x0 = np.array([1.5, -2.0, 0.5][:game.n])
    p0 = project_to_nash(game, x0)
    states = p0 + (x0 - p0) * 0.9995 ** np.arange(length)[:, None]
    far = p0 + 2.0 * (x0 - p0)
    if case == "nan_first":
        states[3, 0], states[-1] = math.nan, far
    elif case == "nan_later":
        states[2], states[-2], states[-1, -1] = far, far, math.nan
    elif case == "inf":
        states[-1, 0] = math.inf
    states[length // 2] = p0
    states[length // 2, 0] = -0.0
    rec = fabricate(_blocked_series(length, case), states=states)
    got, want = _blocked_verdicts("descent_invariants", rec, game,
                                  lambda r: descent_reference(r, game))
    assert got == want
    assert ("passed=True" in got) == (case == "passing")


@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("length", BLOCK_LENGTHS)
def test_eta_monotone_in_blocks_keeps_the_bits_of_one_pass(length, case):
    eta = _blocked_series(length, case, start=0.5)
    if case == "passing":
        eta[-2:] = -0.0  # the largest rise is the one +0.0, from -0.0 to -0.0
    rec = fabricate(np.ones(length + 1), eta=eta)
    got, want = _blocked_verdicts("eta_monotone", rec, make_named_game("quad_1d"),
                                  lambda r: [_eta_monotone_by_full_scan(r.eta)])
    assert got == want
    assert ("passed=True" in got) == (case == "passing")


@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("length", BLOCK_LENGTHS)
def test_gap_step_consistency_in_blocks_keeps_the_bits_of_one_pass(length, case):
    # steps off by an ulp in every block but the second, steps equal on both
    # sides (ratio 0) and -0.0 step norms at each block's first step; a NaN
    # is a violation here
    gap = 4.0 * 0.9995 ** np.arange(length + 1)
    eta = np.full(length, 0.25)
    S = eta ** 2 * gap[:-1]
    off = (np.arange(length) % 7 == 0) & (np.arange(length) // _BLOCK != 1)
    S[off] = np.nextafter(S[off], math.inf)
    S[::_BLOCK], gap[:-1][::_BLOCK] = -0.0, 0.0
    if length > 2 * _BLOCK:
        # one large equal-sided step in the second block, which puts X past
        # 1e4, and a step in the third whose bound needs that X to pass
        S[_BLOCK + 5], gap[_BLOCK + 5] = 1e8, 1.6e9
        S[2 * _BLOCK + 5] += 3e-14
    if case == "nan_first":
        S[3], S[-1] = math.nan, 2.0 * S[-1]
    elif case == "nan_later":
        S[2], S[-2], S[-1] = 2.0 * S[2], 2.0 * S[-2], math.nan
    elif case == "inf":
        S[-1] = math.inf
    rec = fabricate(gap, eta=eta, states=np.array([[1.5, -2.0]]), step_norm_sq=S)
    got, want = _blocked_verdicts("gap_step_consistency", rec, make_named_game("quad_2d"),
                                  _gap_step_by_full_scan)
    assert got == want
    assert ("passed=True" in got) == (case == "passing")


def test_time_average_gap_at_no_steps_or_past_the_end():
    gap = 0.5 ** np.arange(100)
    none = time_average_gap(gap, np.array([], dtype=np.int64))
    assert none.shape == (0,) and none.dtype == np.float64
    for past in ([100], [0, 100], [10_000]):
        with pytest.raises(IndexError):
            time_average_gap(gap, np.array(past))
    last = time_average_gap(gap, np.array([99]))
    assert last.tobytes() == time_average_gap(gap)[-1:].tobytes()


@pytest.mark.parametrize("check_id, temporaries", [("descent_invariants", 4),
                                                   ("gap_step_consistency", 8)])
def test_checks_on_a_50_000_step_record_keep_their_temporaries_to_blocks(check_id, temporaries):
    # full-length temporaries of this record are 400 KB each: a traced peak
    # of 1,954 KiB for descent_invariants and 1,172 KiB for
    # gap_step_consistency when they were one pass over the record
    game, rec = descent_record("quad_2d")
    tracemalloc.start()
    try:
        run_check(parse_check(check_id), rec, game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= temporaries * 8 * _BLOCK  # bytes: that many temporaries of a block at a time


# ---------------------------------------------------------------------------
# settled records: the scans stop at the settle step
# ---------------------------------------------------------------------------

# Every per-trial check; each record runs those whose needs its run meets.
PER_TRIAL_CHECKS = [name + (":1e-3" if name == "distance_below" else "")
                    for name, needs in CHECKS.items() if needs.run is not None]
SETTLE_GAMES = {"quad_1d": (-0.8,), "quad_2d": (1.5, -2.0), "piecewise": (-0.8,),
                "piecewise_on_nash": (2.0,), "rand_2d": (1.5, -2.0)}
SETTLE_SCHEDULES = {"constant": None,  # eta = lambda / 2
                    "power": lambda: PowerSchedule(0.5, 0.1),
                    "step_norm": lambda: StepNormSchedule(1.0),
                    "grad_norm": lambda: GradNormSchedule(1.0, 2.0)}
SETTLE_NOISE = {"none": NoNoise(),
                "relative_sphere": RelativeNoise(VarianceSchedule("constant", 0.25), "sphere")}
SETTLE_HORIZON = 10_000  # past every settle step of the grid (rand_2d's last, 9,158)
# Constant steps whose runs settle at 8,191, 8,192 and 8,193: at and next to
# the edge of a block of rises (8,191), of step norms (8,192) and of states
# (8,192 rows for n = 1, 4,096 for n = 2).
EDGE_ETAS = {"quad_1d": (0.08666, 0.08665, 0.08664), "quad_2d": (0.08675, 0.08674, 0.08673)}

SETTLE_GRID = (
    [pytest.param(g, s, n, None, id=f"{g}-{s}-{n}") for g in SETTLE_GAMES for s in SETTLE_SCHEDULES
     for n in SETTLE_NOISE if not (s == "grad_norm" and n != "none")]
    + [pytest.param(g, "constant", "none", eta, id=f"{g}-edge-{8191 + k}")
       for g, etas in EDGE_ETAS.items() for k, eta in enumerate(etas)])


def settled_record(name, schedule, noise, eta, thinning):
    """A game and a record of one run that settled, with step norms kept."""
    game = make_named_game(name.removesuffix("_on_nash"))
    if schedule == "constant":
        sched = ConstantSchedule(0.5 * game.cocoercivity if eta is None else eta)
    else:
        sched = SETTLE_SCHEDULES[schedule]()
    cfg = DynamicsConfig(sched, horizon=SETTLE_HORIZON, x0=SETTLE_GAMES[name],
                         noise=SETTLE_NOISE[noise], thinning=thinning)
    rec = run_trajectory(game, cfg, rng=3, step_norms=True)
    assert rec.settle_step is not None
    return game, rec


def per_trial_verdicts(rec, game):
    """Every per-trial check that applies to the record's run, as verdicts."""
    cfg = DynamicsConfig.from_dict(rec.config)
    verdicts = []
    for check_id in PER_TRIAL_CHECKS:
        spec = parse_check(check_id)
        try:
            spec.require(game, cfg)
        except ConfigError:
            continue
        verdicts += run_check(spec, rec, game)
    return verdicts


@pytest.mark.parametrize("thinning", [0, 1, 7])
@pytest.mark.parametrize("name, schedule, noise, eta", SETTLE_GRID)
def test_settled_record_gives_what_its_whole_record_gives(name, schedule, noise, eta, thinning):
    game, rec = settled_record(name, schedule, noise, eta, thinning)
    whole = dataclasses.replace(rec, settle_step=None)
    got, want = per_trial_verdicts(rec, game), per_trial_verdicts(whole, game)
    assert [v.to_dict() for v in got] == [v.to_dict() for v in want]
    assert repr(got) == repr(want)  # the signs of zeros too
    dyadic = np.asarray(dyadic_steps(SETTLE_HORIZON), dtype=np.int64)
    assert time_average_gap(rec, dyadic).tobytes() == time_average_gap(whole, dyadic).tobytes()
    # the grid's corner cases are what it says they are
    if eta is not None:
        assert rec.settle_step == 8191 + EDGE_ETAS[name].index(eta)
    if name == "piecewise_on_nash":
        assert rec.settle_step == 1 and rec.gap[0] == 0.0
    if name == "rand_2d" and schedule in ("constant", "grad_norm") and noise == "none":
        assert rec.gap[rec.settle_step] > 0.0  # it settles at a nonzero gap


@pytest.mark.parametrize("violations", [None, "before_settle", "settled_state"])
@pytest.mark.parametrize("tail_gap", [0.0, 1e-3])
def test_a_fabricated_settled_record_gives_what_its_whole_record_gives(tail_gap, violations):
    # a tail that is constant from the settle step on, after a strictly falling
    # gap (no zero rise before it), with violations at the step before the
    # settle step (a rise, a state past the starting distance and an
    # oversized step) or a settled state past the starting distance
    game, T, settle = make_named_game("quad_2d"), 300, 200
    x0 = np.array([1.5, -2.0])
    p0 = project_to_nash(game, x0)
    t = np.minimum(np.arange(T + 1), settle)
    gap = np.where(t < settle, 4.0 * 0.9 ** t, tail_gap)
    states = p0 + (x0 - p0) * 0.9 ** t[:, None]
    eta = np.full(T, 0.25)
    step = np.where(t[:-1] < settle, eta ** 2 * gap[:-1], 0.0)
    if violations == "before_settle":
        gap[settle - 1] = 2.0 * gap[settle - 2]
        states[settle - 1] = p0 + 2.0 * (x0 - p0)
        step[settle - 1] *= 2.0
    elif violations == "settled_state":
        states[settle:] = p0 + 2.0 * (x0 - p0)
    rec = dataclasses.replace(fabricate(gap, eta=eta, states=states, step_norm_sq=step),
                              settle_step=settle)
    whole = dataclasses.replace(rec, settle_step=None)
    with np.errstate(divide="ignore"):
        got, want = per_trial_verdicts(rec, game), per_trial_verdicts(whole, game)
    assert repr(got) == repr(want)
    firsts = {v.check_id: v.first_violation_step for v in got if not v.passed}
    if violations == "before_settle":
        scanned = ("descent.grad_norm_monotone", "descent.iterate_bounded", "gap_step_consistency")
        assert {c: firsts.get(c) for c in scanned} == dict.fromkeys(scanned, settle - 1)
    elif violations == "settled_state":
        assert firsts["descent.iterate_bounded"] == settle
    for steps in (np.arange(T + 1), np.asarray(dyadic_steps(T), dtype=np.int64)):
        assert time_average_gap(rec, steps).tobytes() == time_average_gap(whole, steps).tobytes()


@pytest.mark.parametrize("kind", ["array", "settled_record"])
def test_time_average_gap_rejects_negative_steps_and_steps_past_the_end(kind):
    # step -1 once read the last sum over a zero divisor, and -2 gave a
    # negative mean; a settled record's sums stop at its settle step, which
    # must not let a step past the end through
    if kind == "array":
        series, end = 0.5 ** np.arange(100), 100
    else:
        series = settled_record("piecewise_on_nash", "constant", "none", None, 0)[1]
        end = SETTLE_HORIZON + 1
    for steps in ([-1], [-2], [0, 5, -1]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="steps must be nonnegative"):
                time_average_gap(series, np.array(steps))
    for steps in ([end], [0, end]):
        with pytest.raises(IndexError):
            time_average_gap(series, np.array(steps))


def _poison_tail(rec, settle_step):
    """A copy of rec whose states and step norms past its settle step are NaN."""
    states, step = rec.states.copy(), rec.step_norm_sq.copy()
    states[rec.state_steps > rec.settle_step] = math.nan
    step[rec.settle_step + 1:] = math.nan
    return dataclasses.replace(rec, states=states, step_norm_sq=step, settle_step=settle_step)


TAIL_CHECKS = ["descent_invariants", "gap_step_consistency"]


def test_checks_do_not_read_a_settled_tail():
    game, rec = descent_record("quad_2d")  # settles at step 8,542 of 50,000
    clean = [run_named_check(c, rec, game) for c in TAIL_CHECKS]
    assert all(v.passed for vs in clean for v in vs)
    poisoned = _poison_tail(rec, rec.settle_step)
    assert repr([run_named_check(c, poisoned, game) for c in TAIL_CHECKS]) == repr(clean)
    gap = rec.gap.copy()
    gap[rec.settle_step + 1:] = math.nan
    steps = np.asarray(dyadic_steps(rec.horizon), dtype=np.int64)
    assert (time_average_gap(dataclasses.replace(rec, gap=gap), steps).tobytes()
            == time_average_gap(rec, steps).tobytes())


def test_an_unsettled_record_reads_the_poisoned_tail():
    # negative control: the same poisoning, read to the end, fails both checks
    game, rec = descent_record("quad_2d")
    with np.errstate(invalid="ignore"):
        verdicts = [v for c in TAIL_CHECKS
                    for v in run_named_check(c, _poison_tail(rec, None), game)]
    # a NaN distance fails the bound but is not above it: no first step is named
    failed = {v.check_id: v.first_violation_step for v in verdicts if not v.passed}
    assert failed == {"descent.iterate_bounded": None, "gap_step_consistency": rec.settle_step + 1}


def test_a_tail_settled_at_a_nonzero_gap_is_still_checked():
    game, rec = settled_record("rand_2d", "constant", "none", None, 1)
    settle = rec.settle_step
    assert rec.gap[settle] > 0.0 and run_named_check("gap_step_consistency", rec, game)[0].passed
    step = rec.step_norm_sq.copy()
    step[settle + 10] = 1e-20  # a step of 1e-10 from a state that stays put
    [verdict] = run_named_check("gap_step_consistency",
                                dataclasses.replace(rec, step_norm_sq=step), game)
    assert not verdict.passed and verdict.first_violation_step == settle + 10


# ---------------------------------------------------------------------------
# API input checks
# ---------------------------------------------------------------------------

def _two_players(values):
    return Game(dims=(1, 1), field=lambda x: np.array(values, dtype=float))


@pytest.mark.parametrize("call,error,message", [
    (lambda: gradient_field(_two_players([0.0, math.nan]), [0.0, 0.0]), ValueError,
     r"non-finite in player block\(s\) \[1\]"),
    (lambda: gradient_field(_two_players([0.0, 0.0, 0.0]), [0.0, 0.0]), ValueError,
     "field returned length 3, expected 2"),
    (lambda: estimate_cocoercivity(make_named_game("quad_1d"), pairs=1), ValueError,
     "need at least 2 sampled pairs"),
    (lambda: estimate_cocoercivity(make_named_game("quad_1d"), low=1.0, high=1.0), ValueError,
     "sampling region is empty"),
    (lambda: verify_gradient(make_named_game("quad_1d"), [0.0], h=0.0), ValueError,
     "finite-difference step must be positive"),
    (lambda: time_average_gap([]), ValueError, "empty gap series"),
    (lambda: variance_budget(RelativeNoise(VarianceSchedule("constant", 0.1)), 0), ValueError,
     "horizon must be at least 1"),
    (lambda: DynamicsConfig(ConstantSchedule(0.5), horizon=8, x0=(math.nan,)), ConfigError,
     "x0 must be finite"),
    (lambda: run_check(parse_check("slope_below:last_iterate:-0.5"), fabricate([1.0, 0.25]),
                       make_named_game("quad_1d")), ValueError, "is a report-level check"),
], ids=["field_nan_block", "field_length", "one_pair", "empty_region", "zero_fd_step",
        "empty_gaps", "zero_budget_horizon", "x0_nan", "report_level_check"])
def test_api_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
