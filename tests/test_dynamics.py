import dataclasses
import math

import numpy as np
import pytest

from gamegrad import dynamics
from gamegrad.dynamics import (
    _BLOCK_BYTES,
    _CHUNK,
    _COAST_CHUNK,
    _DRAW_BYTES,
    _DRAW_STEPS,
    _LOCKSTEP_TRIALS,
    _NOISE_KINDS,
    _SCHEDULE_KINDS,
    _VARIANCE_KINDS,
    _Log,
    _amp_table,
    _log_floats,
    _log_grid,
    _log_steps,
    _log_table,
    _NoiseDraws,
    _pow_table,
    _record_bytes,
    AbsoluteNoise,
    ConstantSchedule,
    DynamicsConfig,
    GradNormSchedule,
    NoNoise,
    PowerSchedule,
    RelativeNoise,
    StepNormSchedule,
    VarianceSchedule,
    dyadic_steps,
    noise_from_dict,
    run_lockstep,
    run_trajectory,
    runner_body,
    schedule_from_dict,
)
from gamegrad.errors import ConfigError
from gamegrad.games import Game, GameSpec, make_game, make_named_game
from gamegrad.harness import trial_rng


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_grad_norm_schedule_hand_trace():
    # v(x) = -x from x0 = 1: eta_1 = 1, x_1 = 0, gradient norm drops to 0.
    sched = GradNormSchedule(beta1=1.0, r=2.0).fresh(horizon=2)
    assert sched.first_step() == 1.0
    eta2 = sched.next_step(0, 1.0, 1.0, 0.0, 1.0)  # t, eta, g_prev, g_next, step_sq
    assert eta2 == pytest.approx(0.7071067811865475, abs=1e-15)
    assert sched.beta == 1.0


def test_grad_norm_schedule_growth_branch():
    sched = GradNormSchedule(beta1=1.0, r=2.0).fresh(horizon=2)
    eta2 = sched.next_step(0, 1.0, 1.0, 4.0, 1.0)
    assert sched.beta == 2.0
    assert eta2 == pytest.approx(0.5773502691896258, abs=1e-15)


def test_step_norm_schedule_hand_trace():
    sched = StepNormSchedule(beta=1.0).fresh(horizon=2)
    assert sched.first_step() == 1.0
    eta2 = sched.next_step(0, 1.0, 1.0, 0.5, 1.0)
    assert eta2 == pytest.approx(0.6093, abs=1e-4)
    assert eta2 == pytest.approx(1.0 / math.sqrt(2.0 + math.log(2.0)), rel=1e-15)


def test_log_table_is_math_log_for_every_step_of_a_2_16_horizon():
    expected = [math.log(t + 2.0) for t in range(65536)]
    assert _log_floats(65536) == tuple(expected)
    assert _log_table(65536).tobytes() == np.array(expected).tobytes()


def test_power_schedule_indexing():
    steps, _ = PowerSchedule(c=0.5, p=0.5).step_sizes(2)
    assert steps[0] == 0.5
    assert steps[1] == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-15)


def test_schedule_param_validation():
    with pytest.raises(ConfigError):
        ConstantSchedule(0.0)
    with pytest.raises(ConfigError):
        PowerSchedule(1.0, 1.5)
    with pytest.raises(ConfigError):
        GradNormSchedule(1.0, 1.0)
    with pytest.raises(ConfigError):
        StepNormSchedule(0.0)


@pytest.mark.parametrize("make", [
    lambda bad: ConstantSchedule(bad), lambda bad: PowerSchedule(bad, 0.5),
    lambda bad: GradNormSchedule(bad, 2.0), lambda bad: GradNormSchedule(1.0, bad),
    lambda bad: StepNormSchedule(bad),
    lambda bad: DynamicsConfig(ConstantSchedule(0.5), horizon=4, x0=(1.0,), blow_up_radius=bad),
], ids=["constant_eta", "power_c", "grad_norm_beta1", "grad_norm_r", "step_norm_beta", "radius"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_nan_and_infinity(make, bad):
    with pytest.raises(ConfigError):
        make(bad)


def test_a_key_error_inside_a_constructor_is_not_a_config_error(monkeypatch):
    # Only a key the config lacks is a config error; a fault in program code stays one.
    def broken(self, eta):
        raise KeyError("internal")

    monkeypatch.setattr(ConstantSchedule, "__init__", broken)
    with pytest.raises(KeyError, match="internal"):
        DynamicsConfig.from_dict({"schedule": {"kind": "constant", "eta": 0.5},
                                  "horizon": 8, "x0": [1.0]})


def test_schedule_serialization_round_trip():
    schedules = (ConstantSchedule(0.3), PowerSchedule(0.5, 0.75),
                 GradNormSchedule(1.0, 2.0), StepNormSchedule(2.0))
    assert {sched.kind for sched in schedules} == set(_SCHEDULE_KINDS)  # every kind written back
    for sched in schedules:
        doc = sched.to_dict()
        assert set(doc) == {"kind", *_SCHEDULE_KINDS[sched.kind][1]}
        again = schedule_from_dict(doc)
        assert again.to_dict() == doc
    with pytest.raises(ConfigError):
        schedule_from_dict({"kind": "warp"})


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def noise_draws(model, v, rng, t0=0, count=1):
    """count noise vectors for steps t0.. at a fixed gradient v, from the runner's sampler."""
    draws = _NoiseDraws(model, v.size, [rng], horizon=t0 + count)
    out = []
    for t in range(t0, t0 + count, draws.rows):
        z, amp = draws.chunk(t, min(draws.rows, t0 + count - t))
        scale = amp * math.sqrt(float(v @ v)) if draws.relative else amp
        out.append(scale[:, None] * z[0])
    return np.concatenate(out)


def test_no_noise_is_zero():
    # a noiseless run has no sampler: it steps x + eta v and draws nothing
    game, x0, rng = make_named_game("quad_2d"), np.array([3.0, -1.0]), philox(0)
    cfg = DynamicsConfig(ConstantSchedule(0.2), horizon=5, x0=tuple(x0), thinning=1)
    rec = run_trajectory(game, cfg, rng=rng)
    assert np.array_equal(rng.standard_normal(4), philox(0).standard_normal(4))
    assert np.allclose(rec.states[1], x0 + 0.2 * game.field(x0), rtol=1e-14, atol=0.0)


def test_relative_sphere_1d_is_sign_flip():
    model = RelativeNoise(VarianceSchedule("constant", 0.25), shape="sphere")
    rng = philox(1)
    draws = noise_draws(model, np.array([-2.0]), rng, count=4000)[:, 0]
    assert set(np.unique(np.abs(draws))) == {1.0}  # ||xi|| = sqrt(0.25)*2 = 1 exactly
    frac = float(np.mean(draws > 0))
    assert abs(frac - 0.5) <= 4.0 * 0.5 / math.sqrt(4000)


def test_relative_noise_vanishes_at_nash():
    model = RelativeNoise(VarianceSchedule("constant", 0.25))
    rng = philox(2)
    for xi in noise_draws(model, np.zeros(3), rng, count=100):
        assert np.array_equal(xi, np.zeros(3))


def test_sphere_second_moment_exact_per_draw():
    model = RelativeNoise(VarianceSchedule("power", 1.0, 0.5), shape="sphere")
    rng = philox(3)
    v = np.array([0.3, -1.2, 0.7])
    for t in (0, 5, 99):
        xi = noise_draws(model, v, rng, t0=t)[0]
        target = (1.0 / math.sqrt(t + 1.0)) * float(v @ v)
        assert float(xi @ xi) == pytest.approx(target, rel=1e-12)


def test_gaussian_noise_calibration():
    tau = 0.5
    model = RelativeNoise(VarianceSchedule("constant", tau), shape="gaussian")
    rng = philox(4)
    v = np.array([2.0, -1.0])
    draws = noise_draws(model, v, rng, count=100_000)
    target_sq = tau * float(v @ v)
    # conditional mean zero within 4 standard errors, second moment within 5
    per_coord_sd = math.sqrt(target_sq / v.size)
    assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 * per_coord_sd / math.sqrt(len(draws)))
    norms_sq = np.einsum("ij,ij->i", draws, draws)
    se = norms_sq.std(ddof=1) / math.sqrt(len(draws))
    assert abs(norms_sq.mean() - target_sq) <= 5.0 * se


def test_absolute_noise_second_moment():
    model = AbsoluteNoise(VarianceSchedule("constant", 0.04), shape="sphere")
    rng = philox(5)
    xi = noise_draws(model, np.zeros(2), rng)[0]
    assert float(xi @ xi) == pytest.approx(0.04, rel=1e-12)


def test_variance_schedule_values_and_validation():
    sched = VarianceSchedule("power", 1.0, 0.5)
    assert sched.values(0, 1)[0] == 1.0
    assert sched.values(3, 1)[0] == pytest.approx(0.5, rel=1e-15)
    vals = sched.values(0, 100)
    assert np.all(np.diff(vals) <= 0)
    for kind in ("constant", "inv_t_log", "inv_loglog"):
        vals = VarianceSchedule(kind, 1.0).values(0, 1000)
        assert np.all(vals >= 0) and np.all(np.diff(vals) <= 1e-15)
    with pytest.raises(ConfigError):
        VarianceSchedule("weird", 1.0)
    with pytest.raises(ConfigError):
        VarianceSchedule("constant", -1.0)


@pytest.mark.parametrize("doc", [{"kind": "constant", "c": math.inf},
                                 {"kind": "constant", "c": math.nan},
                                 {"kind": "power", "c": 1.0, "q": math.nan},
                                 {"kind": "constant", "c": 10 ** 400},
                                 {"kind": "constant", "c": "0.25"}])
def test_variance_schedule_rejects_non_finite_and_non_numeric(doc):
    # a finite amplitude is what makes relative noise exactly zero at a zero gap
    with pytest.raises(ConfigError):
        noise_from_dict({"kind": "relative", "tau": doc})


def test_noise_serialization_round_trip():
    models = [NoNoise()]
    for kind in _VARIANCE_KINDS:
        models += [RelativeNoise(VarianceSchedule(kind, 0.5, 0.75), "gaussian"),
                   AbsoluteNoise(VarianceSchedule(kind, 0.01), "sphere")]
    assert {model.kind for model in models} == set(_NOISE_KINDS)  # every kind written back
    for model in models:
        doc = model.to_dict()
        assert noise_from_dict(doc).to_dict() == doc


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------

def test_trajectory_one_step_convergence():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(1.0), horizon=3, x0=(1.0,))
    rec = run_trajectory(game, cfg)
    assert np.array_equal(rec.gap, [1.0, 0.0, 0.0, 0.0])
    assert not rec.diverged


def test_trajectory_geometric_gap_series():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=4, x0=(1.0,))
    rec = run_trajectory(game, cfg)
    assert np.array_equal(rec.gap, [1.0, 0.25, 0.0625, 0.015625, 0.00390625])


def test_trajectory_piecewise_hits_nash_in_one_step():
    game = make_named_game("piecewise")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=2, x0=(-1.0,), thinning=1)
    rec = run_trajectory(game, cfg)
    assert np.array_equal(rec.gap, [4.0, 0.0, 0.0])
    assert np.array_equal(rec.states[:, 0], [-1.0, 0.0, 0.0])
    assert np.array_equal(rec.state_steps, [0, 1, 2])


def test_trajectory_matches_step_ogd():
    game = make_named_game("quad_2d")
    cfg = DynamicsConfig(ConstantSchedule(0.2), horizon=3, x0=(1.0, -2.0), thinning=1)
    rec = run_trajectory(game, cfg)
    x = np.array([1.0, -2.0])
    for t in range(3):
        x = x + 0.2 * game.field(x)
        assert np.allclose(rec.states[t + 1], x, rtol=1e-14, atol=0.0)


def test_trajectory_step_gap_self_consistency():
    for name, eta in (("quad_1d", 0.5), ("quad_2d", 0.25), ("piecewise", 0.3), ("rand_2d", 0.1)):
        game = make_named_game(name)
        cfg = DynamicsConfig(ConstantSchedule(eta), horizon=200, x0=(0.7,) * game.n)
        rec = run_trajectory(game, cfg)
        expected = eta * eta * rec.gap[:-1]
        scale = np.maximum(np.abs(expected), 1e-300)
        assert np.all(np.abs(rec.step_norm_sq - expected) <= 1e-12 * scale)


def test_trajectory_divergence_flag_and_truncation():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(3.0), horizon=50, x0=(1.0,), blow_up_radius=100.0)
    rec = run_trajectory(game, cfg)
    # x_{t+1} = -2 x_t, |x_7| = 128 > 100
    assert rec.diverged
    assert rec.divergence_step == 7
    assert len(rec.gap) == 8
    assert len(rec.eta) == 7
    assert rec.gap[0] == 1.0


def test_diverged_record_ends_with_the_state_that_left_the_ball():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(3.0), horizon=50, x0=(1.0,), blow_up_radius=100.0,
                         thinning=1)
    rec = run_trajectory(game, cfg)
    assert rec.divergence_step == 7
    assert rec.state_steps[-1] == 7
    assert rec.states[-1, 0] == -128.0


def test_trajectory_eta_monotone_for_adaptive_schedules():
    for name in ("quad_1d", "quad_2d", "piecewise", "rand_2d"):
        game = make_named_game(name)
        cfg = DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=2000, x0=(1.5,) * game.n)
        rec = run_trajectory(game, cfg)
        assert np.all(np.diff(rec.eta) <= 0)
        assert np.all(rec.eta > 0)
        assert rec.beta is not None and np.all(np.diff(rec.beta) >= 0)


def test_trajectory_beta_stabilizes():
    game = make_named_game("quad_2d")
    cfg = DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=4096, x0=(2.0, -1.0))
    rec = run_trajectory(game, cfg)
    assert rec.beta[4096] == rec.beta[2048]


def test_trajectory_step_norm_schedule_eta_monotone_under_noise():
    game = make_named_game("quad_1d")
    noise = RelativeNoise(VarianceSchedule("power", 1.0, 0.5))
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=3000, x0=(1.0,), noise=noise)
    rec = run_trajectory(game, cfg, rng=9)
    assert np.all(np.diff(rec.eta) <= 0)


@pytest.mark.parametrize("make", [lambda: GradNormSchedule(1.0, 2.0),
                                  lambda: GradNormSchedule(0.3, 1.7), lambda: StepNormSchedule(0.7)],
                         ids=["grad_norm_2", "grad_norm_1.7", "step_norm"])
def test_block_next_step_matches_each_row_on_floats_bitwise(make):
    # at every step two rows' gaps grow, two hold and two fall; row 4 leaves halfway
    m, steps = 6, 200
    rng = np.random.default_rng(4)
    block = make().fresh(m, horizon=steps)
    rows = [make().fresh(horizon=steps) for _ in range(m)]
    state = ("beta", "grad_sq_sum") if block.kind == "grad_norm" else ("delta",)
    eta, etas = np.full(m, block.first_step()), [sched.first_step() for sched in rows]
    g = rng.uniform(0.5, 2.0, m)
    for t in range(steps):
        if t == steps // 2:
            live = np.arange(len(rows)) != 4
            block.keep(live)
            eta, g = eta[live], g[live]
            del rows[4], etas[4]
        kind = (np.arange(len(rows)) + t) % 3  # 0: the gap grows, 1: it holds, 2: it falls
        grown, fallen = g * rng.uniform(1.01, 2.0, g.size), g * rng.uniform(0.3, 0.99, g.size)
        g_next = np.where(kind == 0, grown, np.where(kind == 1, g, fallen))
        step_sq = rng.uniform(0.0, 1e-2, g.size) * (kind != 1)
        eta = block.next_step(t, eta, g, g_next, step_sq)
        for i, sched in enumerate(rows):
            etas[i] = sched.next_step(t, etas[i], *(a[i].item() for a in (g, g_next, step_sq)))
            assert all(type(v) is float for v in (etas[i], *(getattr(sched, k) for k in state)))
        assert eta.tobytes() == np.array(etas).tobytes()
        for key in state:
            assert getattr(block, key).tobytes() == np.array([getattr(s, key) for s in rows]).tobytes()
        g = g_next
    if block.kind == "grad_norm":
        assert len(set(block.beta.tolist())) > 1  # the rows' offsets grew apart


def test_grad_norm_schedule_refuses_noise():
    with pytest.raises(ConfigError, match="grad_norm"):
        DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=10, x0=(1.0,),
                       noise=RelativeNoise(VarianceSchedule("constant", 0.1)))


@pytest.mark.parametrize("make,cap", [(lambda: ConstantSchedule(0.5), 4_194_291),
                                      (lambda: StepNormSchedule(1.0), 2_796_194),
                                      (lambda: GradNormSchedule(1.0, 2.0), 2_097_145)],
                         ids=["constant", "step_norm", "grad_norm"])
def test_horizon_is_capped_by_one_trial_record_per_block(make, cap):
    # n = 1, thinning 0: the caps README states; a record of the cap fits _BLOCK_BYTES
    cfg = DynamicsConfig(make(), horizon=cap, x0=(1.0,))
    assert _record_bytes(cfg, 1) <= _BLOCK_BYTES
    with pytest.raises(ConfigError, match="horizon is too large"):
        DynamicsConfig(make(), horizon=cap + 1, x0=(1.0,))


def test_trajectory_x0_dimension_checked():
    game = make_named_game("quad_2d")
    with pytest.raises(ConfigError):
        run_trajectory(game, DynamicsConfig(ConstantSchedule(0.1), horizon=5, x0=(1.0,)))


def test_dynamics_config_round_trip():
    cfg = DynamicsConfig(PowerSchedule(0.5, 0.75), horizon=128, x0=(1.0, 2.0),
                         noise=AbsoluteNoise(VarianceSchedule("constant", 0.01)),
                         blow_up_radius=1e6, thinning=4)
    doc = cfg.to_dict()
    assert DynamicsConfig.from_dict(doc).to_dict() == doc


def test_state_log_dyadic_by_default():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=100, x0=(1.0,))
    rec = run_trajectory(game, cfg)
    assert rec.state_steps.tolist() == [0, 1, 2, 4, 8, 16, 32, 64, 100]
    assert rec.states.shape == (9, 1)


# ---------------------------------------------------------------------------
# fast-path agreement
# ---------------------------------------------------------------------------

def _force_generic(game):
    return dataclasses.replace(game, scalar_field=None, affine=None)


@pytest.mark.parametrize("name", ["quad_1d", "piecewise", "quad_2d", "rand_2d"])
def test_fast_paths_match_generic_noiseless(name):
    game = make_named_game(name)
    cfg = DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=500, x0=(0.9,) * game.n, thinning=1)
    fast = run_trajectory(game, cfg)
    slow = run_trajectory(_force_generic(game), cfg)
    assert np.allclose(fast.gap, slow.gap, rtol=1e-12, atol=1e-300)
    assert np.allclose(fast.states, slow.states, rtol=1e-12, atol=1e-300)
    assert np.allclose(fast.eta, slow.eta, rtol=1e-12)


@pytest.mark.parametrize("name,shape", [("quad_1d", "sphere"), ("quad_1d", "gaussian"),
                                        ("quad_2d", "sphere"), ("quad_2d", "gaussian")])
def test_fast_paths_match_generic_noisy(name, shape):
    game = make_named_game(name)
    noise = RelativeNoise(VarianceSchedule("constant", 0.25), shape=shape)
    cfg = DynamicsConfig(ConstantSchedule(0.2), horizon=400, x0=(1.0,) * game.n,
                         noise=noise, thinning=1)
    fast = run_trajectory(game, cfg, rng=77)
    slow = run_trajectory(_force_generic(game), cfg, rng=77)
    assert np.allclose(fast.gap, slow.gap, rtol=1e-10, atol=1e-300)
    assert np.allclose(fast.states, slow.states, rtol=1e-10, atol=1e-300)


def test_runner_noise_matches_per_step_sampling():
    """The chunked pre-draws consume the stream as n normals per step would.

    The reference draws z = rng.standard_normal(n) each step and scales it as
    documented: sigma_t z / ||z|| (sphere) or sqrt(sigma_t^2 / n) z (gaussian).
    """
    game = make_named_game("quad_2d")
    for shape in ("gaussian", "sphere"):
        noise = AbsoluteNoise(VarianceSchedule("power", 0.01, 1.0), shape=shape)
        cfg = DynamicsConfig(ConstantSchedule(0.15), horizon=300, x0=(1.0, -1.0), thinning=1,
                             noise=noise)
        rec = run_trajectory(game, cfg, rng=123)

        rng = philox(123)
        x = np.array([1.0, -1.0])
        states = [x.copy()]
        for t in range(300):
            v = game.field(x)
            z = rng.standard_normal(2)
            sigma_sq = 0.01 / (t + 1.0)
            if shape == "sphere":
                xi = math.sqrt(sigma_sq) * z / np.linalg.norm(z)
            else:
                xi = math.sqrt(sigma_sq / 2) * z
            x = x + 0.15 * (v + xi)
            states.append(x.copy())
        assert np.allclose(rec.states, np.stack(states), rtol=1e-12, atol=1e-300), shape


def test_diverged_adaptive_run_has_finite_beta_tail():
    game = make_named_game("quad_1d")
    # beta1 tiny so eta_1 is huge: the iterate leaves the blow-up ball at once
    cfg = DynamicsConfig(GradNormSchedule(1e-8, 2.0), horizon=10, x0=(1.0,),
                         blow_up_radius=100.0)
    rec = run_trajectory(game, cfg)
    assert rec.diverged
    assert rec.beta is not None
    assert len(rec.beta) == len(rec.gap)
    assert np.all(np.isfinite(rec.beta))
    assert rec.beta[-1] == 1e-8


# ---------------------------------------------------------------------------
# lock-step blocks
# ---------------------------------------------------------------------------

def _records_equal(a, b):
    return (a.diverged == b.diverged and a.divergence_step == b.divergence_step
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("gap", "eta", "step_norm_sq", "state_steps", "states"))
            and (a.beta is None) == (b.beta is None)
            and (a.beta is None or np.array_equal(a.beta, b.beta)))


def _highdim_game():
    return make_game(GameSpec.random_cocoercive(16, seed=3))


@pytest.mark.parametrize("schedule,noise", [
    (ConstantSchedule(0.2), RelativeNoise(VarianceSchedule("power", 1.0, 0.5))),
    (StepNormSchedule(1.0), AbsoluteNoise(VarianceSchedule("constant", 0.01), "gaussian")),
    (GradNormSchedule(1.0, 2.0), NoNoise()),
    (PowerSchedule(0.5, 0.5), RelativeNoise(VarianceSchedule("constant", 0.25), "gaussian")),
])
def test_single_trial_equals_its_row_of_a_block(schedule, noise):
    game = _highdim_game()
    assert runner_body(game) == "lockstep"
    cfg = DynamicsConfig(schedule, horizon=300, x0=(1.0,) * 16, noise=noise, thinning=7)
    block = list(run_lockstep(game, cfg, [trial_rng(4, i) for i in range(5)]))
    for i in (0, 3):
        single = run_trajectory(game, cfg, rng=trial_rng(4, i))
        assert _records_equal(single, block[i])


@pytest.mark.parametrize("schedule,radius", [(ConstantSchedule(0.2), 7.0),
                                             (StepNormSchedule(4.0), 5.0)])
def test_divergence_stays_inside_its_row_of_a_block(schedule, radius):
    game = _highdim_game()
    noise = AbsoluteNoise(VarianceSchedule("constant", 25.0), shape="sphere")
    cfg = DynamicsConfig(schedule, horizon=200, x0=(1.0,) * 16, noise=noise,
                         blow_up_radius=radius, thinning=1)
    block = list(run_lockstep(game, cfg, [trial_rng(2, i) for i in range(8)]))
    outcomes = {rec.diverged for rec in block}
    assert outcomes == {True, False}  # some trials diverge, others run to the horizon
    for i, rec in enumerate(block):
        single = run_trajectory(game, cfg, rng=trial_rng(2, i))
        assert _records_equal(rec, single)
        if rec.diverged:
            assert len(rec.gap) == rec.divergence_step + 1
            assert rec.state_steps[-1] == rec.divergence_step
            assert np.linalg.norm(rec.states[-1]) > radius  # the state that left the ball



def test_adaptive_block_keeps_each_rows_step_size_past_a_late_divergence():
    # Started at the Nash point, just inside the ball, the rows random-walk
    # out at different steps >= 2, after step_norm's step sizes have become
    # one per row; the rows left behind must keep their own.
    game = _highdim_game()
    x_star = np.asarray(game.nash_oracle(np.zeros(16)), dtype=float)
    noise = AbsoluteNoise(VarianceSchedule("constant", 1.0), shape="gaussian")
    cfg = DynamicsConfig(StepNormSchedule(4.0), horizon=200, x0=tuple(x_star.tolist()),
                         noise=noise, blow_up_radius=float(np.linalg.norm(x_star)) + 0.2,
                         thinning=1)
    block = list(run_lockstep(game, cfg, [trial_rng(2, i) for i in range(8)]))
    steps = [rec.divergence_step for rec in block if rec.diverged]
    assert steps and min(steps) >= 2 and len(set(steps)) > 1
    assert any(not rec.diverged and len(rec.gap) == cfg.horizon + 1 for rec in block)
    for i, rec in enumerate(block):
        assert _records_equal(rec, run_trajectory(game, cfg, rng=trial_rng(2, i)))


def test_one_row_of_a_four_dimensional_block_leaves_the_ball_as_it_does_alone():
    # six rows whose squared norms sum past r^2 = 16 at most steps, so the
    # exact per-row test runs, mostly finding no row outside; one row leaves
    game = make_game(GameSpec.random_cocoercive(4, seed=3))
    cfg = DynamicsConfig(ConstantSchedule(0.2), horizon=200, x0=(1.0,) * 4, thinning=7,
                         noise=AbsoluteNoise(VarianceSchedule("constant", 4.0), "sphere"),
                         blow_up_radius=4.0)
    block = list(run_lockstep(game, cfg, [trial_rng(1, i) for i in range(6)]))
    assert [rec.divergence_step for rec in block if rec.diverged] == [57]
    assert sum(float(rec.states[0] @ rec.states[0]) for rec in block) > 16.0
    for i, rec in enumerate(block):
        assert _same_bits(rec, run_trajectory(game, cfg, rng=trial_rng(1, i)))


# ---------------------------------------------------------------------------
# divergence in every body
# ---------------------------------------------------------------------------

_DIVERGE_SCHEDULES = {
    # absolute noise, so the rows of a block leave the ball at different steps
    "constant": (lambda: ConstantSchedule(5.0),
                 AbsoluteNoise(VarianceSchedule("constant", 0.01), "gaussian")),
    "grad_norm": (lambda: GradNormSchedule(1e-2, 2.0), NoNoise()),  # tracks beta
}
# The quadratic games start near their Nash points, so that the adaptive
# steps stay large for a few steps. Without noise, piecewise from x0 = -1 can
# leave a ball only at step 1: step 1 lands at x >= 0, where its field is 0,
# or closer to 0.
_DIVERGE_X0 = {"quad_1d": (1e-3,), "piecewise": (-1.0,), "quad_2d": (1e-3, 1e-3),
               "rand_2d": (-0.453, -0.99)}
_DIVERGE_CASES = [pytest.param(name, schedule, logged,
                               id=f"{name}-{schedule}-{'logged' if logged else 'unlogged'}")
                  for name in ("quad_1d", "piecewise", "quad_2d", "rand_2d")
                  for schedule in _DIVERGE_SCHEDULES for logged in (True, False)
                  if (name, schedule, logged) != ("piecewise", "grad_norm", False)]


def _exit_step(norms, horizon, logged):
    """The last step at which the norms reach a new maximum, among the steps
    that thinning 0 logs (logged) or among the others."""
    dyadic = set(dyadic_steps(horizon))
    return max(k for k in range(1, len(norms))
               if (k in dyadic) == logged and norms[k] > norms[:k].max())


def _stopped_prefix(rec, full, k):
    """Whether rec, stopped at step k, is the first k steps of full, a run that
    went on (thinning 1), bit for bit. Its beta entering step k is the one
    entering step k - 1: the schedule takes no feedback from the step that left."""
    head = [(rec.gap, full.gap[:k + 1]), (rec.eta, full.eta[:k]),
            (rec.step_norm_sq, full.step_norm_sq[:k]), (rec.states, full.states[rec.state_steps])]
    if rec.beta is not None:
        head += [(rec.beta[:k], full.beta[:k]), (rec.beta[k:], full.beta[k - 1:k])]
    return all(a.tobytes() == b.tobytes() for a, b in head)


@pytest.mark.parametrize("thinning", [0, 1])
@pytest.mark.parametrize("name,schedule,logged", _DIVERGE_CASES)
def test_divergence_is_written_alike_by_every_body(name, schedule, logged, thinning):
    game = make_named_game(name)
    make, noise = _DIVERGE_SCHEDULES[schedule]
    cfg = DynamicsConfig(make(), horizon=20, x0=_DIVERGE_X0[name], noise=noise,
                         blow_up_radius=1e300, thinning=1)
    full = run_trajectory(game, cfg, rng=trial_rng(5, 1))
    full_generic = run_trajectory(_force_generic(game), cfg, rng=trial_rng(5, 1))
    norms = np.linalg.norm(full.states, axis=1)
    k = _exit_step(norms, cfg.horizon, logged)
    radius = (norms[:k].max() + norms[k]) / 2
    cfg = dataclasses.replace(cfg, blow_up_radius=radius, thinning=thinning)

    rec = run_trajectory(game, cfg, rng=trial_rng(5, 1))
    generic = run_trajectory(_force_generic(game), cfg, rng=trial_rng(5, 1))
    block = list(run_lockstep(game, cfg, [trial_rng(5, i) for i in range(3)]))
    assert rec.diverged and rec.divergence_step == k
    assert (rec.state_steps[-1] == k) == (logged or thinning == 1)
    if rec.state_steps[-1] == k:
        assert np.linalg.norm(rec.states[-1]) > radius  # the state that left the ball
    assert _stopped_prefix(rec, full, k) and _stopped_prefix(generic, full_generic, k)
    assert _same_bits(generic, block[1])
    if game.n == 1:
        assert _same_bits(rec, generic)
    else:  # lock-step's gap and step norm can differ from the 2-d body's in the last bit
        assert generic.divergence_step == k
        assert generic.state_steps.tolist() == rec.state_steps.tolist()
        assert np.allclose(rec.states, generic.states, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# settled trials
# ---------------------------------------------------------------------------

_RECORD_ARRAYS = ("gap", "eta", "step_norm_sq", "beta", "state_steps", "states")


def _same_bits(a, b):
    """Bitwise equality of two records: -0.0 differs from +0.0 here."""
    for f in _RECORD_ARRAYS:
        x, y = getattr(a, f), getattr(b, f)
        if (x is None) != (y is None):
            return False
        if x is not None and (x.shape != y.shape or x.tobytes() != y.tobytes()):
            return False
    return (a.diverged, a.divergence_step) == (b.diverged, b.divergence_step)


_SETTLE_SCHEDULES = {
    "constant": lambda: ConstantSchedule(0.3),
    "power": lambda: PowerSchedule(0.5, 0.1),
    "grad_norm": lambda: GradNormSchedule(1.0, 2.0),
    "step_norm": lambda: StepNormSchedule(1.0),
}
_SETTLE_NOISE = {
    "none": NoNoise(),
    "relative_sphere": RelativeNoise(VarianceSchedule("constant", 0.25), "sphere"),
    "relative_gaussian": RelativeNoise(VarianceSchedule("power", 1.0, 0.5), "gaussian"),
}
_SETTLE_CASES = [(s, n) for s in _SETTLE_SCHEDULES for n in _SETTLE_NOISE
                 if not (s == "grad_norm" and n != "none")]
# step_norm also at a horizon whose settled tail spans t = 9,168 and 19,141,
# where np.log(t + 2) and math.log differ in the last bit on some machines
_SETTLE_HORIZONS = (
    [pytest.param(s, n, 6000, id=f"{s}-{n}") for s, n in _SETTLE_CASES]
    + [pytest.param(s, n, 20000, id=f"{s}-{n}-20000") for s, n in _SETTLE_CASES
       if s == "step_norm"])


@pytest.mark.parametrize("thinning", [0, 1, 7])
@pytest.mark.parametrize("schedule,noise,horizon", _SETTLE_HORIZONS)
@pytest.mark.parametrize("name", ["quad_1d", "piecewise"])
def test_settled_scalar_run_matches_lockstep_bitwise(name, schedule, noise, horizon, thinning):
    game = make_named_game(name)
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=horizon, x0=(-0.8,),
                         noise=_SETTLE_NOISE[noise], thinning=thinning)
    fast = run_trajectory(game, cfg, rng=31)
    slow = run_trajectory(_force_generic(game), cfg, rng=31)  # lock-step, never fast-forwards
    assert fast.settle_step is not None and slow.settle_step is None
    assert _same_bits(fast, slow)


def _plain_steps(schedule, t0, count):
    """A shared schedule's step sizes as a plain loop: c / (t + 2.0) ** p after step t.

    These are steps t0 + 1..t0 + count; t = -1 gives step 0, c / 1.0 = c. A
    constant schedule is the case c = eta, p = 0.
    """
    c, p = (schedule.eta, 0.0) if schedule.kind == "constant" else (schedule.c, schedule.p)
    return [c / (t + 2.0) ** p for t in range(t0, t0 + count)]


def _per_step(schedule, horizon):
    """A per-step rule: (its state, step 0's size, next(t, eta, g_prev, g_next, step_sq))."""
    if schedule.shared:
        return None, _plain_steps(schedule, -1, 1)[0], lambda t, *_: _plain_steps(schedule, t, 1)[0]
    sched = schedule.fresh(horizon=horizon)
    return sched, sched.first_step(), sched.next_step


def _affine2_by_steps(game, cfg, seed):
    """Step every step of the unrolled 2-d body's arithmetic; no fast-forward."""
    (a00, a01), (a10, a11) = game.affine[0].tolist()
    b0, b1 = game.affine[1].tolist()
    rng = philox(seed)
    amp = math.sqrt(cfg.noise.tau.c / 2) if isinstance(cfg.noise, RelativeNoise) else None
    sched, eta, next_step = _per_step(cfg.schedule, cfg.horizon)
    x0, x1 = cfg.x0
    v0 = b0 - (a00 * x0 + a01 * x1)
    v1 = b1 - (a10 * x0 + a11 * x1)
    g = v0 * v0 + v1 * v1
    gap, etas, steps, betas, states = [g], [], [], [getattr(sched, "beta", 0.0)], [(x0, x1)]
    for t in range(cfg.horizon):
        etas.append(eta)
        if amp is None:
            y0 = x0 + eta * v0
            y1 = x1 + eta * v1
        else:
            z0, z1 = rng.standard_normal(2).tolist()
            a = amp * math.sqrt(g)
            y0 = x0 + eta * (v0 + a * z0)
            y1 = x1 + eta * (v1 + a * z1)
        w0 = b0 - (a00 * y0 + a01 * y1)
        w1 = b1 - (a10 * y0 + a11 * y1)
        g_new = w0 * w0 + w1 * w1
        d0 = y0 - x0
        d1 = y1 - x1
        step_sq = d0 * d0 + d1 * d1
        eta = next_step(t, eta, g, g_new, step_sq)
        gap.append(g_new)
        steps.append(step_sq)
        betas.append(getattr(sched, "beta", 0.0))
        states.append((y0, y1))
        x0, x1, v0, v1, g = y0, y1, w0, w1, g_new
    return np.array(gap), np.array(etas), np.array(steps), np.array(betas), np.array(states)


@pytest.mark.parametrize("thinning", [0, 7])
@pytest.mark.parametrize("schedule,noise", [(s, n) for s, n in _SETTLE_CASES
                                            if n != "relative_sphere"])
@pytest.mark.parametrize("name", ["quad_2d", "rand_2d"])
def test_settled_affine2_run_matches_per_step_loop_bitwise(name, schedule, noise, thinning):
    game = make_named_game(name)
    relative = RelativeNoise(VarianceSchedule("constant", 0.25), "gaussian")
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=8000, x0=(0.9, -1.2),
                         noise=NoNoise() if noise == "none" else relative, thinning=thinning)
    rec = run_trajectory(game, cfg, rng=8)
    gap, eta, step, beta, states = _affine2_by_steps(game, cfg, 8)
    assert rec.settle_step is not None
    assert gap.tobytes() == rec.gap.tobytes()
    assert eta.tobytes() == rec.eta.tobytes()
    assert step.tobytes() == rec.step_norm_sq.tobytes()
    assert states[rec.state_steps].tobytes() == rec.states.tobytes()
    if rec.beta is not None:
        assert beta.tobytes() == rec.beta.tobytes()


def test_settling_waits_for_every_coordinate():
    # coordinate 0 sticks near step 2,000; coordinate 1 keeps moving by steps
    # whose squares underflow to 0 from step ~12,000 until it sticks too
    game = make_game(GameSpec.quadratic([[1.0, 0.0], [0.0, 0.1]], [0.0, 0.0]))
    cfg = DynamicsConfig(ConstantSchedule(0.3), horizon=30000, x0=(1.0, 1.0), thinning=1)
    rec = run_trajectory(game, cfg)
    gap, _, step, _, states = _affine2_by_steps(game, cfg, None)
    assert rec.settle_step > np.nonzero(step)[0][-1] + 10000
    assert states.tobytes() == rec.states.tobytes()
    assert gap.tobytes() == rec.gap.tobytes()


def test_negative_zero_start_settles_after_turning_positive():
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.3), horizon=50, x0=(-0.0,), thinning=1)
    rec = run_trajectory(game, cfg)
    assert rec.settle_step == 2  # step 0 moves -0.0 to +0.0; step 1 changes no bit
    assert math.copysign(1.0, rec.states[0, 0]) == -1.0
    assert all(math.copysign(1.0, x) == 1.0 for x in rec.states[1:, 0])
    assert _same_bits(rec, run_trajectory(_force_generic(game), cfg))


@pytest.mark.parametrize("horizon,settle_step", [(1, None), (2, 1), (5, 1)])
@pytest.mark.parametrize("x0", [0.0, 0.5])
def test_piecewise_on_its_nash_set_settles_at_step_zero(x0, horizon, settle_step):
    game = make_named_game("piecewise")
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=horizon, x0=(x0,), thinning=1,
                         noise=RelativeNoise(VarianceSchedule("constant", 0.25)))
    rec = run_trajectory(game, cfg, rng=2)
    assert rec.settle_step == settle_step  # step 0 leaves x0 in place; later steps are filled
    assert _same_bits(rec, run_trajectory(_force_generic(game), cfg, rng=2))


@pytest.mark.parametrize("name", ["quad_1d", "quad_2d"])
def test_absolute_noise_never_settles(name):
    game = make_named_game(name)
    cfg = DynamicsConfig(ConstantSchedule(0.3), horizon=6000, x0=(1.0,) * game.n,
                         noise=AbsoluteNoise(VarianceSchedule("power", 1.0, 4.0)))
    assert run_trajectory(game, cfg, rng=5).settle_step is None


def test_grad_norm_beta_and_eta_after_settling():
    # rand_2d settles near its Nash point with a nonzero gap, which the running
    # sum keeps taking in after the settle step while beta holds
    game = make_named_game("rand_2d")
    cfg = DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=6000, x0=(0.9, -1.2))
    rec = run_trajectory(game, cfg)
    s = rec.settle_step
    assert s is not None and rec.gap[s] > 0.0
    assert rec.beta[0] < rec.beta[s]  # beta grew before settling
    assert np.all(rec.beta[s:] == rec.beta[s])
    assert np.all(np.diff(rec.eta[s - 1:]) <= 0.0)
    _, eta, _, beta, _ = _affine2_by_steps(game, cfg, None)
    assert eta.tobytes() == rec.eta.tobytes()
    assert beta.tobytes() == rec.beta.tobytes()


# ---------------------------------------------------------------------------
# coasting trials
# ---------------------------------------------------------------------------

def _expanding_game(n, calls=None):
    """A test-only game with an expanding direction: v = 0.01 x (n = 1), or
    v = -A x with A = diag(1, -0.01) (n = 2). From a tiny x0 its gap is 0.0
    until the expanding coordinate grows out of the underflow range."""
    if n == 1:
        def scalar(x):
            if calls is not None:
                calls.append(x)
            return 0.01 * x
        return Game(dims=(1,), field=lambda X: 0.01 * np.asarray(X, dtype=float),
                    scalar_field=scalar, name="expand_1d")
    A, b = np.diag([1.0, -0.01]), np.zeros(2)
    return Game(dims=(2,), field=lambda X: b - (np.asarray(X)[..., None, :] @ A.T)[..., 0, :],
                affine=(A, b), name="expand_2d")


_COAST_NOISE = {"none": NoNoise(),
                "relative": RelativeNoise(VarianceSchedule("constant", 0.25), "gaussian")}
_COAST_CASES = [(s, n) for s in _SETTLE_SCHEDULES for n in _COAST_NOISE
                if not (s == "grad_norm" and n != "none")]


# From 1e-165 the gap comes back at steps 1,202-5,060 of the schedules here,
# from 1e-170 at 2,359-7,837 (never for power): inside the first 4,096 steps
# of noise draws and past them, or not at all.
@pytest.mark.parametrize("tiny", [1e-165, 1e-170])
@pytest.mark.parametrize("schedule,noise", _COAST_CASES)
def test_coast_hands_back_when_the_gap_returns_scalar(schedule, noise, tiny):
    calls = []
    game = _expanding_game(1, calls)
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=8000, x0=(tiny,),
                         noise=_COAST_NOISE[noise], thinning=7)
    rec = run_trajectory(game, cfg, rng=3)
    assert rec.gap[1] == 0.0 and rec.settle_step is None
    assert _same_bits(rec, run_trajectory(_force_generic(game), cfg, rng=3))
    assert len(calls) <= 2 * cfg.horizon


@pytest.mark.parametrize("tiny", [1e-165, 1e-170])
@pytest.mark.parametrize("schedule,noise", _COAST_CASES)
def test_coast_hands_back_when_the_gap_returns_affine2(schedule, noise, tiny):
    game = _expanding_game(2)
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=8000, x0=(1e-170, tiny),
                         noise=_COAST_NOISE[noise], thinning=7)
    rec = run_trajectory(game, cfg, rng=3)
    gap, eta, step, beta, states = _affine2_by_steps(game, cfg, 3)
    assert gap[1] == 0.0 and rec.settle_step is None
    assert gap.tobytes() == rec.gap.tobytes()
    assert eta.tobytes() == rec.eta.tobytes()
    assert step.tobytes() == rec.step_norm_sq.tobytes()
    assert states[rec.state_steps].tobytes() == rec.states.tobytes()
    if rec.beta is not None:
        assert beta.tobytes() == rec.beta.tobytes()


@pytest.mark.parametrize("noise", list(_COAST_NOISE))
def test_coast_hands_back_a_step_that_leaves_the_ball(noise):
    # the state leaves a ball of radius 1e-161 while the gap is still 0.0
    game = _expanding_game(1)
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=8000, x0=(1e-165,),
                         noise=_COAST_NOISE[noise], blow_up_radius=1e-161, thinning=7)
    rec = run_trajectory(game, cfg, rng=3)
    assert rec.diverged and rec.gap[-1] == 0.0
    assert _same_bits(rec, run_trajectory(_force_generic(game), cfg, rng=3))


def test_coast_starts_at_the_first_zero_gap(monkeypatch):
    # scalar_trials' settings: the gap reaches 0.0 near step 1,000 and the
    # state settles near step 2,000; the steps between coast, and only the
    # steps up to the first zero gap call the schedule
    calls = []
    per_step = StepNormSchedule.next_step

    def counted(self, *args):
        calls.append(args[0])
        return per_step(self, *args)

    monkeypatch.setattr(StepNormSchedule, "next_step", counted)
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=4096, x0=(1.0,),
                         noise=RelativeNoise(VarianceSchedule("power", 1.0, 0.5), "sphere"))
    for trial in range(4):
        calls.clear()
        rec = run_trajectory(game, cfg, rng=trial_rng(123, trial))
        first_zero = int(np.flatnonzero(rec.gap == 0.0)[0])
        assert rec.settle_step > first_zero + 500
        assert len(calls) <= first_zero + 2


# scalar_trials' settings: the gap reaches 0.0 near step 1,000 and the trial
# coasts about 1,000 steps more before it settles
_SCALAR_TRIALS_CFG = dict(schedule=StepNormSchedule(1.0), horizon=4096, x0=(1.0,),
                          noise=RelativeNoise(VarianceSchedule("power", 1.0, 0.5), "sphere"))


def _matches_per_step(rec, game, cfg, seed):
    """Bitwise equality with the per-step reference: the lock-step body for
    one dimension, _affine2_by_steps for two."""
    if game.n == 1:
        return _same_bits(rec, run_trajectory(_force_generic(game), cfg, rng=seed))
    gap, eta, step, beta, states = _affine2_by_steps(game, cfg, seed)
    return (gap.tobytes() == rec.gap.tobytes() and eta.tobytes() == rec.eta.tobytes()
            and step.tobytes() == rec.step_norm_sq.tobytes()
            and states[rec.state_steps].tobytes() == rec.states.tobytes()
            and (rec.beta is None or beta.tobytes() == rec.beta.tobytes()))


@pytest.mark.parametrize("thinning", [0, 1])
@pytest.mark.parametrize("name,cfg", [
    ("quad_1d", _SCALAR_TRIALS_CFG),
    ("quad_2d", dict(schedule=ConstantSchedule(1 / 6), horizon=8000, x0=(1.5, -2.0))),
    ("quad_2d", dict(schedule=StepNormSchedule(1.0), horizon=8000, x0=(1.5, -2.0),
                     noise=RelativeNoise(VarianceSchedule("constant", 0.25), "gaussian"))),
], ids=["scalar", "affine2", "affine2-relative"])
def test_coast_longer_than_a_chunk_matches_per_step_bitwise(name, cfg, thinning):
    game = make_named_game(name)
    cfg = DynamicsConfig(**cfg, thinning=thinning)
    rec = run_trajectory(game, cfg, rng=5)
    first_zero = int(np.flatnonzero(rec.gap == 0.0)[0])
    assert rec.settle_step - first_zero > 2 * _COAST_CHUNK
    assert _matches_per_step(rec, game, cfg, 5)


def _largest_proper_divisor(k):
    return max(d for d in range(1, k // 2 + 1) if k % d == 0)


@pytest.mark.parametrize("at", ["chunk_start", "mid_chunk"])
@pytest.mark.parametrize("noise", list(_COAST_NOISE))
@pytest.mark.parametrize("n", [1, 2])
def test_coast_hands_back_at_a_chunk_start_and_mid_chunk(monkeypatch, n, noise, at):
    # From a tiny x0 the coast starts at step 1 and hands back at step h, the
    # first step whose gap or step norm is not 0.0; a chunk length that
    # divides h - 1 puts h at a chunk's first step, one that does not puts
    # it inside a chunk
    game = _expanding_game(n)
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=4000, x0=(1e-170, 1e-165)[-n:],
                         noise=_COAST_NOISE[noise], thinning=7)
    rec = run_trajectory(game, cfg, rng=3)
    assert rec.gap[1] == 0.0 and rec.step_norm_sq[0] == 0.0 and rec.settle_step is None
    h = 1 + int(np.flatnonzero((rec.step_norm_sq[1:] != 0.0) | (rec.gap[2:] != 0.0))[0])
    span = h - 1  # the steps coasted before the hand-back
    chunk = _largest_proper_divisor(span) if at == "chunk_start" else (2 * span) // 5
    assert (span % chunk == 0) == (at == "chunk_start") and span // chunk >= 2
    monkeypatch.setattr(dynamics, "_COAST_CHUNK", chunk)
    rec = run_trajectory(game, cfg, rng=3)
    assert _matches_per_step(rec, game, cfg, 3)


# ---------------------------------------------------------------------------
# one-dimensional blocks in lock-step, each row coasting on its own
# ---------------------------------------------------------------------------

def test_runner_body_steps_24_or_more_one_dimensional_trials_in_lockstep():
    assert _LOCKSTEP_TRIALS == 24
    for name in ("quad_1d", "piecewise"):
        game = make_named_game(name)
        assert [runner_body(game, m) for m in (1, 23, 24, 100)] == ["scalar"] * 2 + ["lockstep"] * 2
    assert runner_body(make_named_game("quad_2d"), 100) == "affine2"
    assert runner_body(_force_generic(make_named_game("quad_1d")), 1) == "lockstep"


def _block_matches_scalar_body(game, cfg, seed, m=_LOCKSTEP_TRIALS):
    """A block of m rows in lock-step against each trial alone on the scalar body,
    bit for bit, settle_step included; returns the block's records."""
    assert runner_body(game, 1) == "scalar"
    block = list(run_lockstep(game, cfg, [trial_rng(seed, i) for i in range(m)]))
    for i, rec in enumerate(block):
        alone = run_trajectory(game, cfg, rng=trial_rng(seed, i))
        assert _same_bits(rec, alone) and rec.settle_step == alone.settle_step, i
    return block


_LOCKSTEP_NOISE = {**_SETTLE_NOISE,
                   "absolute": AbsoluteNoise(VarianceSchedule("constant", 0.01), "gaussian")}
_LOCKSTEP_CASES = [(s, n) for s in _SETTLE_SCHEDULES for n in _LOCKSTEP_NOISE
                   if not (s == "grad_norm" and n != "none")]


# At 2,000 steps from -0.8, five rows of quad_1d under constant steps and
# sphere noise settle in the last 30 steps and the rest coast to the
# horizon; under step_norm and gaussian noise, rows settle from step ~1,600.
@pytest.mark.parametrize("thinning", [0, 1, 7])
@pytest.mark.parametrize("schedule,noise", _LOCKSTEP_CASES)
@pytest.mark.parametrize("name", ["quad_1d", "piecewise"])
def test_lockstep_block_matches_the_scalar_body_bitwise(name, schedule, noise, thinning):
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=2000, x0=(-0.8,),
                         noise=_LOCKSTEP_NOISE[noise], thinning=thinning)
    _block_matches_scalar_body(make_named_game(name), cfg, 5)


@pytest.mark.parametrize("schedule,tau,radius", [("constant", 4.0, 2.0), ("step_norm", 2.0, 1.5)])
def test_lockstep_rows_that_diverge_or_coast_match_the_scalar_body(schedule, tau, radius):
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=3000, x0=(-0.8,),
                         noise=RelativeNoise(VarianceSchedule("constant", tau), "gaussian"),
                         blow_up_radius=radius, thinning=7)
    block = _block_matches_scalar_body(make_named_game("quad_1d"), cfg, 5)
    assert any(rec.diverged for rec in block)
    assert any(rec.settle_step is not None for rec in block)


def test_lockstep_block_from_negative_zero_matches_the_scalar_body():
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=50, x0=(-0.0,), thinning=1,
                         noise=RelativeNoise(VarianceSchedule("constant", 0.25)))
    block = _block_matches_scalar_body(make_named_game("quad_1d"), cfg, 2)
    assert {rec.settle_step for rec in block} == {2}


@pytest.mark.parametrize("schedule,noise", [("grad_norm", "none"), ("step_norm", "relative")])
def test_lockstep_rows_whose_coast_hands_back_stay_in_the_block(monkeypatch, schedule, noise):
    # every row starts to coast at step 1 and hands back when the gap
    # returns; the block steps it on, and no trial runs on its own
    bodies = []
    real_run = dynamics._run

    def counted_run(body, *args):
        bodies.append(body)
        return real_run(body, *args)

    game = _expanding_game(1)
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=8000, x0=(1e-165,),
                         noise=_COAST_NOISE[noise], thinning=7)
    monkeypatch.setattr(dynamics, "_run", counted_run)
    block = list(run_lockstep(game, cfg, [trial_rng(3, i) for i in range(_LOCKSTEP_TRIALS)]))
    assert bodies == [dynamics._run_lockstep]
    monkeypatch.setattr(dynamics, "_run", real_run)
    for i, rec in enumerate(block):
        assert rec.gap[1] == 0.0 and rec.gap[-1] > 0.0 and rec.settle_step is None
        assert _same_bits(rec, run_trajectory(game, cfg, rng=trial_rng(3, i)))


def _block_events(monkeypatch):
    """Record what _Log does to the rows of a block of more than one trial:
    (step, row) for each row end stops, and (step, hands back) for each
    coast it starts."""
    ends, coasts = [], []
    real_end, real_coast = _Log.end, _Log.coast

    def end(self, rows, t):
        if len(self.stop) > 1:
            ends.extend((t, i) for i in rows)
        return real_end(self, rows, t)

    def coast(self, s, *args):
        back = real_coast(self, s, *args)
        if len(self.stop) > 1:
            coasts.append((s, back is not None))
        return back

    monkeypatch.setattr(_Log, "end", end)
    monkeypatch.setattr(_Log, "coast", coast)
    return ends, coasts


def test_lockstep_rows_leave_the_ball_and_start_to_coast_at_one_step(monkeypatch):
    # On piecewise from -1 under eta 0.5 and tau 4, x_1 = 2 z_1: a row with
    # x_1 > 0 stands still in the zero field and coasts after step 1, the
    # step in which a row with x_1 in [-3, 0) leaves the ball of radius 3
    # when |x_2| = 2 |x_1 z_2| > 3
    game = make_named_game("piecewise")
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=200, x0=(-1.0,), thinning=1,
                         noise=RelativeNoise(VarianceSchedule("constant", 4.0), "gaussian"),
                         blow_up_radius=3.0)
    ends, coasts = _block_events(monkeypatch)
    list(run_lockstep(game, cfg, [trial_rng(5, i) for i in range(_LOCKSTEP_TRIALS)]))
    assert 2 in {t for t, _ in ends} and (2, False) in coasts
    _block_matches_scalar_body(game, cfg, 5)


@pytest.mark.parametrize("noise", list(_COAST_NOISE))
def test_lockstep_rows_whose_coast_hands_back_then_diverge_match_the_scalar_body(monkeypatch,
                                                                                noise):
    # each row coasts from step 1 and hands back the step that leaves a ball
    # of radius 1e-161 while the gap is still 0.0; the block takes that step
    game = _expanding_game(1)
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=8000, x0=(1e-165,),
                         noise=_COAST_NOISE[noise], blow_up_radius=1e-161, thinning=7)
    ends, coasts = _block_events(monkeypatch)
    list(run_lockstep(game, cfg, [trial_rng(3, i) for i in range(_LOCKSTEP_TRIALS)]))
    assert coasts == [(1, True)] * _LOCKSTEP_TRIALS
    assert len(ends) == _LOCKSTEP_TRIALS and {t for t, _ in ends} != {1}
    block = _block_matches_scalar_body(game, cfg, 3)
    assert all(rec.diverged and rec.gap[-1] == 0.0 for rec in block)


def test_lockstep_rows_inside_the_ball_stay_though_their_squared_norms_sum_past_it(monkeypatch):
    # each row random-walks from 0.8 r in the zero field by 5e-4 a step, so
    # no row leaves while the block's squared norms sum to about 20 r^2
    game = make_game(GameSpec.quadratic([[0.0]], [0.0]))
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=300, x0=(0.8,), thinning=1,
                         noise=AbsoluteNoise(VarianceSchedule("constant", 1e-6)),
                         blow_up_radius=1.0)
    ends, coasts = _block_events(monkeypatch)
    block = _block_matches_scalar_body(game, cfg, 4, m=32)
    assert ends == [] and coasts == []
    assert all(len(rec.gap) == cfg.horizon + 1 for rec in block)
    assert sum(float(rec.states[-1, 0]) ** 2 for rec in block) > 20 * 0.95


def _cliff_game():
    """A test-only game: v = -x, but inf above x = 3 and NaN below x = -3."""
    def scalar(x):
        return math.inf if x > 3.0 else math.nan if x < -3.0 else -x

    def field(X):
        X = np.asarray(X, dtype=float)
        return np.where(X > 3.0, np.inf, np.where(X < -3.0, np.nan, -X))
    return Game(dims=(1,), field=field, scalar_field=scalar, name="cliff_1d")


def test_lockstep_nan_and_inf_gap_rows_leave_at_the_scalar_bodys_step():
    cfg = DynamicsConfig(ConstantSchedule(0.5), horizon=20, x0=(0.0,), thinning=1,
                         noise=AbsoluteNoise(VarianceSchedule("constant", 3.0), "gaussian"))
    block = _block_matches_scalar_body(_cliff_game(), cfg, 1, m=32)
    left = {rec.divergence_step: rec.gap[-1] for rec in block if rec.diverged}
    assert len(left) == 2 and math.isinf(left[4]) and math.isnan(left[13])
    assert sum(len(rec.gap) == cfg.horizon + 1 for rec in block) == len(block) - 2


def test_lockstep_parts_split_evenly_at_the_record_cap(monkeypatch):
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(ConstantSchedule(0.3), horizon=300, x0=(0.8,),
                         noise=AbsoluteNoise(VarianceSchedule("constant", 0.01)))
    whole = list(run_lockstep(game, cfg, [trial_rng(6, i) for i in range(70)]))
    parts = []
    real_run = dynamics._run

    def counted_run(body, game, config, rngs, *args):
        parts.append(len(rngs))
        return real_run(body, game, config, rngs, *args)

    monkeypatch.setattr(dynamics, "_run", counted_run)
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 63 * _record_bytes(cfg, 1))
    split = list(run_lockstep(game, cfg, [trial_rng(6, i) for i in range(70)]))
    assert parts == [35, 35]  # not 63 + 7
    assert all(_same_bits(a, b) for a, b in zip(split, whole)) and len(split) == 70


@pytest.mark.parametrize("schedule,noise", [
    (StepNormSchedule(1.0), RelativeNoise(VarianceSchedule("power", 1.0, 0.5))),
    (PowerSchedule(0.5, 0.5), AbsoluteNoise(VarianceSchedule("constant", 0.01))),
], ids=["step_norm_relative", "power_absolute"])
def test_lockstep_parts_below_the_crossover_run_on_the_scalar_body(monkeypatch, schedule, noise):
    # a block at the crossover split into parts of 2 runs trial by trial on the scalar
    # body, and its records keep the unsplit block's bits, settle steps included
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(schedule, horizon=3000, x0=(1.0,), noise=noise, thinning=7)
    rngs = [(12, i) for i in range(_LOCKSTEP_TRIALS)]  # keys: each run builds fresh generators
    bodies = []
    real_run = dynamics._run

    def counted_run(body, game, config, rngs, *args):
        bodies.append((body.__name__, len(rngs)))
        return real_run(body, game, config, rngs, *args)

    monkeypatch.setattr(dynamics, "_run", counted_run)
    whole = list(run_lockstep(game, cfg, rngs))
    assert bodies == [("_run_lockstep", _LOCKSTEP_TRIALS)]
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 2 * _record_bytes(cfg, 1))
    del bodies[:]
    split = list(run_lockstep(game, cfg, rngs))
    assert bodies == [("_run_scalar", 1)] * _LOCKSTEP_TRIALS
    assert len(split) == _LOCKSTEP_TRIALS
    assert all(_same_bits(a, b) and a.settle_step == b.settle_step for a, b in zip(split, whole))
    if isinstance(noise, RelativeNoise):
        assert all(rec.settle_step is not None for rec in whole)


# ---------------------------------------------------------------------------
# noise chunks
# ---------------------------------------------------------------------------

def test_block_noise_chunks_have_a_floor_of_steps_within_a_memory_bound():
    noise = AbsoluteNoise(VarianceSchedule("constant", 0.01))

    def rows(m, n, horizon=100_000):
        return _NoiseDraws(noise, n, [philox(i) for i in range(m)], horizon).rows

    assert rows(1, 1) == _CHUNK  # one trial keeps its chunk
    assert rows(4, 1) == _CHUNK // 4
    assert rows(16, 1) == rows(100, 1) == _DRAW_STEPS
    assert rows(100, 1, horizon=300) == 300
    assert rows(16, 64) == _DRAW_BYTES // (8 * 16 * 64) < _CHUNK // 16  # 1 MiB, not 2
    assert _CHUNK // 64 < rows(64, 8) == _DRAW_BYTES // (8 * 64 * 8) < _DRAW_STEPS
    assert rows(1, 1000) == _DRAW_BYTES // 8000  # 131 steps, not 4,096 (31.25 MiB)
    assert rows(1, 1 << 18) == 1  # one step of one trial passes the bound alone


@pytest.mark.parametrize("m, n", [(1, 1), (1, 1000), (2, 1000), (16, 64), (64, 8), (100, 1)])
def test_noise_buffer_stays_within_the_byte_bound(m, n):
    noise = AbsoluteNoise(VarianceSchedule("constant", 0.01))
    buf = _NoiseDraws(noise, n, [philox(i) for i in range(m)], 100_000).buf
    assert buf.nbytes <= max(_DRAW_BYTES, 8 * m * n)


def test_bounded_noise_chunks_leave_a_high_dimensional_record_unchanged(monkeypatch):
    # 200 coordinates draw 655 steps per chunk under the 1 MiB bound, and the
    # whole 2,000-step horizon in one chunk under a 1 GiB bound
    game = make_game(GameSpec.random_cocoercive(200, seed=5))
    cfg = DynamicsConfig(ConstantSchedule(0.2), horizon=2000, x0=(1.0,) * 200, thinning=7,
                         noise=AbsoluteNoise(VarianceSchedule("constant", 0.01)))
    bounded = run_trajectory(game, cfg, rng=trial_rng(12, 0))
    monkeypatch.setattr(dynamics, "_DRAW_BYTES", 1 << 30)
    unbounded = run_trajectory(game, cfg, rng=trial_rng(12, 0))
    assert _same_bits(bounded, unbounded)


@pytest.mark.parametrize("shape", ["sphere", "gaussian"])
def test_one_trial_draws_match_a_lockstep_row_bitwise(shape):
    # one trial draws chunks of 4,096 steps, the second cut at the horizon;
    # a block of 3 draws 1,365 steps per chunk
    game = make_named_game("quad_1d")
    cfg = DynamicsConfig(PowerSchedule(0.5, 0.5), horizon=5000, x0=(1.0,), thinning=3,
                         noise=AbsoluteNoise(VarianceSchedule("constant", 0.01), shape))
    rec = run_trajectory(game, cfg, rng=trial_rng(81, 1))
    assert rec.settle_step is None
    block = list(run_lockstep(_force_generic(game), cfg, [trial_rng(81, i) for i in range(3)]))
    assert _same_bits(rec, block[1])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("var", [
    VarianceSchedule("constant", 0.25), VarianceSchedule("power", 1.0, 0.5),
    VarianceSchedule("power", 2.0, 0.75), VarianceSchedule("inv_t_log", 1.0),
    VarianceSchedule("inv_loglog", 0.5),
], ids=["constant", "power_0.5", "power_0.75", "inv_t_log", "inv_loglog"])
def test_amplitude_table_slices_match_values_bitwise(var, n):
    horizon = 20000
    table = _amp_table(var, n, horizon)
    assert _amp_table(var, n, horizon) is table and not table.flags.writeable
    for t0, count in [(0, 1), (0, 256), (1, 7), (255, 512), (1001, 333), (9167, 4096),
                      (19999, 1)]:
        assert table[t0:t0 + count].tobytes() == np.sqrt(var.values(t0, count) / n).tobytes()


# ---------------------------------------------------------------------------
# settled tails as arrays
# ---------------------------------------------------------------------------

def _warm(schedule, t):
    """Three real steps ending at step t - 1; returns the step size of step t."""
    eta = schedule.first_step()
    for k, (g_prev, g_next, step_sq) in enumerate([(1.0, 0.5, 0.04), (0.5, 0.7, 0.01),
                                                    (0.7, 0.2, 0.09)]):
        eta = schedule.next_step(t - 3 + k, eta, g_prev, g_next, step_sq)
    return eta


def _tail_by_calls(schedule, t, eta, g, count):
    """The reference: count per-step calls on a trial settled with gap g."""
    etas = []
    for k in range(count):
        eta = schedule.next_step(t + k, eta, g, g, 0.0)
        etas.append(eta)
    return np.array(etas, dtype=float)


def _check_tail(make, t, g, horizon):
    count = horizon - t - 1  # what _Log.fill asks for after settling at step t
    if make().shared:  # the record holds every step size from the start
        tail = make().step_sizes(horizon)[0][t + 1:]
        assert tail.tobytes() == np.array(_plain_steps(make(), t, count)).tobytes()
        return
    fast, slow = make().fresh(horizon=horizon), make().fresh(horizon=horizon)
    eta = _warm(fast, t)
    assert eta == _warm(slow, t)
    tail = fast.settled_steps(t, eta, g, count)
    assert tail.tobytes() == _tail_by_calls(slow, t, eta, g, count).tobytes()
    assert vars(fast) == vars(slow)  # the state the per-step calls leave


@pytest.mark.parametrize("make,g,t,horizon", [
    (lambda: StepNormSchedule(1.0), 0.0, 1500, 30000),  # delta > 0; spans 9,168 and 19,141
    (lambda: PowerSchedule(0.5, 0.0), 0.0, 100, 6000),
    (lambda: PowerSchedule(0.5, 0.5), 0.0, 100, 30000),
    (lambda: PowerSchedule(0.5, 0.75), 0.0, 100, 30000),
    (lambda: PowerSchedule(0.5, 1.0), 0.0, 100, 30000),
    (lambda: GradNormSchedule(1.0, 2.0), 0.0, 300, 12000),
    (lambda: GradNormSchedule(1.0, 2.0), 2.5e-3, 300, 12000),  # the running sum grows
    (lambda: ConstantSchedule(0.3), 0.0, 100, 6000),
], ids=["step_norm", "power_0", "power_0.5", "power_0.75", "power_1",
        "grad_norm_zero_gap", "grad_norm_gap", "constant"])
def test_settled_steps_match_per_step_calls_bitwise(make, g, t, horizon):
    _check_tail(make, t, g, horizon)


@pytest.mark.parametrize("tail", [1, 2])
@pytest.mark.parametrize("make", [lambda: StepNormSchedule(1.0), lambda: PowerSchedule(0.5, 0.5),
                                  lambda: GradNormSchedule(1.0, 2.0)],
                         ids=["step_norm", "power", "grad_norm"])
def test_short_settled_tails_match_per_step_calls_bitwise(make, tail):
    # a trial that settles at step T - tail fills `tail` steps
    _check_tail(make, 5000 - tail, 1e-3, 5000)


@pytest.mark.parametrize("horizon", [2, 3])
@pytest.mark.parametrize("schedule", ["power", "grad_norm", "step_norm"])
def test_trials_settling_at_the_last_steps_match_lockstep_bitwise(schedule, horizon):
    # piecewise from 0.5 settles at step 1: a tail of length 1 at T = 2, of 2 at T = 3
    game = make_named_game("piecewise")
    cfg = DynamicsConfig(_SETTLE_SCHEDULES[schedule](), horizon=horizon, x0=(0.5,), thinning=1)
    rec = run_trajectory(game, cfg)
    assert rec.settle_step == 1
    assert _same_bits(rec, run_trajectory(_force_generic(game), cfg))


def test_settled_step_tables_are_reused_across_horizons():
    tables = {}
    for horizon in (9000, 30000, 9000):
        _check_tail(lambda: StepNormSchedule(1.0), 2000, 0.0, horizon)
        _check_tail(lambda: PowerSchedule(0.5, 0.75), 2000, 0.0, horizon)
        logs, powers = _log_table(horizon), _pow_table(horizon, 0.75)
        assert StepNormSchedule(1.0).fresh(horizon=horizon)._log_table is logs
        assert tables.setdefault(horizon, (logs, powers)) == (logs, powers)
    assert tables[9000][0] is _log_table(9000) and tables[9000][1] is _pow_table(9000, 0.75)


# ---------------------------------------------------------------------------
# shared step sizes, computed once per block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("horizon", [1, 2, 65536])
@pytest.mark.parametrize("make", [lambda: ConstantSchedule(0.3), lambda: PowerSchedule(0.5, 0.0),
                                  lambda: PowerSchedule(0.5, 0.5), lambda: PowerSchedule(0.5, 0.75),
                                  lambda: PowerSchedule(0.5, 1.0)],
                         ids=["constant", "power_0", "power_0.5", "power_0.75", "power_1"])
def test_shared_step_sizes_match_per_step_calls_bitwise(make, horizon):
    schedule = make()
    etas = _plain_steps(schedule, -1, horizon)
    steps, floats = schedule.step_sizes(horizon)
    assert steps.shape == (horizon,)
    assert steps.tobytes() == np.array(etas, dtype=float).tobytes()
    assert floats == etas
    assert schedule.step_sizes(horizon)[0] is steps  # kept for the trials of a block


@pytest.mark.parametrize("make", [lambda: ConstantSchedule(0.3), lambda: PowerSchedule(0.5, 0.5)],
                         ids=["constant", "power"])
@pytest.mark.parametrize("game_name", ["quad_1d", "quad_2d", "rand_4d"])
def test_shared_schedules_make_no_per_step_call(make, game_name):
    schedule = make()
    for per_step in ("first_step", "next_step", "settled_steps", "fresh"):
        assert not hasattr(schedule, per_step)  # step_sizes is the only way in
    game = (make_game(dataclasses.replace(GameSpec.random_cocoercive(4, seed=3), name=game_name))
            if game_name == "rand_4d" else make_named_game(game_name))
    cfg = DynamicsConfig(schedule, horizon=300, x0=(0.5,) * game.n,
                         noise=AbsoluteNoise(VarianceSchedule("constant", 0.01)))
    rec = run_trajectory(game, cfg, rng=3)
    block = list(run_lockstep(game, cfg, [3, 4]))
    assert not rec.diverged and rec.eta.tobytes() == block[1].eta.tobytes()
    assert rec.eta.tobytes() == schedule.step_sizes(300)[0].tobytes()


@pytest.mark.parametrize("step_norms", [True, False])
@pytest.mark.parametrize("thinning", [0, 1, 7, 64, 101])  # 64: on a dyadic step; 101 > T
@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("make", [lambda: ConstantSchedule(0.3), lambda: PowerSchedule(0.5, 0.5),
                                  lambda: StepNormSchedule(1.0), lambda: GradNormSchedule(1.0, 2.0)],
                         ids=["constant", "power", "step_norm", "grad_norm"])
def test_record_bytes_count_the_arrays_the_log_owns(make, n, thinning, step_norms):
    schedule, m = make(), 3
    cfg = DynamicsConfig(schedule, horizon=100, x0=(1.0,) * n, thinning=thinning)
    log = _Log(m, n, cfg, schedule if schedule.shared else schedule.fresh(m, horizon=100),
               step_norms)
    rows = [a for a in (log.gap, log.eta, log.step, log.beta, log.states) if a is not None]
    assert (log.beta is not None) == (schedule.kind == "grad_norm")
    assert (log.step is not None) == step_norms
    assert (log.eta.base is None) == (not schedule.shared)  # shared: a view of step_sizes
    assert sum(a.nbytes for a in rows if a.base is None) == m * _record_bytes(cfg, n, step_norms)


@pytest.mark.parametrize("name", ["quad_1d", "quad_2d", "rand_4d"])
def test_records_without_step_norms_keep_everything_else(name):
    game = (make_game(dataclasses.replace(GameSpec.random_cocoercive(4, seed=3), name=name))
            if name == "rand_4d" else make_named_game(name))
    cfg = DynamicsConfig(StepNormSchedule(1.0), horizon=1000, x0=(0.8,) * game.n, thinning=7,
                         noise=RelativeNoise(VarianceSchedule("constant", 0.25), "gaussian"))

    def rngs():
        return [trial_rng(9, i) for i in range(_LOCKSTEP_TRIALS)]

    lean = [run_trajectory(game, cfg, rng=trial_rng(9, 0), step_norms=False),
            *run_lockstep(game, cfg, rngs(), step_norms=False)]
    full = [run_trajectory(game, cfg, rng=trial_rng(9, 0)), *run_lockstep(game, cfg, rngs())]
    for a, b in zip(lean, full):
        assert a.step_norm_sq is None and b.step_norm_sq is not None
        assert _same_bits(dataclasses.replace(a, step_norm_sq=b.step_norm_sq), b)
        assert a.settle_step == b.settle_step


@pytest.mark.parametrize("make", [ConstantSchedule, lambda c: PowerSchedule(c, 0.5)],
                         ids=["constant", "power"])
@pytest.mark.parametrize("game_name", ["quad_1d", "quad_2d", "rand_4d"])
def test_shared_schedule_records_view_one_step_size_array(make, game_name):
    game = (make_game(dataclasses.replace(GameSpec.random_cocoercive(4, seed=3), name=game_name))
            if game_name == "rand_4d" else make_named_game(game_name))
    for scale, diverged in ((0.3, False), (5.0, True)):
        schedule = make(scale)
        cfg = DynamicsConfig(schedule, horizon=300, x0=(0.5,) * game.n, blow_up_radius=10.0,
                             noise=AbsoluteNoise(VarianceSchedule("constant", 0.01)))
        records = [run_trajectory(game, cfg, rng=3), *run_lockstep(game, cfg, [3, 4, 5])]
        steps = schedule.step_sizes(300)[0]
        for rec in records:
            assert rec.diverged == diverged
            assert not rec.eta.flags.writeable and np.shares_memory(rec.eta, steps)
            assert rec.eta.tobytes() == steps[:len(rec.eta)].tobytes()


def _log_steps_by_set(horizon, thinning):
    steps = {0, *dyadic_steps(horizon)}
    if thinning >= 1:
        steps.update(range(0, horizon + 1, thinning))
    return np.array(sorted(steps), dtype=np.int64)


@pytest.mark.parametrize("horizon", [1, 2, 3, 64, 100, 50_000, 65_536])
def test_log_steps_match_set_reference(horizon):
    for thinning in (0, 1, 2, 3, 7, horizon, horizon + 1):
        steps = _log_steps(horizon, thinning)
        expected = _log_steps_by_set(horizon, thinning)
        assert steps.dtype == np.int64
        assert np.array_equal(steps, expected), (horizon, thinning)


def test_logs_of_one_horizon_and_thinning_share_one_read_only_grid():
    cfg = DynamicsConfig(ConstantSchedule(0.3), horizon=300, x0=(1.0,), thinning=3)
    first, second = _Log(2, 1, cfg, cfg.schedule), _Log(5, 1, cfg, cfg.schedule)
    assert first.steps is second.steps and first.log_seq is second.log_seq
    assert not first.steps.flags.writeable
    rec = run_trajectory(make_named_game("quad_1d"), cfg)
    assert not rec.state_steps.flags.writeable
    assert np.shares_memory(rec.state_steps, first.steps)
    other = _Log(1, 1, dataclasses.replace(cfg, thinning=4), cfg.schedule)
    assert other.steps is not first.steps  # only the last grid asked for is kept
    assert _Log(1, 1, cfg, cfg.schedule).steps is not first.steps


@pytest.mark.parametrize("thinning", [0, 1, 3])
@pytest.mark.parametrize("horizon", [1, 2, 100, 50_000])
def test_log_sequence_is_the_logged_steps_then_the_sentinel(horizon, thinning):
    cfg = DynamicsConfig(ConstantSchedule(0.3), horizon=horizon, x0=(1.0,), thinning=thinning)
    log = _Log(1, 1, cfg, cfg.schedule)
    if thinning == 1:
        assert isinstance(log.log_seq, range)  # no list of every step
        expected = [*range(horizon + 1), horizon + 1]
    else:
        expected = [*_log_steps(horizon, thinning).tolist(), horizon + 1]
    assert list(log.log_seq) == expected
    assert log.steps.tolist() == expected[:-1] and log.steps.dtype == np.int64
    assert _log_grid(horizon, thinning)[0] is log.steps


_GRID_SCHEDULES = {"constant": lambda: ConstantSchedule(0.3),
                   "power": lambda: PowerSchedule(0.5, 0.5),
                   "grad_norm": lambda: GradNormSchedule(1.0, 2.0),
                   "step_norm": lambda: StepNormSchedule(1.0)}
_GRID_NOISES = {"none": NoNoise(),
                "relative": RelativeNoise(VarianceSchedule("power", 1.0, 0.5)),
                "absolute": AbsoluteNoise(VarianceSchedule("constant", 0.01), "gaussian")}


def _grid_cases():
    for schedule in _GRID_SCHEDULES:
        for noise in _GRID_NOISES:
            if schedule != "grad_norm" or noise == "none":
                yield _GRID_SCHEDULES[schedule](), _GRID_NOISES[noise]
    for noise in ("none", "absolute"):
        yield ConstantSchedule(5.0), _GRID_NOISES[noise]  # diverges on every game here


def test_record_grid_matches_per_step_schedule_digest():
    """Every record of a grid hashes as it did when each step called its schedule.

    The digest was recorded with the per-step schedule calls that the
    shared step-size sequence replaced: 192 records (28 diverge, 26 settle)
    over 4 built-in games and a 4-d lock-step game, run alone and as a block
    of 3, x 4 schedules x 3 noise kinds x thinning 0/7, plus constant 5.
    """
    import hashlib

    digest = hashlib.sha256()
    for name in ("quad_1d", "quad_2d", "piecewise", "rand_2d", "rand_4d"):
        game = (make_game(dataclasses.replace(GameSpec.random_cocoercive(4, seed=3), name=name))
                if name == "rand_4d" else make_named_game(name))
        for schedule, noise in _grid_cases():
            for thinning in (0, 7):
                cfg = DynamicsConfig(schedule, horizon=2000, noise=noise, thinning=thinning,
                                     x0=tuple(0.8 - 0.5 * i for i in range(game.n)))
                records = [run_trajectory(game, cfg, rng=11)]
                if name == "rand_4d":
                    records += run_lockstep(game, cfg, [12, 13, 14])
                for rec in records:
                    for arr in (rec.gap, rec.eta, rec.step_norm_sq, rec.beta, rec.state_steps,
                                rec.states):
                        if arr is not None:
                            digest.update(arr.tobytes())
                    digest.update(repr((rec.diverged, rec.divergence_step,
                                        rec.settle_step)).encode())
    assert digest.hexdigest() == "0996d2a03bac32c120dd30166bd9b2454d6d2cbca6f07292a377ffc1aedc5b08"


# ---------------------------------------------------------------------------
# generators: built only when a run draws noise
# ---------------------------------------------------------------------------

def _no_generator(rng):
    raise AssertionError("a noiseless run built a generator")


@pytest.mark.parametrize("name,trials", [("quad_1d", 1), ("piecewise", 1), ("quad_2d", 1),
                                         ("quad_1d", _LOCKSTEP_TRIALS), ("rand_4d", 3)])
def test_noiseless_record_is_the_same_for_every_kind_of_rng(monkeypatch, name, trials):
    game = (make_game(GameSpec.random_cocoercive(4, seed=3)) if name == "rand_4d"
            else make_named_game(name))
    cfg = DynamicsConfig(GradNormSchedule(1.0, 2.0), horizon=400, x0=(0.9,) * game.n,
                         thinning=3)
    monkeypatch.setattr(dynamics, "trial_generator", _no_generator)
    rngs = [None, 7, (7, 0), philox(7)]
    if trials == 1:
        records = [run_trajectory(game, cfg, rng=rng) for rng in rngs]
    else:
        records = list(run_lockstep(game, cfg, rngs * -(-trials // len(rngs))))
    assert [rec.seed for rec in records[:4]] == [None, 7, None, None]
    for rec in records[1:]:
        assert _same_bits(rec, records[0])


@pytest.mark.parametrize("name,trials", [("quad_1d", 1), ("quad_2d", 1),
                                         ("quad_1d", _LOCKSTEP_TRIALS), ("rand_4d", 3)])
def test_noisy_run_draws_from_the_generator_its_key_or_seed_names(name, trials):
    game = (make_game(GameSpec.random_cocoercive(4, seed=3)) if name == "rand_4d"
            else make_named_game(name))
    noise = RelativeNoise(VarianceSchedule("constant", 0.25), "gaussian")
    cfg = DynamicsConfig(ConstantSchedule(0.2), horizon=300, x0=(0.9,) * game.n, noise=noise)
    keys, seeds = [(5, i) for i in range(trials)], [10 + i for i in range(trials)]
    if trials == 1:
        runs = [[run_trajectory(game, cfg, rng=rng)] for rng in
                (keys[0], trial_rng(*keys[0]), seeds[0], philox(seeds[0]))]
    else:
        runs = [list(run_lockstep(game, cfg, rngs)) for rngs in
                (keys, [trial_rng(*k) for k in keys], seeds, [philox(s) for s in seeds])]
    by_key, by_generator, by_seed, by_seed_generator = runs
    assert [rec.seed for rec in by_key + by_generator + by_seed_generator] == [None] * 3 * trials
    assert [rec.seed for rec in by_seed] == seeds
    for got, want in [*zip(by_key, by_generator), *zip(by_seed, by_seed_generator)]:
        assert _same_bits(got, want)
    assert not _same_bits(by_key[-1], by_seed[-1])
