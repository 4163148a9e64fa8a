import dataclasses

import numpy as np
import pytest

from gamegrad.errors import ConfigError, IndeterminateResult, UnsupportedOperation
from gamegrad.games import (
    GameSpec,
    builtin_game_specs,
    estimate_cocoercivity,
    gradient_field,
    make_game,
    make_named_game,
    project_to_nash,
    verify_gradient,
)


QUAD_2D = GameSpec.quadratic([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0])


def test_make_game_identity_1d():
    game = make_game(GameSpec.quadratic([[1.0]], [0.0]))
    assert game.cocoercivity == 1.0
    assert gradient_field(game, [3.0])[0] == -3.0
    assert project_to_nash(game, [5.0])[0] == 0.0


def test_make_game_piecewise_values():
    game = make_game(GameSpec.piecewise_scalar())
    assert game.cocoercivity == 0.5
    assert gradient_field(game, [-1.0])[0] == 2.0
    assert gradient_field(game, [0.5])[0] == 0.0
    assert gradient_field(game, [-2.0])[0] == 4.0
    assert project_to_nash(game, [-3.0])[0] == 0.0
    assert project_to_nash(game, [7.0])[0] == 7.0


def test_make_game_quad_2d_lambda_matches_eigen_oracle():
    # Independent oracle: eigen-decomposition gives lambda_max = 3.
    lam_max = float(np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]]))[-1])
    assert lam_max == pytest.approx(3.0, abs=1e-12)
    game = make_game(QUAD_2D)
    assert game.cocoercivity == pytest.approx(1.0 / lam_max, abs=1e-12)
    # v([1,1]) = -A [1,1] = [-3,-3], checked by hand.
    assert np.allclose(gradient_field(game, [1.0, 1.0]), [-3.0, -3.0])
    assert np.allclose(project_to_nash(game, [5.0, -7.0]), [0.0, 0.0], atol=1e-12)


def test_make_game_rejects_indefinite_matrix():
    with pytest.raises(ConfigError, match="cocoercive"):
        make_game(GameSpec.quadratic([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0]))


def test_make_game_rejects_zero_dimension():
    with pytest.raises(ConfigError):
        make_game(GameSpec("quadratic", {"matrix": [], "offset": []}))


def test_make_game_rejects_asymmetric():
    with pytest.raises(ConfigError, match="symmetric"):
        make_game(GameSpec.quadratic([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0]))


def test_gradient_field_dimension_mismatch():
    game = make_named_game("quad_2d")
    with pytest.raises(ValueError):
        gradient_field(game, [1.0])


def test_verify_gradient_quadratic():
    game = make_game(GameSpec.quadratic([[1.0]], [0.0]))
    report = verify_gradient(game, [1.0], h=1e-5)
    assert report.max_abs_error <= 1e-8


def test_verify_gradient_piecewise_smooth_point():
    game = make_named_game("piecewise")
    assert verify_gradient(game, [-1.0], h=1e-5).max_abs_error <= 1e-8


def test_verify_gradient_piecewise_kink():
    game = make_named_game("piecewise")
    h = 1e-5
    assert verify_gradient(game, [0.0], h=h).max_abs_error <= h


def test_verify_gradient_requires_payoffs():
    game = make_named_game("quad_1d")
    stripped = make_game(GameSpec.quadratic([[1.0]], [0.0]))
    object.__setattr__(stripped, "payoffs", None)
    with pytest.raises(UnsupportedOperation):
        verify_gradient(stripped, [1.0])


def test_estimate_cocoercivity_identity():
    game = make_named_game("quad_1d")
    est = estimate_cocoercivity(game, -10.0, 10.0, pairs=1000, seed=3)
    assert abs(est.lambda_hat - 1.0) <= 1e-9
    assert not est.monotone_violation


def test_estimate_cocoercivity_quad_2d_bracket():
    game = make_named_game("quad_2d")
    est = estimate_cocoercivity(game, -5.0, 5.0, pairs=10_000, seed=11)
    assert 1.0 / 3.0 <= est.lambda_hat <= 1.0 / 3.0 + 0.05
    assert not est.monotone_violation
    # Independent brute-force oracle: sweep pair directions on a fine grid.
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    angles = np.linspace(0.0, np.pi, 20_001)
    d = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    Ad = d @ A
    ratios = np.einsum("ij,ij->i", d, Ad) / np.einsum("ij,ij->i", Ad, Ad)
    assert ratios.min() == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_estimate_cocoercivity_piecewise_bracket():
    game = make_named_game("piecewise")
    est = estimate_cocoercivity(game, -5.0, 5.0, pairs=1000, seed=5)
    assert 0.5 <= est.lambda_hat <= 0.5 + 1e-6


def test_estimate_cocoercivity_indeterminate_on_flat_field():
    game = make_named_game("piecewise")
    with pytest.raises(IndeterminateResult):
        estimate_cocoercivity(game, 1.0, 2.0, pairs=10, seed=0)  # field is 0 on x >= 0


def test_estimate_cocoercivity_flags_non_monotone():
    expanding = make_named_game("quad_1d")
    object.__setattr__(expanding, "field", lambda x: np.asarray(x, dtype=float))
    est = estimate_cocoercivity(expanding, -1.0, 1.0, pairs=100, seed=0)
    assert est.monotone_violation


def test_project_to_nash_rank_deficient_matches_grid_oracle():
    game = make_game(GameSpec.quadratic([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
    proj = project_to_nash(game, [3.0, 4.0])
    assert np.allclose(proj, [0.0, 4.0], atol=1e-9)
    # Independent oracle: grid minimization of distance subject to A x = 0.
    grid = np.linspace(-10.0, 10.0, 4001)
    candidates = np.stack([np.zeros_like(grid), grid], axis=1)  # Nash set is the x2-axis
    d2 = ((candidates - np.array([3.0, 4.0])) ** 2).sum(axis=1)
    assert np.allclose(candidates[d2.argmin()], proj, atol=5e-3)


@pytest.mark.parametrize("oracle,message", [
    (lambda x: np.zeros(3), "length 3, expected 2"),
    (lambda x: np.array([0.0, np.nan]), "non-finite"),
], ids=["wrong_length", "nan"])
def test_project_to_nash_rejects_a_bad_oracle_result(oracle, message):
    game = dataclasses.replace(make_named_game("quad_2d"), nash_oracle=oracle)
    with pytest.raises(ValueError, match=message):
        project_to_nash(game, [1.0, 2.0])


def test_project_requires_oracle():
    game = make_game(GameSpec.quadratic([[1.0]], [1.0]))
    stripped = make_game(GameSpec.quadratic([[1.0]], [0.0]))
    object.__setattr__(stripped, "nash_oracle", None)
    with pytest.raises(UnsupportedOperation):
        project_to_nash(stripped, [1.0])
    assert game.nash_oracle is not None  # consistent b keeps the oracle


def test_random_cocoercive_properties():
    spec = GameSpec.random_cocoercive(3, seed=42, conditioning=4.0)
    game = make_game(spec)
    assert game.cocoercivity == pytest.approx(0.25, abs=1e-12)
    est = estimate_cocoercivity(game, -3.0, 3.0, pairs=2000, seed=1)
    assert est.lambda_hat > 0
    assert not est.monotone_violation
    assert verify_gradient(game, [0.3, -0.2, 1.1]).max_abs_error <= 1e-6
    x_star = project_to_nash(game, [1.0, 1.0, 1.0])
    assert np.linalg.norm(game.field(x_star)) <= 1e-8


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown game kind"):
        make_game(GameSpec("mystery", {}))


def test_spec_round_trip():
    named = dataclasses.replace(QUAD_2D, name="coupled")
    two_players = GameSpec.quadratic([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], dims=(1, 1))
    assert two_players.to_dict()["dims"] == [1, 1]
    assert make_game(two_players).players == 2
    for spec in (QUAD_2D, named, two_players, *builtin_game_specs().values()):
        assert GameSpec.from_dict(spec.to_dict()) == spec
        assert make_game(spec).name == (spec.name or spec.kind)
    for name, spec in builtin_game_specs().items():
        assert GameSpec.from_dict({"name": name}) == spec and spec.name == name


# ---------------------------------------------------------------------------
# Invariants over the built-in registry, checked on seeded samples.
# ---------------------------------------------------------------------------

@pytest.fixture(params=sorted(builtin_game_specs()))
def builtin(request):
    return request.param, make_named_game(request.param)


def test_builtin_cocoercivity_sample_property(builtin):
    name, game = builtin
    lam = game.cocoercivity
    rng = np.random.default_rng(hash(name) % (2**32))
    xs = rng.uniform(-5.0, 5.0, size=(10_000, game.n))
    ys = rng.uniform(-5.0, 5.0, size=(10_000, game.n))
    for x, y in zip(xs, ys):
        dv = game.field(y) - game.field(x)
        lhs = float((y - x) @ dv) + lam * float(dv @ dv)
        assert lhs <= 1e-9 * (1.0 + float(x @ x) + float(y @ y))


def test_builtin_lipschitz_consequence(builtin):
    name, game = builtin
    lam = game.cocoercivity
    rng = np.random.default_rng(1 + hash(name) % (2**32))
    xs = rng.uniform(-5.0, 5.0, size=(2000, game.n))
    ys = rng.uniform(-5.0, 5.0, size=(2000, game.n))
    for x, y in zip(xs, ys):
        dv = np.linalg.norm(game.field(y) - game.field(x))
        assert dv <= np.linalg.norm(y - x) / lam + 1e-9


def test_builtin_nash_characterization(builtin):
    name, game = builtin
    rng = np.random.default_rng(2)
    for x in rng.uniform(-10.0, 10.0, size=(200, game.n)):
        proj = project_to_nash(game, x)
        assert np.linalg.norm(game.field(proj)) <= 1e-9


def test_builtin_projection_idempotent(builtin):
    name, game = builtin
    rng = np.random.default_rng(3)
    for x in rng.uniform(-10.0, 10.0, size=(200, game.n)):
        once = project_to_nash(game, x)
        twice = project_to_nash(game, once)
        assert np.linalg.norm(twice - once) <= 1e-12


def test_builtin_gradient_check(builtin):
    name, game = builtin
    rng = np.random.default_rng(4)
    for x in rng.uniform(-2.0, 2.0, size=(20, game.n)):
        if name == "piecewise":
            x = x if abs(x[0]) > 1e-3 else x + 0.1  # stay away from the kink
        assert verify_gradient(game, x).max_abs_error <= 1e-6


# ---------------------------------------------------------------------------
# The batched field contract, on the built-ins and larger random games.
# ---------------------------------------------------------------------------

_RANDOM_GAMES = {name: dataclasses.replace(GameSpec.random_cocoercive(n, seed=3), name=name)
                 for name, n in (("rand_16d", 16), ("rand_64d", 64))}
_FIELD_GAMES = sorted(builtin_game_specs()) + sorted(_RANDOM_GAMES)


def _field_game(name):
    if name in _RANDOM_GAMES:
        return make_game(_RANDOM_GAMES[name])
    return make_named_game(name)


@pytest.mark.parametrize("name", _FIELD_GAMES)
def test_field_rows_do_not_depend_on_the_batch(name):
    game = _field_game(name)
    X = np.random.default_rng(6).uniform(-5.0, 5.0, size=(37, game.n))
    batch = game.field(X)
    assert batch.shape == X.shape
    rows = np.stack([game.field(x) for x in X])
    assert batch.tobytes() == rows.tobytes()
    for lo, hi in ((0, 1), (3, 11), (11, 37)):
        assert game.field(X[lo:hi]).tobytes() == batch[lo:hi].tobytes()


def _estimate_by_pairs(game, low, high, pairs, seed):
    """estimate_cocoercivity as a per-pair loop of 1-D field calls."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(low, high, size=(pairs, game.n))
    ys = rng.uniform(low, high, size=(pairs, game.n))
    best, violated, used = np.inf, False, 0
    for x, y in zip(xs, ys):
        dv = game.field(y) - game.field(x)
        denom = float(dv @ dv)
        if denom == 0.0:
            continue
        num = float(-(y - x) @ dv)
        if num < -1e-12 * (1.0 + float((y - x) @ (y - x)) + denom):
            violated = True
        used += 1
        if num / denom < best:
            best = num / denom
    return float(best), violated, used


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", _FIELD_GAMES)
def test_estimate_cocoercivity_matches_a_per_pair_loop(name, seed):
    game = _field_game(name)
    est = estimate_cocoercivity(game, -5.0, 5.0, pairs=2000, seed=seed)
    best, violated, used = _estimate_by_pairs(game, -5.0, 5.0, 2000, seed)
    assert np.float64(est.lambda_hat).tobytes() == np.float64(best).tobytes()
    assert (est.monotone_violation, est.pairs_used) == (violated, used)
