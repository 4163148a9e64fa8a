"""Continuous games given by their joint payoff-gradient field.

A game couples N players, each owning a block of the joint action vector,
through a stacked gradient field v(x) = (v_1(x), ..., v_N(x)) where v_i is the
gradient of player i's payoff with respect to its own block. Payoffs are
maximized, so learning dynamics ascend v. Built-in instances are cocoercive
with known constants and known Nash sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigError, IndeterminateResult, UnsupportedOperation, config_dict,
                     config_float, config_int, config_kind, config_numbers, config_section)

Array = np.ndarray

# Relative eigenvalue cutoff below which the quadratic Nash solve treats a
# singular value as zero (rank-deficient Nash sets are the interesting case).
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Game:
    """A continuous game: player dimensions plus the stacked gradient field.

    ``field`` maps a flat joint action, shape (n,), to the flat stacked
    gradient, and a batch of joint actions, shape (rows, n), to their
    gradients row by row. A row's result has the same bits at any number of
    rows, so the lock-step runner and ``estimate_cocoercivity`` call it on
    whole blocks. Both take and give float arrays. ``payoffs``,
    ``nash_oracle`` (one joint action at a time) and ``cocoercivity`` are
    optional extras that built-in instances provide; ``affine`` is set to
    (A, b) when the field is x -> b - A x, and ``scalar_field`` mirrors
    ``field`` on Python floats for one-dimensional games (a 1 x 1
    quadratic's is its field itself, which computes elementwise). The
    unrolled runner bodies read those two. Games are immutable and safe to
    share across workers.
    """

    dims: tuple[int, ...]
    field: Callable[[Array], Array]
    payoffs: Optional[tuple[Callable[[Array], float], ...]] = None
    nash_oracle: Optional[Callable[[Array], Array]] = None
    cocoercivity: Optional[float] = None
    name: str = ""
    scalar_field: Optional[Callable[[float], float]] = None
    affine: Optional[tuple[Array, Array]] = None

    @property
    def n(self) -> int:
        return sum(self.dims)

    @property
    def players(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class GameSpec:
    """Serializable game entry: a kind tag, a parameter table and an optional name."""

    kind: str
    params: dict = field(default_factory=dict)
    name: str = ""

    @property
    def label(self) -> str:
        """The name of the game it builds: the entry's name, else its kind."""
        return self.name or self.kind

    @staticmethod
    def quadratic(matrix, offset, dims: Optional[Sequence[int]] = None) -> "GameSpec":
        params = {
            "matrix": [[float(v) for v in row] for row in np.atleast_2d(np.asarray(matrix, dtype=float))],
            "offset": [float(v) for v in np.asarray(offset, dtype=float).reshape(-1)],
        }
        if dims is not None:
            params["dims"] = [int(d) for d in dims]
        return GameSpec("quadratic", params)

    @staticmethod
    def piecewise_scalar() -> "GameSpec":
        return GameSpec("piecewise_scalar", {})

    @staticmethod
    def random_cocoercive(n: int, seed: int, conditioning: float = 4.0) -> "GameSpec":
        return GameSpec("random_cocoercive", {"n": int(n), "seed": int(seed), "conditioning": float(conditioning)})

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, **self.params}
        if self.name:
            doc["name"] = self.name
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "GameSpec":
        """A config's game entry: a 'kind' spec with an optional 'name', or a built-in
        'name' and no other key; the one place built-in names are resolved.

        A spec's parameters are checked here, before any game is built, and kept as given.
        """
        name = config_dict(doc, "game").get("name", "")
        if not isinstance(name, str):
            raise ConfigError(f"game.name must be a string, got {name!r}")
        if "kind" not in doc:
            if not name:
                raise ConfigError("game entry needs either a 'kind' spec or a built-in 'name'")
            config_section(doc, f"game {name!r} (built-in)", ("name",))
            specs = builtin_game_specs()
            if name not in specs:
                raise ConfigError(f"unknown built-in game {name!r}; available: {sorted(specs)}")
            return specs[name]
        kind, (parse, _) = config_kind(doc, _GAME_KINDS, "game")
        spec = GameSpec(kind, {k: v for k, v in doc.items() if k not in ("kind", "name")}, name)
        parse(spec.params)
        return spec


def _quadratic_parts(A: Array, b: Array, name: str):
    """Field, Nash oracle, payoffs and cocoercivity for the field x -> b - A x."""
    eigvals, eigvecs = np.linalg.eigh(A)
    lam_max = float(eigvals[-1])
    tol = 1e-9 * max(1.0, abs(lam_max))
    if eigvals[0] < -tol:
        raise ConfigError(
            f"{name or 'quadratic'}: matrix has negative eigenvalue {eigvals[0]:.3e}; "
            "the induced field would not be cocoercive"
        )
    if A.shape == (1, 1):
        a00, b0 = float(A[0, 0]), float(b[0])

        def field(x):
            # One coordinate: the scalar body's float arithmetic, elementwise on
            # arrays, with no 1 x 1 matmul per row; also the game's scalar_field.
            return b0 - a00 * x
    else:
        AT = A.T

        def field(x: Array) -> Array:
            # One matvec per row: X @ A.T would sum in a row-count-dependent order.
            return b - (x[..., None, :] @ AT)[..., 0, :]

    if lam_max <= tol:
        # Constant field b; a Nash set exists only when b == 0 (everything).
        oracle = (lambda x: np.array(x, dtype=float)) if not np.any(b) else None
        return field, oracle, None, None

    cutoff = RANK_TOL * lam_max
    keep = eigvals > cutoff
    null = eigvecs[:, ~keep]
    # Particular solution of A x = b via the spectral pseudo-inverse.
    x_part = eigvecs[:, keep] @ ((eigvecs[:, keep].T @ b) / eigvals[keep])
    consistent = bool(np.linalg.norm(A @ x_part - b) <= 1e-9 * (1.0 + np.linalg.norm(b)))

    oracle = None
    if consistent:
        if null.shape[1]:
            proj = null @ null.T

            def oracle(x: Array) -> Array:
                return x_part + proj @ (np.asarray(x, dtype=float) - x_part)
        else:
            def oracle(x: Array) -> Array:  # unique Nash point
                return x_part.copy()

    def payoff(x: Array) -> float:
        x = np.asarray(x, dtype=float)
        return float(-0.5 * x @ (A @ x) + b @ x)

    return field, oracle, payoff, 1.0 / lam_max


def _dims(value, n: int) -> tuple[int, ...]:
    """Player block sizes summing to n; one player per coordinate by default."""
    if value is None:
        return (1,) * n
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"game.dims must be a list of integers, got {value!r}")
    dims = tuple(config_int(d, f"game.dims[{i}]") for i, d in enumerate(value))
    if not all(d >= 1 for d in dims):
        raise ConfigError(f"game.dims must be positive, got {list(dims)}")
    if sum(dims) != n:
        raise ConfigError(f"player dims {dims} do not sum to matrix size {n}")
    return dims


def _quadratic_params(params: dict) -> tuple[Array, Array, tuple[int, ...]]:
    config_section(params, "quadratic game", ("matrix", "offset"), ("dims",))
    matrix, offset = params["matrix"], params["offset"]
    if not isinstance(matrix, (list, tuple)):
        raise ConfigError(f"game.matrix must be a list of rows of numbers, got {matrix!r}")
    rows = [config_numbers(row, f"game.matrix[{i}]") for i, row in enumerate(matrix)]
    n = len(rows)
    if n == 0:
        raise ConfigError("quadratic spec has zero dimension")
    if any(len(row) != n for row in rows):
        raise ConfigError(f"quadratic matrix must be square, got row lengths {[len(r) for r in rows]}")
    b = config_numbers(offset, "game.offset")
    if len(b) != n:
        raise ConfigError(f"offset length {len(b)} does not match matrix size {n}")
    return np.array(rows, dtype=float), np.array(b, dtype=float), _dims(params.get("dims"), n)


def _make_quadratic(A: Array, b: Array, dims: tuple[int, ...], name: str) -> Game:
    if not np.allclose(A, A.T, atol=1e-9 * (1.0 + np.abs(A).max())):
        raise ConfigError("quadratic matrix must be symmetric")
    A = 0.5 * (A + A.T)
    n = A.shape[0]

    field_fn, oracle, payoff, lam = _quadratic_parts(A, b, name)
    payoffs = tuple(payoff for _ in dims) if payoff is not None else None
    scalar = field_fn if n == 1 else None
    return Game(dims=dims, field=field_fn, payoffs=payoffs, nash_oracle=oracle,
                cocoercivity=lam, name=name, scalar_field=scalar, affine=(A, b))


def _piecewise_params(params: dict) -> tuple:
    config_section(params, "piecewise_scalar game")
    return ()


def _make_piecewise(name: str) -> Game:
    def scalar(x: float) -> float:
        return -2.0 * x if x < 0.0 else 0.0

    def field(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, -2.0 * x, 0.0)

    def payoff(x: Array) -> float:
        v = float(np.asarray(x, dtype=float).reshape(-1)[0])
        return -v * v if v < 0.0 else 0.0

    def oracle(x: Array) -> Array:
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    return Game(dims=(1,), field=field, payoffs=(payoff,), nash_oracle=oracle,
                cocoercivity=0.5, name=name, scalar_field=scalar, affine=None)


def _random_params(params: dict) -> tuple[int, int, float, tuple[int, ...]]:
    config_section(params, "random_cocoercive game", ("n", "seed"), ("conditioning", "dims"))
    n = config_int(params["n"], "game.n")
    seed = config_int(params["seed"], "game.seed")
    conditioning = config_float(params.get("conditioning", 4.0), "game.conditioning")
    if n <= 0:
        raise ConfigError("random_cocoercive spec has zero dimension")
    if seed < 0:
        raise ConfigError(f"game.seed must be nonnegative, got {seed}")
    if conditioning <= 0:
        raise ConfigError("conditioning bound must be positive")
    return n, seed, conditioning, _dims(params.get("dims"), n)


def _make_random(n: int, seed: int, conditioning: float, dims: tuple[int, ...], name: str) -> Game:
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    S = M.T @ M
    lam_max = float(np.linalg.eigvalsh(S)[-1])
    S *= conditioning / lam_max  # top eigenvalue pinned to the bound
    b = S @ rng.standard_normal(n)  # in range(S), so a Nash point exists
    return _make_quadratic(S, b, dims, name)


# kind -> (parameter parser, game constructor taking the parsed parameters and a name)
_GAME_KINDS = {
    "quadratic": (_quadratic_params, _make_quadratic),
    "piecewise_scalar": (_piecewise_params, _make_piecewise),
    "random_cocoercive": (_random_params, _make_random),
}


def make_game(spec: GameSpec) -> Game:
    """Instantiate a game from its spec, named by its label; rejects specs that
    would not be cocoercive."""
    parse, build = config_kind({"kind": spec.kind}, _GAME_KINDS, "game")[1]
    return build(*parse(spec.params), spec.label)


def builtin_game_specs() -> dict[str, GameSpec]:
    """Named built-in instances used by the harness, CLI and test matrix; each carries its name."""
    specs = {
        "quad_1d": GameSpec.quadratic([[1.0]], [0.0]),
        "quad_2d": GameSpec.quadratic([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0]),
        "piecewise": GameSpec.piecewise_scalar(),
        "rand_2d": GameSpec.random_cocoercive(2, seed=7, conditioning=4.0),
    }
    return {name: replace(spec, name=name) for name, spec in specs.items()}


def make_named_game(name: str) -> Game:
    return make_game(GameSpec.from_dict({"name": name}))


def _as_flat(game: Game, x) -> Array:
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.size != game.n:
        raise ValueError(f"action of length {vec.size} does not match game dimension {game.n}")
    return vec


def gradient_field(game: Game, x) -> Array:
    """Evaluate the stacked gradient v(x); rejects dimension mismatch and non-finite output."""
    out = np.asarray(game.field(_as_flat(game, x)), dtype=float).reshape(-1)
    if out.size != game.n:
        raise ValueError(f"field returned length {out.size}, expected {game.n}")
    if not np.all(np.isfinite(out)):
        k, bad = 0, []
        for i, d in enumerate(game.dims):
            if not np.all(np.isfinite(out[k:k + d])):
                bad.append(i)
            k += d
        raise ValueError(f"gradient field is non-finite in player block(s) {bad}")
    return out


@dataclass(frozen=True)
class GradientCheck:
    max_abs_error: float


def verify_gradient(game: Game, x, h: float = 1e-5) -> GradientCheck:
    """Compare the field against central finite differences of the payoffs."""
    if game.payoffs is None:
        raise UnsupportedOperation("game has no payoff functions to differentiate")
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    base = _as_flat(game, x)
    v = gradient_field(game, base)
    worst = 0.0
    k = 0
    for i, d in enumerate(game.dims):
        u = game.payoffs[i]
        for j in range(k, k + d):
            hi = base.copy()
            lo = base.copy()
            hi[j] += h
            lo[j] -= h
            fd = (u(hi) - u(lo)) / (2.0 * h)
            worst = max(worst, abs(fd - v[j]))
        k += d
    return GradientCheck(max_abs_error=worst)


@dataclass(frozen=True)
class CocoercivityEstimate:
    lambda_hat: float
    monotone_violation: bool
    pairs_used: int


def estimate_cocoercivity(game: Game, low: float = -5.0, high: float = 5.0,
                          pairs: int = 1000, seed: int = 0) -> CocoercivityEstimate:
    """Sampled upper bound on the cocoercivity constant over a coordinate box.

    Draws ``pairs`` point pairs uniformly from [low, high]^n and minimizes
    -(x'-x)^T (v(x')-v(x)) / ||v(x')-v(x)||^2 over pairs with distinct field
    values. A negative numerator on any pair flags a monotonicity violation.
    The field is evaluated on all the pairs' points in two batched calls.
    """
    if pairs < 2:
        raise ValueError("need at least 2 sampled pairs")
    if not high > low:
        raise ValueError("sampling region is empty")
    rng = np.random.default_rng(seed)
    n = game.n
    xs = rng.uniform(low, high, size=(pairs, n))
    ys = rng.uniform(low, high, size=(pairs, n))

    d = ys - xs
    dv = game.field(ys) - game.field(xs)
    denom = np.vecdot(dv, dv)
    used = denom != 0.0
    if not used.any():
        raise IndeterminateResult("all sampled pairs had identical field values")
    d, dv, denom = d[used], dv[used], denom[used]
    num = np.vecdot(-d, dv)
    violated = bool(np.any(num < -1e-12 * (1.0 + np.vecdot(d, d) + denom)))
    best = np.fmin.reduce(num / denom, initial=np.inf)  # skips NaN ratios, as `<` would
    return CocoercivityEstimate(lambda_hat=float(best), monotone_violation=violated,
                                pairs_used=int(used.sum()))


def project_to_nash(game: Game, x) -> Array:
    """Euclidean projection onto the game's Nash set via its oracle."""
    if game.nash_oracle is None:
        raise UnsupportedOperation("game has no Nash oracle")
    out = np.asarray(game.nash_oracle(_as_flat(game, x)), dtype=float).reshape(-1)
    if out.size != game.n:
        raise ValueError(f"Nash oracle returned length {out.size}, expected {game.n}")
    if not np.all(np.isfinite(out)):
        raise ValueError("Nash oracle returned non-finite values")
    return out
