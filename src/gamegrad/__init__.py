"""Online gradient descent dynamics on cocoercive continuous games."""

from ._version import __version__
from .dynamics import (
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
from .errors import ConfigError, IndeterminateResult, UnsupportedOperation
from .games import (
    Game,
    GameSpec,
    builtin_game_specs,
    estimate_cocoercivity,
    gradient_field,
    make_game,
    make_named_game,
    project_to_nash,
    verify_gradient,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    read_report,
    run_experiment,
    sweep,
    write_report,
)
from .metrics import (
    CheckSpec,
    ConvergenceVerdict,
    RateFit,
    distance_to_nash,
    fit_rate,
    optimality_gap,
    parse_check,
    run_check,
    tail_product,
    time_average_gap,
    variance_budget,
)

__all__ = [
    "__version__",
    "AbsoluteNoise", "ConstantSchedule", "DynamicsConfig", "GradNormSchedule",
    "NoNoise", "PowerSchedule", "RelativeNoise", "StepNormSchedule",
    "TrajectoryRecord", "VarianceSchedule", "run_trajectory",
    "ConfigError", "IndeterminateResult", "UnsupportedOperation",
    "Game", "GameSpec", "builtin_game_specs", "estimate_cocoercivity",
    "gradient_field", "make_game", "make_named_game", "project_to_nash", "verify_gradient",
    "ExperimentConfig", "ExperimentReport", "read_report", "run_experiment", "sweep",
    "write_report",
    "CheckSpec", "ConvergenceVerdict", "RateFit", "distance_to_nash", "fit_rate",
    "optimality_gap", "parse_check", "run_check", "tail_product", "time_average_gap",
    "variance_budget",
]
