"""In-memory spans around the public entry points of each gamegrad module.

``install`` rebinds, from outside the package, the module-level names that
callers look up at call time, so the program's own files stay untouched:

    harness.run_trajectory      -> span "dynamics.run_trajectory"
    harness.make_game           -> span "games.make_game"
    harness.ExperimentConfig.from_dict -> span "harness.config_parse"
    harness.run_experiment, harness.sweep, harness.write_trajectory,
    harness.write_report        -> spans of the same name
    metrics.run_check, metrics.fit_rate, metrics.slope_verdict,
    metrics.time_average_gap, metrics.distance_to_nash -> spans of the same name
    cli.report_csv              -> span "cli.report_csv"

Each span records its name, start, end (``time.perf_counter`` seconds) and the
id of the span that was open when it began. Workers must be 1: calls made in
pool children would not be recorded.
"""

from __future__ import annotations

import functools
import os
import time


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Return fn recording one span per call; attrs(args, result) adds fields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result
        return traced


def runner_body(game) -> str:
    """The runner body run_trajectory dispatches to (the dispatch itself is silent)."""
    if game.n == 1 and game.scalar_field is not None:
        return "scalar"
    if game.n == 2 and game.affine is not None:
        return "affine2"
    return "generic"


def _trajectory_attrs(args, record) -> dict:
    import numpy as np

    game, config = args[0], args[1]
    zeros = np.flatnonzero(record.gap == 0.0)
    steps = record.steps_completed
    return {"steps": steps,
            "useful_steps": int(zeros[0]) if zeros.size else steps,
            "diverged": bool(record.diverged),
            "body": runner_body(game),
            "schedule": config.schedule.kind,
            "noise": config.noise.kind}


def _trajectory_file_attrs(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def install(recorder: Recorder) -> None:
    from gamegrad import cli, harness, metrics

    wrap = recorder.wrap
    harness.run_trajectory = wrap("dynamics.run_trajectory", harness.run_trajectory,
                                  _trajectory_attrs)
    harness.make_game = wrap("games.make_game", harness.make_game)
    harness.ExperimentConfig.from_dict = staticmethod(
        wrap("harness.config_parse", harness.ExperimentConfig.from_dict))
    harness.run_experiment = wrap("harness.run_experiment", harness.run_experiment)
    harness.sweep = wrap("harness.sweep", harness.sweep)
    harness.write_trajectory = wrap("harness.write_trajectory", harness.write_trajectory,
                                    _trajectory_file_attrs)
    harness.write_report = wrap("harness.write_report", harness.write_report)
    for name in ("run_check", "fit_rate", "slope_verdict", "time_average_gap",
                 "distance_to_nash"):
        setattr(metrics, name, wrap(f"metrics.{name}", getattr(metrics, name)))
    cli.report_csv = wrap("cli.report_csv", cli.report_csv)
