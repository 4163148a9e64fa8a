"""Command-line harness: run / sweep / verify-game / fit-rate / list-games.

Exit codes are stable for CI gating: 0 success, 1 check or verification
failure, 2 config error, 3 I/O error, 4 internal error (an unexpected
exception, whose traceback goes to stderr). Reports are written as JSON plus a
plot-ready CSV whose columns are the report's curves (harness.CURVE_KEYS),
the steps column headed ``t``.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from importlib import resources

import click
import numpy as np

from . import harness, metrics
from ._version import __version__
from .errors import ConfigError, IndeterminateResult, config_dict, config_section
from .games import (
    GameSpec,
    builtin_game_specs,
    estimate_cocoercivity,
    make_game,
    project_to_nash,
    verify_gradient,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_INTERNAL_ERROR = 4

CSV_HEADER = ",".join(("t",) + harness.CURVE_KEYS[1:])


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def report_csv(report: harness.ExperimentReport) -> str:
    """The report's curves as CSV, one row per dyadic step (see CSV_HEADER)."""
    steps, *series = (report.curves[key] for key in harness.CURVE_KEYS)
    series = [[None] * len(steps) if s is None else s for s in series]
    rows = (",".join([str(t), *map(_fmt, values)]) for t, *values in zip(steps, *series))
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def resolve_config(path: str) -> str:
    """Use the path as given, else fall back to a bundled config of that name."""
    if os.path.exists(path):
        return path
    bundled = resources.files("gamegrad").joinpath("configs", path)
    if bundled.is_file():
        return str(bundled)
    raise ConfigError(f"config file {path!r} not found (and no bundled config has that name)")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} not found") from None
    except (ValueError, RecursionError) as exc:  # also json's int-digit and nesting limits
        raise ConfigError(f"could not parse {path}: {exc}") from None


def _apply_overrides(doc: dict, overrides: tuple[str, ...]) -> None:
    for item in overrides:
        path, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form dotted.path=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except (ValueError, RecursionError) as exc:  # json's int-digit and nesting limits
            raise ConfigError(f"could not parse the value of override {path!r}: {exc}") from None
        harness.set_by_path(doc, path, value)


def _guard(fn):
    try:
        code = fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(EXIT_IO_ERROR)
    except Exception:  # a fault in the program, not a failed check
        traceback.print_exc()
        sys.exit(EXIT_INTERNAL_ERROR)
    sys.exit(code)


@click.group()
@click.version_option(version=__version__, prog_name="gamegrad")
def main():
    """Learning dynamics on cocoercive games: run experiments, verify games, fit rates."""


@main.command("run")
@click.option("--config", "config_path", required=True, help="Experiment config (path or bundled name).")
@click.option("--set", "-s", "overrides", multiple=True, metavar="PATH=VALUE",
              help="Override a config entry by dotted path (value parsed as JSON).")
@click.option("--out", "out_dir", default=".", show_default=True, help="Output directory.")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1),
              help="Concurrent trial workers, each running one contiguous block of trials.")
@click.option("--seed", default=None, type=int, help="Override the master seed.")
def cmd_run(config_path, overrides, out_dir, workers, seed):
    """Run one experiment; write report.json and curves.csv; gate on checks."""
    def body():
        doc = config_dict(_load_json(resolve_config(config_path)), "experiment config")
        _apply_overrides(doc, overrides)
        if seed is not None:
            doc["master_seed"] = seed
        config = harness.ExperimentConfig.from_dict(doc)
        report = harness.run_experiment(config, workers=workers)

        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, "report.json")
        harness.write_report(report, report_path)
        with open(os.path.join(out_dir, "curves.csv"), "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))

        click.echo(f"game={config.game.label} trials={config.trials} horizon={config.dynamics.horizon}")
        finals = [t.final_gap for t in report.trials if t.final_gap is not None]
        if finals:
            click.echo(f"final gap: mean={np.mean(finals):.6g} max={max(finals):.6g}")
        if report.all_diverged:
            click.echo("all trials diverged", err=True)
        for name, fit in sorted(report.fits.items()):
            if fit is not None:
                click.echo(f"fit {name}: slope={fit['slope']:+.4f} residual={fit['residual_rms']:.3g}")
        failed = report.failed_checks()
        for c in report.checks:
            where = "report" if c["trial"] is None else f"trial {c['trial']}"
            click.echo(f"check {c['check_id']} [{where}]: {'pass' if c['passed'] else 'FAIL'}")
        click.echo(f"wrote {report_path}")
        return EXIT_CHECK_FAILED if failed else EXIT_OK

    _guard(body)


@main.command("sweep")
@click.option("--config", "config_path", required=True,
              help="Sweep document with 'template' and 'grid' entries (path or bundled name).")
@click.option("--set", "-s", "overrides", multiple=True, metavar="PATH=VALUE",
              help="Override a template entry by dotted path before sweeping.")
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1),
              help="Concurrent trial workers per grid point.")
@click.option("--seed", default=None, type=int, help="Override the template master seed.")
def cmd_sweep(config_path, overrides, out_dir, workers, seed):
    """Run a parameter grid; one report per grid point."""
    def body():
        doc = config_section(_load_json(resolve_config(config_path)), "sweep config",
                             ("template", "grid"))
        template = config_dict(doc["template"], "sweep template")
        _apply_overrides(template, overrides)
        if seed is not None:
            template["master_seed"] = seed
        entries = harness.sweep(template, doc["grid"], workers=workers)

        os.makedirs(out_dir, exist_ok=True)
        any_bad = False
        for i, entry in enumerate(entries):
            tag = ", ".join(f"{k}={v}" for k, v in entry.point.items())
            if entry.report is None:
                any_bad = True
                click.echo(f"[{i:03d}] {tag}: ERROR {entry.error}")
                continue
            harness.write_report(entry.report, os.path.join(out_dir, f"report_{i:03d}.json"))
            failed = entry.report.failed_checks()
            any_bad = any_bad or bool(failed)
            click.echo(f"[{i:03d}] {tag}: {'FAIL ' + str(len(failed)) + ' checks' if failed else 'ok'}")
        return EXIT_CHECK_FAILED if any_bad else EXIT_OK

    _guard(body)


@main.command("verify-game")
@click.option("--config", "config_path", default=None,
              help="Game spec document (path or bundled name).")
@click.option("--name", "game_name", default=None, help="Built-in game name.")
@click.option("--pairs", default=10_000, show_default=True, type=click.IntRange(min=2),
              help="Sampled pairs for the cocoercivity estimate.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
def cmd_verify_game(config_path, game_name, pairs, seed):
    """Check a game spec: gradient consistency, cocoercivity estimate, Nash oracle."""
    def body():
        if (config_path is None) == (game_name is None):
            raise ConfigError("give exactly one of --config or --name")
        if game_name is not None:
            doc = {"name": game_name}
        else:
            doc = _load_json(resolve_config(config_path))
            if isinstance(doc, dict):
                doc = doc.get("game", doc)  # accept a bare spec or a full experiment config
        spec = GameSpec.from_dict(doc)

        try:
            game = make_game(spec)
        except ConfigError as exc:
            click.echo(f"rejected: {exc}")
            return EXIT_CHECK_FAILED

        ok = True
        rng = np.random.default_rng(seed)
        if game.payoffs is not None:
            worst = max(verify_gradient(game, x).max_abs_error
                        for x in rng.uniform(-2.0, 2.0, size=(20, game.n)))
            grad_ok = worst <= 1e-6
            ok &= grad_ok
            click.echo(f"gradient check: max error {worst:.3e} "
                       f"({'pass' if grad_ok else 'FAIL'})")
        else:
            click.echo("gradient check: skipped (no payoffs)")

        try:
            est = estimate_cocoercivity(game, -5.0, 5.0, pairs=pairs, seed=seed)
        except IndeterminateResult as exc:  # a constant field: no pair to estimate from
            click.echo(f"cocoercivity estimate: indeterminate ({exc})")
            ok = False
        else:
            click.echo(f"cocoercivity estimate: lambda_hat={est.lambda_hat:.6g} "
                       f"over {est.pairs_used} pairs"
                       + (f" (known lambda={game.cocoercivity:.6g})" if game.cocoercivity else ""))
            if est.monotone_violation or est.lambda_hat <= 0:
                click.echo("monotonicity VIOLATED on sampled pairs")
                ok = False

        if game.nash_oracle is not None:
            worst_v = worst_idem = 0.0
            for x in rng.uniform(-10.0, 10.0, size=(50, game.n)):
                p = project_to_nash(game, x)
                worst_v = max(worst_v, float(np.linalg.norm(game.field(p))))
                p2 = project_to_nash(game, p)
                worst_idem = max(worst_idem, float(np.linalg.norm(p2 - p)))
            oracle_ok = worst_v <= 1e-9 and worst_idem <= 1e-12
            ok &= oracle_ok
            click.echo(f"nash oracle: max ||v(proj)||={worst_v:.3e} "
                       f"idempotence drift={worst_idem:.3e} ({'pass' if oracle_ok else 'FAIL'})")
        else:
            click.echo("nash oracle: absent")

        click.echo("verdict: pass" if ok else "verdict: FAIL")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    _guard(body)


@main.command("fit-rate")
@click.option("--report", "report_path", required=True, help="Report JSON to read.")
@click.option("--curve", default="last_iterate", show_default=True,
              help="Curve to fit: last_iterate, time_average or distance.")
@click.option("--window", nargs=2, type=float, default=None,
              help="Restrict the fit to horizons in [TMIN, TMAX]; default drops a 10% burn-in.")
def cmd_fit_rate(report_path, curve, window):
    """Fit a log-log rate exponent to a report curve and print it."""
    def body():
        win = None if window is None else metrics.fit_window(*window, "fit-rate --window")
        report = harness.read_report(report_path)
        points = report.curve(curve)
        if window is None:
            points = points[metrics.burnin_count(len(points)):]
        try:
            fit = metrics.fit_rate(points, window=win)
        except IndeterminateResult as exc:
            click.echo(f"indeterminate: {exc}")
            return EXIT_CHECK_FAILED
        click.echo(f"curve: {curve}")
        click.echo(f"slope: {fit.slope:+.6f}")
        click.echo(f"intercept: {fit.intercept:+.6f}")
        click.echo(f"residual_rms: {fit.residual_rms:.6g}")
        click.echo(f"window: [{fit.window[0]:g}, {fit.window[1]:g}] ({fit.n_points} points)")
        return EXIT_OK

    _guard(body)


@main.command("list-games")
def cmd_list_games():
    """List the built-in games with their dimensions and cocoercivity constants."""
    def body():
        for name, spec in sorted(builtin_game_specs().items()):
            game = make_game(spec)
            lam = f"{game.cocoercivity:.6g}" if game.cocoercivity is not None else "unknown"
            click.echo(f"{name:<12} kind={spec.kind:<18} players={game.players} "
                       f"n={game.n} lambda={lam}")
        return EXIT_OK

    _guard(body)


if __name__ == "__main__":
    main()
