"""gamegrad benchmark: end-to-end CLI runs, checked outputs, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, untraced then traced

The benchmark itself needs only the standard library. It runs the program
from ``src/`` in fresh child processes (``child.py``) with the repository root
as working directory, one at a time (closed loop, one client) and always
with ``--workers 1`` and one BLAS thread. Each command goes through
``gamegrad run`` or ``gamegrad sweep`` with a master seed derived from
``--seed`` and the workload name.

Untraced (``--trace 0``) metrics:
  run_ref    CPU seconds (all threads) the child spends on one command, from
             having imported gamegrad.cli until every output file is written,
             divided by the CPU seconds of a fixed pure-Python reference loop
             that the same child times just before and just after the command
             (the mean of the two): the command's cost in reference-loop units;
  setup_s    CPU seconds the child spends from its start until gamegrad.cli
             (with numpy and click) is imported and ready to take the
             command; sampled by every command of the run;
  pass_frac  commands that passed / commands attempted (1 - fail_frac).
run_ref and setup_s are the medians of their samples in the run; the other
statistics and the sample count are printed beside each. The raw run_cpu_s,
the wall-clock run_s and setup_wall_s and the reference loop's ref_cpu_s of
the same commands are printed too, but are not bounded.

Why CPU seconds in reference-loop units: on a shared 2-vCPU Xeon VM, the
hypervisor gave 10-25% of the CPU time to other guests (steal) for ten
minutes and more at a time, and Linux leaves steal out of a process's CPU
time. Apart from steal, the CPU seconds of the same work drift with the load
that other guests put on the host: within one 30 s run a command's CPU time
ranged over 1.4x to 1.8x, and the median of a run moved by up to 35% from one
run to the next. The reference loop (building and serialising small records
with json) slows with the host, so the ratio cancels most of that drift, and
the run's median the rest of the per-command noise. Of the loops tried (an
integer loop, float arithmetic, json records, large and 64-element numpy
arrays), the json loop left the least run-to-run spread of run_ref on every
workload; the integer loop left 2-4x more. A change that moves work out of
the child process would hide it from run_ref; run_s shows it.
A command fails if it raises or exits nonzero, if any check in its reports
has ``passed: false``, if any trial diverged, if an expected output file is
missing, or if its output digest differs from the first command of the
invocation. Those runs share one seed, so their outputs must be byte-identical.

Traced (``--trace 1``) metrics come from commands run with the spans of
``spans.py`` installed, alternated with untraced ones for the overhead; see
``layer_metrics``. Exact counts must repeat across the traced commands, or
the later command counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it list the
environment, the share of CPU time the hypervisor gave to other guests during
the run (``steal_frac``, from /proc/stat), the sha256 of every output file and
each metric with its unit and sample count. Work files go to
``.bench_work/`` (emptied per command); ``.bench_work/<workload>/`` keeps
``result_trace<k>.json``, the full result, and ``spans.jsonl``, the spans of
the traced commands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = ".bench_work"          # relative to ROOT; report.json embeds trajectory_dir
MIN_COMMANDS = 2              # untraced commands per run, even past --seconds
TRACE_PATTERN = "utt"         # first traced-run commands: one untraced, two traced
DEADLINE_S = 170.0            # start nothing that would end past this

_RELATIVE_SQRT_NOISE = {"kind": "relative", "shape": "sphere",
                        "tau": {"kind": "power", "c": 1.0, "q": 0.5}}

# Inputs are pinned here rather than read from src/gamegrad/configs, so that a
# change to a bundled file cannot change what the benchmark measures. Trials
# and horizons are cut from the bundled configs' so that one command runs for
# about 0.2-0.5 s on a 2-vCPU Xeon VM and a 30 s run holds 30 or more, whose
# median is steady (see the module docstring).
WORKLOADS = {
    # criterion7_adaptive_noisy.cfg with 32 trials x 4,096 steps: scalar body,
    # step_norm schedule, chunked relative noise; every trial's gap collapses
    # to exactly 0 near step 1,000.
    "scalar_trials": ("run", {
        "game": {"name": "quad_1d"},
        "dynamics": {"schedule": {"kind": "step_norm", "beta": 1.0},
                     "noise": _RELATIVE_SQRT_NOISE, "horizon": 4096, "x0": [1.0],
                     "blow_up_radius": None, "thinning": 0},
        "trials": 32, "master_seed": 7,
        "checks": ["no_divergence", "eta_monotone", "slope_below:last_iterate:-0.45:64:4096"],
    }),
    # The only workload on the generic numpy body (n = 64): 16 trials x 1,024
    # steps, one 64x64 eigendecomposition per trial; no collapse.
    "highdim_trials": ("run", {
        "game": {"kind": "random_cocoercive", "n": 64, "seed": 5, "conditioning": 4.0},
        "dynamics": {"schedule": {"kind": "constant", "eta": 0.2},
                     "noise": _RELATIVE_SQRT_NOISE, "horizon": 1024, "x0": [1.0] * 64,
                     "blow_up_radius": None, "thinning": 0},
        "trials": 16, "master_seed": 1,
        "checks": ["no_divergence", "slope_below:time_average:-0.5:64:1024"],
    }),
    # criterion1_descent.cfg at horizon 50,000 through sweep: single trials on
    # the unrolled 2-d body with every state logged; nothing to batch across
    # trials.
    "descent_sweep": ("sweep", {
        "template": {
            "game": {"name": "quad_2d"},
            "dynamics": {"schedule": {"kind": "constant", "eta": 0.16666666666666666},
                         "noise": {"kind": "none"}, "horizon": 50000, "x0": [1.5, -2.0],
                         "blow_up_radius": None, "thinning": 1},
            "trials": 1, "master_seed": 11,
            "checks": ["descent_invariants", "gap_step_consistency", "no_divergence"],
        },
        "grid": {"dynamics.schedule.eta": [0.08333333333333333, 0.16666666666666666,
                                           0.3333333333333333]},
    }),
    # criterion8a_absolute_avg.cfg with 4 trials x 8,192 steps and
    # trajectory_dir set: the only workload that writes JSONL trajectories;
    # power schedule, absolute noise.
    "trajectory_dump": ("run", {
        "game": {"name": "quad_1d"},
        "dynamics": {"schedule": {"kind": "power", "c": 0.5, "p": 0.5},
                     "noise": {"kind": "absolute", "shape": "sphere",
                               "sigma_sq": {"kind": "constant", "c": 0.01}},
                     "horizon": 8192, "x0": [1.0], "blow_up_radius": None, "thinning": 0},
        "trials": 4, "master_seed": 81,
        "checks": ["no_divergence", "slope_below:time_average:-0.4:64:8192"],
        "trajectory_dir": f"{WORK}/trajectory_dump/traj",
    }),
}

# Per-layer metrics: name -> unit. Times are wall-clock span minima over traced
# commands; trace.overhead_s compares run_cpu_s medians. The rest are exact
# counts that must repeat.
LAYER_UNITS = {
    "dynamics.run_trajectory.calls": "count",
    "dynamics.run_trajectory.s": "s",
    "dynamics.steps": "count",
    "dynamics.ns_per_step": "ns",
    "dynamics.useful_step_frac": "frac",
    "dynamics.diverged_trials": "count",
    "games.make_game.calls": "count",
    "games.make_game.s": "s",
    "harness.config_parse.calls": "count",
    "harness.config_parse.s": "s",
    "harness.write.s": "s",
    "harness.write_trajectory.bytes": "bytes",
    "harness.self_s": "s",
    "metrics.run_check.calls": "count",
    "metrics.run_check.s": "s",
    "metrics.fit_rate.s": "s",
    "metrics.curves.s": "s",
    "harness.peak_rss_mb": "MB",
    "trace.overhead_s": "s",
}
EXACT = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes", "frac")]

# Span name -> metric group. A group's time is the inclusive time of its
# outermost spans; "harness.write" is report JSON, curves CSV and trajectories.
SPAN_GROUPS = {
    "dynamics.run_trajectory": "dynamics.run_trajectory",
    "games.make_game": "games.make_game",
    "harness.config_parse": "harness.config_parse",
    "harness.write_report": "harness.write",
    "harness.write_trajectory": "harness.write",
    "cli.report_csv": "harness.write",
    "metrics.run_check": "metrics.run_check",
    "metrics.slope_verdict": "metrics.run_check",
    "metrics.fit_rate": "metrics.fit_rate",
    "metrics.time_average_gap": "metrics.curves",
    "metrics.distance_to_nash": "metrics.curves",
}
HARNESS_SPANS = ("harness.run_experiment", "harness.sweep")


class CannotRun(Exception):
    """The program cannot be imported or run at all; no result is printed."""


def run_seconds() -> float:
    """run_seconds from BENCHMARK.json, so a bare invocation measures like the bounded runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def master_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def environment(numpy_version: str) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit}


def cpu_ticks() -> list[int] | None:
    """System-wide CPU tick counters (user ... steal) from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) else None


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def spawn(argv: list[str], trace: bool, work: str, deadline: float) -> dict:
    """Run child.py once; return its result with its timings (see the docstring) added."""
    result_path = os.path.join(work, "child.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    # One BLAS thread, as --workers 1 keeps the work in one process: OpenBLAS
    # helper threads spin while idle, which doubled the CPU seconds of
    # highdim_trials and of every import of numpy.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), result_path, str(int(trace)), *argv]
    with open(os.path.join(work, "child.log"), "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            proc.wait(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - spawned
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, json.JSONDecodeError):
        with open(os.path.join(work, "child.log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        return {"exit": proc.returncode, "error": f"child left no result:\n{tail}", "wall_s": wall}
    result["wall_s"] = wall
    result["setup_s"] = result["ready_cpu"]
    result["setup_wall_s"] = result["ready"] - spawned
    if "start" in result:
        result["run_cpu_s"] = result["end_cpu"] - result["start_cpu"]
        result["run_s"] = result["end"] - result["start"]
        result["ref_cpu_s"] = (result["ref_before"] + result["ref_after"]) / 2
        result["run_ref"] = result["run_cpu_s"] / result["ref_cpu_s"]
    return result


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_outputs(command: str, doc: dict, out: str) -> tuple[list[str], dict]:
    """Failure reasons and per-file sha256 of one command's outputs."""
    reasons = []
    if command == "sweep":
        points = 1
        for values in doc["grid"].values():
            points *= len(values)
        expected = [f"report_{i:03d}.json" for i in range(points)]
    else:
        expected = ["report.json", "curves.csv"]
    files = {name: os.path.join(out, name) for name in expected}
    traj_dir = doc.get("trajectory_dir")
    if traj_dir:
        files.update({f"traj/trial_{i:04d}.jsonl": os.path.join(ROOT, traj_dir, f"trial_{i:04d}.jsonl")
                      for i in range(doc["trials"])})
    digests = {}
    for name, path in files.items():
        if not os.path.isfile(path):
            reasons.append(f"missing output {name}")
            continue
        digests[name] = _sha256(path)
        if name.endswith(".json"):
            try:
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                checks, trials = report["checks"], report["trials"]
            except (json.JSONDecodeError, KeyError) as exc:
                reasons.append(f"{name}: malformed report: {exc!r}")
                continue
            failed = [c["check_id"] for c in checks if not c["passed"]]
            if failed:
                reasons.append(f"{name}: checks failed: {sorted(set(failed))}")
            diverged = [t["trial"] for t in trials if t["diverged"]]
            if diverged:
                reasons.append(f"{name}: trials diverged: {diverged}")
    return reasons, digests


def run_command(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    command, doc = WORKLOADS[workload]
    work = os.path.join(ROOT, WORK, workload)
    out = os.path.join(work, "out")
    for path in (out, os.path.join(ROOT, WORK, workload, "traj")):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(out)
    config = os.path.join(WORK, workload, "config.json")
    with open(os.path.join(ROOT, config), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    argv = [command, "--config", config, "--out", os.path.join(WORK, workload, "out"),
            "--workers", "1", "--seed", str(master_seed(workload, seed))]
    result = spawn(argv, trace, work, deadline)
    reasons = []
    if result.get("error"):
        reasons.append(result["error"].strip().splitlines()[-1])
    if result.get("exit") != 0:
        reasons.append(f"exit code {result.get('exit')}")
    if "run_s" in result:
        more, result["digests"] = check_outputs(command, doc, out)
        reasons += more
    result["reasons"] = reasons
    result["trace"] = trace
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict], maxrss_kb: int) -> dict:
    """Per-layer values of one traced command (trace.overhead_s excepted)."""
    by_id = {s["id"]: s for s in spans}
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        group = SPAN_GROUPS.get(s["name"])
        if group is None:
            continue
        calls[group] = calls.get(group, 0) + 1
        parent = s["parent"]
        while parent is not None and SPAN_GROUPS.get(by_id[parent]["name"]) != group:
            parent = by_id[parent]["parent"]
        if parent is None:  # outermost span of its group
            times[group] = times.get(group, 0.0) + s["end"] - s["start"]
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    harness_self = sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                       for s in spans if s["name"] in HARNESS_SPANS)
    trials = [s for s in spans if s["name"] == "dynamics.run_trajectory"]
    steps = sum(s["steps"] for s in trials)
    runner_s = times.get("dynamics.run_trajectory", 0.0)
    return {
        "dynamics.run_trajectory.calls": calls.get("dynamics.run_trajectory", 0),
        "dynamics.run_trajectory.s": runner_s,
        "dynamics.steps": steps,
        "dynamics.ns_per_step": runner_s / steps * 1e9 if steps else 0.0,
        "dynamics.useful_step_frac": sum(s["useful_steps"] for s in trials) / steps if steps else 0.0,
        "dynamics.diverged_trials": sum(s["diverged"] for s in trials),
        "games.make_game.calls": calls.get("games.make_game", 0),
        "games.make_game.s": times.get("games.make_game", 0.0),
        "harness.config_parse.calls": calls.get("harness.config_parse", 0),
        "harness.config_parse.s": times.get("harness.config_parse", 0.0),
        "harness.write.s": times.get("harness.write", 0.0),
        "harness.write_trajectory.bytes": sum(s.get("bytes", 0) for s in spans
                                              if s["name"] == "harness.write_trajectory"),
        "harness.self_s": harness_self,
        "metrics.run_check.calls": calls.get("metrics.run_check", 0),
        "metrics.run_check.s": times.get("metrics.run_check", 0.0),
        "metrics.fit_rate.s": times.get("metrics.fit_rate", 0.0),
        "metrics.curves.s": times.get("metrics.curves", 0.0),
        "harness.peak_rss_mb": maxrss_kb / 1024.0,
    }


def runner_kinds(spans: list[dict]) -> list[str]:
    """Distinct runner body / schedule / noise behind dynamics.ns_per_step."""
    return sorted({f"body={s['body']} schedule={s['schedule']} noise={s['noise']}"
                   for s in spans if s["name"] == "dynamics.run_trajectory"})


def summarize(values: list[float], stat: str = "min") -> dict:
    if not values:
        raise CannotRun("no command completed")
    summary = {"n": len(values), "min": min(values), "median": statistics.median(values),
               "max": max(values), "stat": stat}
    return {"value": summary[stat], **summary}


# ---------------------------------------------------------------------------
# One run: a workload measured for --seconds
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(ROOT, WORK, workload)
    os.makedirs(work, exist_ok=True)
    started = time.monotonic()
    ticks = cpu_ticks()
    deadline = started + DEADLINE_S

    probe = spawn([], False, work, deadline)  # warm-up: bytecode and file caches
    if "ready" not in probe:
        raise CannotRun(f"cannot import gamegrad.cli: {probe.get('error')}")
    env = environment(probe["numpy"])

    pattern = TRACE_PATTERN if trace else "u" * MIN_COMMANDS
    samples: list[dict] = []
    while True:
        i = len(samples)
        if i >= len(pattern):
            longest = max(s["wall_s"] for s in samples)
            now = time.monotonic()
            if now + longest > min(started + seconds, deadline):
                break
        traced = pattern[i] == "t" if i < len(pattern) else trace and not samples[-1]["trace"]
        samples.append(run_command(workload, seed, traced, deadline))

    reference = next((s["digests"] for s in samples if "digests" in s), None)
    exact_ref = None
    for s in samples:
        if "digests" in s and s["digests"] != reference:
            s["reasons"].append("outputs differ from the first command of this run")
        if s["trace"] and "spans" in s:
            s["layers"] = layer_metrics(s["spans"], s["maxrss_kb"])
            exact = {k: s["layers"][k] for k in EXACT}
            if exact_ref is None:
                exact_ref = exact
            elif exact != exact_ref:
                diff = sorted(k for k in EXACT if exact[k] != exact_ref[k])
                s["reasons"].append(f"exact counts did not repeat: {diff}")

    failed = sum(1 for s in samples if s["reasons"])
    untraced = [s for s in samples if "run_s" in s and not s["trace"]]
    run_cpu = [s["run_cpu_s"] for s in untraced]
    metrics: dict[str, dict] = {}
    unbounded: dict[str, dict] = {}
    if not trace:
        metrics["run_ref"] = {"unit": "ref", **summarize([s["run_ref"] for s in untraced],
                                                         "median")}
        metrics["setup_s"] = {"unit": "s", **summarize([s["setup_s"] for s in samples
                                                         if "setup_s" in s], "median")}
        metrics["pass_frac"] = {"unit": "frac", "value": 1.0 - failed / len(samples),
                                "n": len(samples)}
        for name in ("run_cpu_s", "run_s", "ref_cpu_s"):
            unbounded[name] = {"unit": "s", **summarize([s[name] for s in untraced], "median")}
        unbounded["setup_wall_s"] = {"unit": "s", **summarize([s["setup_wall_s"] for s in samples
                                                           if "setup_wall_s" in s], "median")}
    else:
        traced = [s for s in samples if "layers" in s]
        if not traced:
            raise CannotRun("no traced command produced spans")
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead_s":
                continue
            if name in EXACT:
                metrics[name] = {"unit": unit, "value": traced[0]["layers"][name], "n": len(traced)}
            else:
                metrics[name] = {"unit": unit, **summarize([s["layers"][name] for s in traced])}
        traced_run = summarize([s["run_cpu_s"] for s in traced], "median")["value"]
        metrics["trace.overhead_s"] = {"unit": "s",
                                       "value": traced_run - summarize(run_cpu, "median")["value"],
                                       "n": len(traced) + len(run_cpu)}

    result = {
        "workload": workload, "seed": seed, "master_seed": master_seed(workload, seed),
        "trace": int(trace), "seconds": seconds, "elapsed_s": time.monotonic() - started,
        "environment": env, "steal_frac": steal_frac(ticks, cpu_ticks()),
        "attempted": len(samples), "failed": failed,
        "fail_frac": failed / len(samples), "metrics": metrics, "unbounded": unbounded,
        "digests": reference,
        "runner_kinds": runner_kinds(next((s["spans"] for s in samples if "spans" in s), [])),
        "commands": [{k: s.get(k) for k in ("trace", "exit", "setup_s", "setup_wall_s",
                                            "run_cpu_s", "run_s", "ref_cpu_s", "run_ref", "wall_s", "maxrss_kb",
                                            "reasons")} for s in samples],
    }
    with open(os.path.join(work, f"result_trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if trace:
        with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for i, s in enumerate(samples):
                for span in s.get("spans", []):
                    fh.write(json.dumps({"command": i, **span}, sort_keys=True) + "\n")
    return result


def print_result(r: dict) -> None:
    print(f"== workload {r['workload']} seed {r['seed']} (master_seed {r['master_seed']}) "
          f"trace {r['trace']}: {r['attempted']} commands in {r['elapsed_s']:.1f} s")
    print("environment " + json.dumps(r["environment"], sort_keys=True))
    if r["steal_frac"] is not None:
        print(f"host steal_frac = {r['steal_frac']:.4f} (CPU time taken by other guests "
              "during the run; high values slow every timing)")
    for name, digest in sorted((r["digests"] or {}).items()):
        print(f"sha256 {digest}  {name}")
    for kind in r["runner_kinds"]:
        print(f"runner {kind}")
    print(f"metric fail_frac = {r['fail_frac']:.6g} ({r['failed']}/{r['attempted']})")
    for name, m in [*r["metrics"].items(), *r["unbounded"].items()]:
        note = "; not bounded" if name in r["unbounded"] else ""
        if "median" in m:
            print(f"metric {name} = {m['value']:.6g} {m['unit']} ({m['stat']} of n={m['n']}; "
                  f"min {m['min']:.6g}, median {m['median']:.6g}, max {m['max']:.6g}{note})")
        else:
            print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    for i, c in enumerate(r["commands"]):
        for reason in c["reasons"]:
            print(f"FAILED command {i}: {reason}")


def contract_line(r: dict) -> dict:
    return {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in r["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="default: 0 for one workload; both for 'all'")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gamegrad", "cli.py")):
        print(f"no gamegrad sources under {ROOT}/src", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    lines = {}
    try:
        for workload in workloads:
            for trace in traces:
                r = run_workload(workload, args.seed, args.seconds, bool(trace))
                print_result(r)
                lines[f"{workload}.trace{trace}"] = contract_line(r)
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {"correct": all(l["correct"] for l in lines.values()),
                 "attempted": sum(l["attempted"] for l in lines.values()),
                 "failed": sum(l["failed"] for l in lines.values()),
                 "metrics": {f"{key}.{name}": m for key, l in lines.items()
                             for name, m in l["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
