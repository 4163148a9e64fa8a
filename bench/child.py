"""One benchmark child: import gamegrad's CLI, run one command, report timings.

    python3 bench/child.py RESULT_JSON TRACE [gamegrad arguments...]

Run from the repository root, with ``src`` on PYTHONPATH. With no gamegrad
arguments it only imports the CLI (a set-up probe). The result file holds
``ready``, ``start`` and ``end`` as ``time.monotonic`` readings; on Linux that
clock is system-wide, so the parent can subtract its own spawn reading from
``ready``. ``ready_cpu``, ``start_cpu`` and ``end_cpu`` are the matching
``time.process_time`` readings: CPU seconds of all the process's threads
since it started, which on Linux leave out time the hypervisor gave to other
guests. ``ref_before`` and ``ref_after`` are the CPU seconds of one fixed
piece of pure-Python work, timed just before and just after the command, so
that the parent can divide the command's CPU time by the host's speed at the
time. TRACE=1 installs the spans from ``spans.py`` before the command.
"""

import sys
import time

import gamegrad.cli as cli

ready = time.monotonic()
ready_cpu = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402


def reference_loop() -> float:
    """CPU seconds of a fixed amount of interpreter work: building and
    serialising 4,000 small records (about 45 ms on a 2 GHz Xeon)."""
    began = time.process_time()
    rows = [{"t": i, "x": [i * 0.5, -i * 0.25], "eta": 1.0 / (i + 1), "gap": i * 1e-3}
            for i in range(4000)]
    "\n".join(json.dumps(row) for row in rows)
    return time.process_time() - began


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    result = {"ready": ready, "ready_cpu": ready_cpu, "numpy": numpy.__version__}
    if argv:
        recorder = None
        if trace:
            import spans
            recorder = spans.Recorder()
            spans.install(recorder)
        result["ref_before"] = reference_loop()
        result["start"] = time.monotonic()
        result["start_cpu"] = time.process_time()
        try:
            cli.main(args=argv, prog_name="gamegrad")
            result["exit"] = 0
        except SystemExit as exc:
            result["exit"] = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # reported to the parent as a failed run
            result["exit"] = None
            result["error"] = traceback.format_exc()
        result["end_cpu"] = time.process_time()
        result["end"] = time.monotonic()
        result["ref_after"] = reference_loop()
        if recorder is not None:
            result["spans"] = recorder.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
