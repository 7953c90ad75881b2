#!/usr/bin/env python3
"""transel benchmark: one workload, end to end or layer by layer.

Run from the root of a transel checkout:

    python3 perfbench/run.py --workload gap_demo --seed 0 --seconds 35 --trace 0

The program is imported from ``src/`` as it stands; there is nothing to build.
Set-up is timed in several fresh processes and its median reported.  The
workload then runs in one more fresh child process, single-threaded, with
BLAS/OpenMP pools pinned to one thread.  Report lines go to standard output;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit code is 1
when any output or check was wrong, and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# Fresh processes that time set-up alone; the measuring child adds one more.
SETUP_PROCESSES = 4

# The whole run must end well inside three minutes.
DEADLINE_S = 170.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run the worker to completion and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise RunError("child process ran past the deadline and was killed") from None
    if proc.returncode != 0:
        raise RunError(f"child process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("child process printed no result")
    return json.loads(lines[-1])


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "transel", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_rev(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=int, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the smoke test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(root, "src", "transel", "__init__.py")):
            raise RunError("no transel sources under src/: run from a transel checkout")
        env = child_env(root)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        setup = [run_child(common + ["--seconds", "0", "--setup-only"], env, deadline)["setup_s"]
                 for _ in range(SETUP_PROCESSES)]
        result = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                           env, deadline)
    except (OSError, ValueError, RunError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    values = result["metrics"]
    setup.append(values["setup_s"])
    values["setup_s"] = statistics.median(setup)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: the worker did not report {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "rounds": info["rounds"],
        "ops": info["ops"],
        "error_rate": failed / attempted if attempted else 1.0,
        "fit_ms_p90": info["fit_ms_p90"],
        "setup_samples_s": setup,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "git_rev": git_rev(root),
        "src_sha256": source_digest(root),
        "config_sha256": info["config_sha256"],
    }
    for key, value in report.items():
        print(f"{key}: {value}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
