"""Child process of the benchmark: set up one workload, then measure it.

Prints one JSON object as its last line.  With ``--setup-only`` it stops
after set-up and reports only ``setup_s``.  Otherwise it runs rounds of the
workload for about ``--seconds`` seconds, checks every round's outputs
against the committed reference digests, and reports the end-to-end
figures, or with ``--trace 1`` the per-layer figures of a traced run.
An exception from the program ends the run with a traceback and no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

# Fewest rounds a measurement takes, however long one round is.
MIN_ROUNDS = 3


def run_rounds(workload, seconds, min_rounds, checker, tracer=None):
    """Run rounds until the next one would likely end past ``seconds``.

    Returns the wall time of each round and, when traced, its layer figures.
    """
    start = time.perf_counter()
    walls, layers = [], []
    while len(walls) < min_rounds or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        if tracer is not None:
            tracer.open("round")
        t0 = time.perf_counter()
        rnd = workload.run_round()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
            layers.append(layer_figures(tracer, rnd, wall))
        walls.append(wall)
        checker.check(rnd)
    return walls, layers


class OutputChecker:
    """Counts operations and failures; compares outputs with the reference."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.expected = reference.get(workload.digest)
        self.attempted = 0
        self.failed = 0
        self.fit_seconds: list[float] = []
        self.op_seconds: list[float] = []

    def _fail(self, count: int, message: str):
        self.failed += count
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def check(self, rnd):
        from workloads import output_digests

        self.fit_seconds += rnd.fit_seconds
        self.op_seconds += rnd.fit_seconds + rnd.verify_seconds
        self.attempted += len(rnd.fit_seconds) + rnd.checks
        if rnd.failed_checks:
            self._fail(rnd.failed_checks, f"{rnd.failed_checks} verify checks failed")
        got = output_digests(rnd.outputs)
        self.attempted += len(got)
        if self.expected is None:
            self._fail(len(got), f"no reference digests for config {self.workload.digest}")
            return
        for name, digest in got.items():
            if self.expected.get(name) != digest:
                self._fail(1, f"{name} sha256 {digest} differs from the reference "
                              f"{self.expected.get(name)}")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_figures(tracer, rnd, wall) -> dict:
    """Per-layer self times, calls and counts of one traced round.

    Self times are shares of the round, in percent: a share does not move
    when the whole machine runs faster or slower, and a layer the workload
    never enters reads 0 rather than a time of 0 s.
    """
    from tracing import LAYERS

    spans = len(tracer)
    self_ns, calls, counts = tracer.collect()
    out = {}
    for layer in LAYERS:
        out[f"{layer}_pct"] = 100.0 * self_ns.get(layer, 0) / 1e9 / wall
        out[f"{layer}_calls"] = calls.get(layer, 0)
    out.update(counts)
    fits = len(rnd.fit_seconds)
    out["distributions.draws_per_replicate"] = _ratio(
        calls.get("distributions.sample", 0), rnd.replicate_cells)
    out["erm.workspace_calls_per_fit"] = _ratio(calls.get("erm.workspace", 0), fits)
    out["erm.search_found_ratio"] = _ratio(
        counts["erm.search_found"], calls.get("erm.search", 0))
    out["classifiers.eval_points_per_probe"] = _ratio(
        counts["classifiers.eval_points"], counts["erm.search_pops"])
    out["harness.output_bytes"] = sum(len(t.encode("utf-8")) for t in rnd.outputs.values())
    out["trace.wall_s"] = wall
    out["trace.spans"] = spans
    out["trace.unattributed_pct"] = 100.0 * self_ns.get("round", 0) / 1e9 / wall
    return out


def _mean(values):
    """Mean over traced rounds; counts that agree across rounds stay integers."""
    values = list(values)
    if all(isinstance(v, int) for v in values) and len(set(values)) == 1:
        return values[0]
    return statistics.fmean(values)


def end_to_end(walls, checker) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": len(checker.op_seconds) / sum(walls),
        "op_ms_p50": 1e3 * statistics.median(checker.op_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def fit_ms_p90(fit_seconds):
    """p90 fit latency, or None unless at least ten fits lie beyond it."""
    if len(fit_seconds) < 10:
        return None
    p90 = statistics.quantiles(fit_seconds, n=10, method="inclusive")[-1]
    return 1e3 * p90 if sum(v > p90 for v in fit_seconds) >= 10 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports transel

    workload = workloads.Workload(args.workload, args.size, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    checker = OutputChecker(workload, workloads.load_reference())
    if args.trace:
        from tracing import Tracer

        # Half the window untraced, half traced: the difference is the overhead.
        walls, _ = run_rounds(workload, args.seconds / 2, 1, checker)
        tracer = Tracer()
        tracer.install()
        try:
            traced_walls, rounds = run_rounds(workload, args.seconds / 2, 1, checker, tracer)
        finally:
            tracer.uninstall()
        metrics = {k: _mean(r[k] for r in rounds) for k in rounds[0]}
        metrics["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        walls += traced_walls
    else:
        walls, _ = run_rounds(workload, args.seconds, MIN_ROUNDS, checker)
        metrics = end_to_end(walls, checker)
    metrics["setup_s"] = setup_s
    print(json.dumps({
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "info": {
            "rounds": len(walls),
            "ops": len(checker.op_seconds),
            "fit_ms_p90": fit_ms_p90(checker.fit_seconds),
            "numpy": numpy.__version__,
            "config_sha256": workload.digest,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
