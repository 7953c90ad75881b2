#!/usr/bin/env python3
"""Regenerate reference.json: the sha256 of every output of every workload.

Run from the root of a transel checkout whose outputs are the reference,
with ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 perfbench/make_reference.py

Entries are keyed by the digest of a round's experiment configs, so each
distinct input set (workload, size and folded seed) is run once.
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main() -> int:
    with open("BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    table = {}
    for name in names:
        for size in workloads.SIZES:
            for seed in range(workloads.SEED_POOL):
                wl = workloads.Workload(name, size, seed)
                if wl.digest in table:
                    continue
                table[wl.digest] = workloads.output_digests(wl.run_round().outputs)
                print(name, size, seed, wl.digest[:12], flush=True)
    tmp = workloads.REFERENCE_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
