#!/usr/bin/env python3
"""Recompute ``digests.json``: one pass of every workload for each of the
seeds 0 to RECORDED_SEEDS - 1.

    python3 perfbench/record_digests.py

A digest covers every op's verdicts, hom values, printed grades and written
file bytes, so it pins the program's outputs. Re-record only when the
benchmark's op lists change; a change to the package must reproduce every
recorded digest unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

RECORDED_SEEDS = 50


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.environ.pop(run.CAP_VARIABLE, None)
    from workloads import WORKLOADS

    run.OUT.mkdir(exist_ok=True)
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for seed in range(RECORDED_SEEDS):
            workdir = run.OUT / f"record-{name}-{seed}"
            try:
                workload, _ = run.timed_setup(name, seed, workdir, 1)
                result = run.run_pass(workload)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.failures:
                index, exc = result.failures[0]
                print(f"{name} seed {seed}: op {index}: {exc!r}", file=sys.stderr)
                return 1
            table[name][str(seed)] = result.digest[:run.DIGEST_CHARS]
            print(name, seed, table[name][str(seed)], flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
