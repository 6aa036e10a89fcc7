#!/usr/bin/env python3
"""graded-topos benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload sequents --seed 1 --seconds 20 --trace 0

One client in one process with no threads sends one op after another. Set-up
generates the op list from the seed with the package's own generators (and,
for ``files``, writes the input files); it is repeated ``SETUP_REPEATS``
times and its median is ``setup_s``. The timed phase then runs whole passes
over the fixed op list until ``--seconds`` is used up (at least one pass).
Every op checks its own result; a pass digest over the op tokens must repeat
on every pass and, for seeds recorded in ``digests.json``, equal the record.
All times are in the reference units of ``calibration.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics from the traced
ones (medians over passes for times, exact counts from the first pass) and
times the layer scale points once, untraced. Spans and the run record are
written to ``.perfbench_out/`` at the repository root.

The last line of standard output is the JSON result; the lines before it
are a human-readable report of the same numbers with their sample counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
from calibration import loop_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
DIGEST_CHARS = 16  # digest prefix kept in digests.json
CAP_VARIABLE = "GRADED_TOPOS_SUBSET_CAP"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sequents", "frames", "homs", "files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def fixed_hash_seed() -> None:
    """Re-execute under PYTHONHASHSEED=0: string hashes decide set and dict
    iteration order inside the package, and so the exact work counted."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the ceil(pct * n / 100)-th smallest value, so
    p90 of 100 values leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


class Pass:
    """Outcome of one pass over the op list. `latencies_ns` are in reference
    nanoseconds (see calibration.py), `raw_ns` as the clock read them;
    `failures` pairs an op index with what it raised."""

    def __init__(self, latencies_ns: list[float], raw_ns: list[int],
                 failures: list[tuple[int, Exception]], digest: str, wall_ns: int):
        self.latencies_ns = latencies_ns
        self.raw_ns = raw_ns
        self.failures = failures
        self.digest = digest
        self.wall_ns = wall_ns

    def speed(self) -> float:
        """Reference nanoseconds per raw nanosecond over the pass."""
        return sum(self.latencies_ns) / sum(self.raw_ns)


def run_pass(workload, tracer=None) -> Pass:
    gc.collect()
    raw, failures = [], []
    latencies = [0.0] * len(workload.ops)
    digest = hashlib.sha256()
    clock = time.perf_counter_ns
    start = clock()
    before, since, pending = loop_ns(), clock(), []
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = index
        t0 = clock()
        try:
            token = op.run()
        except Exception as exc:  # a wrong result or a crash fails the op, the run goes on
            token = f"FAILED {type(exc).__name__}"
            failures.append((index, exc))
        raw.append(clock() - t0)
        digest.update(token.encode() + b"\n")
        pending.append(index)
        if clock() - since >= calibration.EVERY_NS or index == len(workload.ops) - 1:
            now = loop_ns()
            factor = calibration.scale(before, now)
            for i in pending:
                latencies[i] = raw[i] * factor
            before, since, pending = now, clock(), []
    return Pass(latencies, raw, failures, digest.hexdigest(), clock() - start)


def timed_setup(name: str, seed: int, workdir: Path, repeats: int):
    """Build the workload `repeats` times; set-up times in reference seconds,
    measured by a calibration.Meter that set-up ticks between its steps."""
    import workloads

    times, workload = [], None
    for _ in range(repeats):
        gc.collect()
        meter = calibration.Meter()
        workloads.tick = meter.tick
        try:
            workload = workloads.WORKLOADS[name](seed, workdir)
        finally:
            workloads.tick = lambda: None
        times.append(meter.seconds())
    return workload, times


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def failures(workload, passes: list[Pass], expected: str | None,
             tracers: list) -> tuple[int, list[str]]:
    """Failed ops of the run, and notes on the digest. Each failed op counts
    once. Passes that disagree on the digest, a digest that differs from the
    record, or traced passes that counted different work fail every op of
    the run: no pass can then be trusted."""
    import layers

    failed = sum(len(p.failures) for p in passes)
    every = len(workload.ops) * len(passes)
    digests = sorted({p.digest for p in passes})
    notes = [f"digest {digests[0]}"]
    if len(digests) > 1:
        failed = every
        notes.append(f"DIGESTS DIFFER ACROSS PASSES: {digests}")
    elif expected is not None and expected != digests[0][:DIGEST_CHARS]:
        failed = every
        notes.append(f"DIGEST DIFFERS FROM THE RECORD {expected}")
    else:
        notes.append("digest matches the record" if expected else "no recorded digest for this seed")
    if tracers and not layers.counts_repeat(tracers):
        failed = every
        notes.append("COUNTS DIFFER BETWEEN TRACED PASSES")
    return failed, notes


def end_to_end(workload, passes: list[Pass], setup_times: list[float]) -> tuple[dict, list[str]]:
    per_op_ms = [statistics.median(p.latencies_ns[i] for p in passes) / 1e6
                 for i in range(len(workload.ops))]
    pass_s = [sum(p.latencies_ns) / 1e9 for p in passes]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(workload.ops) / statistics.median(pass_s),
        "latency_p50_ms": percentile(per_op_ms, 50),
        "latency_p90_ms": percentile(per_op_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_rate = statistics.median(len(workload.ops) / (sum(p.raw_ns) / 1e9) for p in passes)
    notes = [
        f"times in reference units: one calibration loop counts as {calibration.REFERENCE_NS / 1e6} ms "
        f"(it took {statistics.median(1 / p.speed() for p in passes) * calibration.REFERENCE_NS / 1e6:.4g} ms here)",
        f"setup_s: median of {len(setup_times)} set-ups",
        f"ops_per_s: {len(workload.ops)} ops over the median of {len(passes)} pass times "
        f"(unscaled: {raw_rate:.4g} ops/s)",
        f"latency_p50_ms, latency_p90_ms: nearest rank over {len(per_op_ms)} ops, each op at the "
        f"median of its {len(passes)} passes ({len(per_op_ms) - -(-90 * len(per_op_ms) // 100)} ops above p90)",
        "peak_rss_mb: peak resident set of this process",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "graded_topos" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    fixed_hash_seed()
    inherited_cap = os.environ.pop(CAP_VARIABLE, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, setup_times = timed_setup(args.workload, args.seed, workdir,
                                            1 if args.trace else SETUP_REPEATS)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "subset_cap_cleared": True,
            "subset_cap_inherited": inherited_cap,
            "ops": len(workload.ops),
            "mix": workload.mix,
        }
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            untraced, traced, tracers = layers.traced_passes(workload, deadline, run_pass)
            passes = untraced + traced
        else:
            passes = [run_pass(workload)]
            while time.perf_counter() + passes[-1].wall_ns / 1e9 <= deadline:
                passes.append(run_pass(workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = recorded_digest(args.workload, args.seed)
    failed, notes = failures(workload, passes, expected, tracers if args.trace else [])
    digests = sorted({p.digest for p in passes})
    attempted = len(workload.ops) * len(passes)
    record.update(passes=len(passes), attempted=attempted, failed=failed, digest=digests,
                  recorded_digest=expected)

    if args.trace:
        metrics, layer_notes = layers.per_layer(workload, untraced, traced, tracers)
        notes += layer_notes
        tracers[0].write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, e2e_notes = end_to_end(workload, passes, setup_times)
        notes += e2e_notes
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(workload.ops)} ops, mix {workload.mix}")
    print(f"python {record['python']}, nproc {record['nproc']}, git {record['git_sha']}, "
          f"PYTHONHASHSEED=0, {CAP_VARIABLE} cleared (inherited: {inherited_cap!r})")
    for line in notes:
        print(line)
    for index, exc in [f for p in passes for f in p.failures][:10]:
        print(f"FAILED op {index} ({workload.ops[index].label}): {type(exc).__name__}: {exc}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
