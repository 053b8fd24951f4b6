"""lplab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mc-grid --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; lplab is imported from ./src.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with --trace 1 it reports the per-layer
metrics from traced passes (see layertrace.py).  Human-readable lines
come first; the last stdout line is one JSON object.

A run is one process: a traced warm-up pass gives the reference output
of every operation, then passes repeat until --seconds are used up.
Every repeat must reproduce the reference bytes, and each reference is
checked by its oracle (workloads.py).  Set-up time is measured in fresh
interpreters, several per run, and reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# a fresh interpreter up to a usable CLI; prints CLOCK_MONOTONIC at the end
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import lplab.cli as cli;"
    " cli.load_constants(None); cli.build_parser(); print(time.monotonic_ns())"
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable cores; must precede numpy's import."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    return {var: nproc for var in THREAD_VARS}


def llc_bytes() -> int | None:
    """Largest cache size the kernel reports for cpu0, or None."""
    sizes = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KMG")) * scale)
    return max(sizes, default=None)


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter until lplab's CLI is ready."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return (int(done.stdout.split()[-1]) - start) / 1e9


class Pass:
    """Outputs, per-op durations and errors of one pass over the ops."""

    def __init__(self, workload, recorder=None):
        self.outputs, self.seconds, self.errors = {}, {}, {}
        for op in workload.ops:
            run = op.run if recorder is None else recorder.wrap(op.run, f"op.{op.label}")
            start = time.perf_counter()
            try:
                self.outputs[op.label] = run()
            except Exception:  # a failed op is counted, the run goes on
                self.errors[op.label] = traceback.format_exc()
                print(f"{workload.name}/{op.label} raised:", self.errors[op.label], file=sys.stderr)
            self.seconds[op.label] = time.perf_counter() - start
        self.wall = sum(self.seconds.values())


def traced_pass(workload, layertrace):
    with layertrace.Recorder() as recorder:
        result = Pass(workload, recorder)
    return result, recorder


def main() -> int:
    args = parse_args()
    caps = cap_threads()
    # the oracles assume the packaged constants, so no override file applies
    os.environ.pop("LPLAB_CONSTANTS", None)
    if not (SRC / "lplab" / "__init__.py").is_file():
        print(f"error: no lplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import lplab
    import layertrace
    from workloads import WORKLOADS

    if Path(lplab.__file__).resolve().parent != (SRC / "lplab").resolve():
        print(f"error: imported lplab from {lplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload](args.seed)

    # warm-up: caches and lazy imports settle; its outputs are the reference
    started = time.perf_counter()
    reference, warm_trace = traced_pass(workload, layertrace)
    passes, timed, traced = [reference], [], [(reference, warm_trace)]
    # set-up probes are spread over the timed passes, so that they sample
    # the same stretch of machine load
    setup = []
    probes = SETUP_RUNS if args.trace == 0 else 0
    stride = max(1, int(args.seconds / reference.wall) // SETUP_RUNS)
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace == 1 and len(traced) <= len(timed) + 1:
            traced.append(traced_pass(workload, layertrace))
            passes.append(traced[-1][0])
        else:
            if len(setup) < probes and len(timed) % stride == 0:
                setup.append(setup_probe())
            timed.append(Pass(workload))
            passes.append(timed[-1])
        typical = statistics.median(p.wall for p in passes)
        enough = timed and (args.trace == 0 or len(traced) > 1)
        if enough and time.perf_counter() + typical > deadline:
            break
    while len(setup) < probes:
        setup.append(setup_probe())
    measured_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # an op run fails if it raised, differs from the reference bytes, or
    # its reference output fails the oracle; a traced pass whose exact
    # counts differ from the warm-up's fails all its ops
    oracle_failed = {}
    for op in workload.ops:
        try:
            problems = op.check(reference.outputs[op.label])
        except Exception:  # a missing output or crashing oracle is a failure
            problems = [traceback.format_exc()]
        for problem in problems:
            print(f"check failed: {workload.name}/{op.label}: {problem}", file=sys.stderr)
        oracle_failed[op.label] = bool(problems)
    layer_runs = [recorder.layer_metrics() for _, recorder in traced]
    miscounted = {
        id(result)
        for (result, _), metrics in zip(traced, layer_runs)
        if any(metrics[name] != layer_runs[0][name] for name in layertrace.COUNT_METRICS)
    }
    if miscounted:
        print(f"check failed: trace counts differ in {len(miscounted)} traced passes",
              file=sys.stderr)
    attempted = failed = 0
    for result in passes:
        for op in workload.ops:
            attempted += 1
            if (
                oracle_failed[op.label]
                or op.label in result.errors
                or result.outputs.get(op.label) != reference.outputs.get(op.label)
                or id(result) in miscounted
            ):
                failed += 1

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
        "llc_bytes": llc_bytes(),
        "largest_array_bytes": warm_trace.largest_array_bytes,
        "note": "bytes are computed from array shapes at traced boundaries;"
        " no bandwidth or roofline ratio is claimed",
    }
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}"
          f" passes={len(passes)} (1 warm-up) measured_s={measured_s:.1f}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print("pass walls " + " ".join(f"{p.wall:.3f}" for p in passes))
    if setup:
        print("setup probes " + " ".join(f"{t:.3f}" for t in setup))

    wall = statistics.median(p.wall for p in timed)
    if args.trace == 0:
        item_s = statistics.median(sum(p.seconds[o] for o in workload.item_ops) for p in timed)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": workload.items / item_s,
            "settled_frac": workload.settled(reference.outputs),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": f"median of {len(timed)} untraced passes",
            "items_per_s": workload.item_kind,
        }
    else:
        metrics = {
            name: (statistics.median(m[name] for m in layer_runs[1:])
                   if name not in layertrace.COUNT_METRICS else layer_runs[0][name])
            for name in layer_runs[0]
        }
        metrics["trace.wall_s"] = statistics.median(p.wall for p, _ in traced[1:])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        notes = {"trace.overhead_s": "traced minus untraced median pass,"
                 f" {len(traced) - 1} vs {len(timed)}"}
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "environment": env,
             "metrics": metrics, "last_pass": traced[-1][1].table()}, indent=1))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    declared = {m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    if declared != set(metrics):
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]:<6} {notes.get(name, '')}")
    print(f"  {'fail_frac':<40} {failed / attempted:>16.6g} {'frac':<6}"
          f" {failed} of {attempted} op runs failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
