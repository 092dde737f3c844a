"""Benchmark of steincalc: one seeded workload per run.

    python3 bench/run.py --workload planar-invariants|search|cli-docs
                         --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics of an
untraced run, with every time scaled to the reference speed of
bench/pace.py; with ``--trace 1`` the per-layer metrics of a run that
alternates untraced and traced passes.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads, metrics and observed noise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("planar-invariants", "search", "cli-docs")
RUN_LIMIT_S = 170  # the workload child is killed after this long
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def child(args):
    """Run bench/child.py and return the JSON object it prints last."""
    cmd = [sys.executable, str(BENCH / "child.py")] + args
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    rank = max(0, len(values) - TAIL_BEYOND - 1)
    return sorted(values)[rank], 100.0 * (rank + 1) / len(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the inputs (smoke test only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steincalc" / "__init__.py").is_file():
        print(f"bench: no steincalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = child(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--scale", str(args.scale), "--workdir", str(workdir)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in run["errors"]:
        print(f"bench: failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = run["layers"]
    else:
        slot_ms = run["slot_ms"]
        tail_ms, tail_pct = tail(slot_ms)
        values = {
            "setup_s": run["setup_s"],
            "ops_per_s": run["ops"] / run["scaled_timed_s"],
            "op_p50_ms": statistics.median(slot_ms),
            "op_tail_ms": tail_ms,
            "decided_ratio": run["decided"] / run["ops"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"{args.workload} seed {args.seed}: {run['slots']} distinct ops x {run['passes']} passes "
              f"= {run['ops']} timed ops in {run['timed_s']:.2f} s; setup_s median of {run['setup_samples']} processes; "
              f"op latencies are per-op medians over passes ({run['slots']} samples), "
              f"op_tail_ms is p{tail_pct:.1f}; {run['timeouts']} ops hit the per-op limit; "
              f"times are scaled to the reference speed (unscaled op p50 {run['raw_p50_ms']:.4g} ms)")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
