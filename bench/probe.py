"""One-off scaling probe, separate from the gated workloads.

    python3 bench/probe.py [--limit SECONDS]

Each point runs in its own child process under a time limit:
``filling_invariants`` on a seeded random planar word with n twists on the
8-holed sphere (split by the tracer into kernel, form SNF, signature, H1 and
Chern), and the repeated-letter containment probe
contains(x^k y x^k, y x^2k) with x, y overlapping without nesting.  Prints a
markdown table; bench/README.md records one.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INVARIANT_LENGTHS = (24, 84, 164, 324)
PROBE_KS = (5, 6, 7, 8, 9, 10)


def point(kind, size):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    from steincalc import invariants, words
    from steincalc.surfaces import Surface, convex_curve
    from steincalc.words import word_of

    if kind == "invariants":
        rng = random.Random(f"probe:{size}")
        surface = Surface(0, 8)
        curves = [convex_curve(surface, f"c{i}", rng.sample(range(2, 9), rng.randint(1, 7))) for i in range(size)]
        tracer = spans.Tracer()
        tracer.install()
        start = time.perf_counter()
        invariants.filling_invariants(word_of(surface, curves))
        total = time.perf_counter() - start
        tracer.uninstall()
        m = tracer.metrics(1)
        parts = {name: round(m[f"{name}_s"], 4) for name in
                 ("intlinalg.kernel", "intlinalg.snf", "intlinalg.signature", "invariants.h1", "invariants.chern")}
        return {"seconds": round(total, 4), "split": parts}
    surface = Surface(0, 4)
    x, y = convex_curve(surface, "x", {2, 3}), convex_curve(surface, "y", {3, 4})
    start = time.perf_counter()
    found = words.contains(word_of(surface, [x] * size + [y] + [x] * size), word_of(surface, [y] + [x] * (2 * size)))
    return {"seconds": round(time.perf_counter() - start, 4), "answer": "unknown" if found is None else "hit"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--limit", type=float, default=120)
    parser.add_argument("--point", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        print(json.dumps(point(args.point[0], int(args.point[1]))))
        return 0
    print("| point | size | seconds | detail |\n|---|---|---|---|")
    for kind, sizes in (("invariants", INVARIANT_LENGTHS), ("probe", PROBE_KS)):
        for size in sizes:
            cmd = [sys.executable, os.path.abspath(__file__), "--point", kind, str(size)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.limit)
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                detail = out.get("split") or out.get("answer")
                print(f"| {kind} | {size} | {out['seconds']} | {detail} |", flush=True)
            except subprocess.TimeoutExpired:
                print(f"| {kind} | {size} | > {args.limit:g} | stopped at the limit |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
