"""One workload run in a fresh, single-threaded process.

Usage (run.py starts this; it is not meant to be run by hand):
    python3 bench/child.py --setup-only
    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

The first thing this process does is time ``import steincalc.cli`` plus
``builtin_entries()``, scaled to the reference speed of bench/pace.py: that
is one sample of ``setup_s``.  It then builds the workload's ops, runs one
warm-up op, and repeats whole passes over the ops until about ``--seconds``
have gone by.  Each op of an untraced pass is bracketed by reference loops,
and its time is scaled as well.  With ``--trace 1`` it alternates
untraced and traced passes.  The last line of standard output is a JSON
object that run.py reads.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pace  # noqa: E402

_loop_before = pace.steady_loop_s()
_start = time.perf_counter()
import steincalc.cli  # noqa: E402
from steincalc.relators import builtin_entries  # noqa: E402

builtin_entries()
SETUP_RAW_S = time.perf_counter() - _start
SETUP_S = pace.scale(SETUP_RAW_S, _loop_before, pace.steady_loop_s())

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

OP_LIMIT_S = 20  # an op still running after this long is stopped and counted undecided
SETUP_SAMPLES = 12  # setup_s is the median of this process's set-up and 11 fresh ones


def setup_probe():
    """Set-up time of a fresh process, which runs this file with --setup-only."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only"],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)["setup_s"]


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` in the
    program turns it into an ordinary error."""


def _alarm(signum, frame):
    raise OpTimeout()


class Tally:
    """Outcomes of the ops run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.timeouts = 0
        self.errors = []

    def add(self, verdict, timed=True):
        self.attempted += 1
        if verdict.error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(verdict.error)
        if verdict.decided and timed:
            self.decided += 1


def run_op(op, tracer=None):
    """Run one op under the per-op limit; return (seconds, verdict)."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = time.perf_counter()
    try:
        outcome = op.run() if tracer is None else tracer.run_op(op.key, op.run)
    except OpTimeout:
        return time.perf_counter() - start, workloads.Verdict(None, False, "timeout")
    except Exception as exc:  # an unexpected error is a failed op, not a crash
        return time.perf_counter() - start, workloads.Verdict(f"{op.key}: raised {exc!r}", False, "raised")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    return elapsed, op.check(outcome)


def run_pass(ops, tally, latencies, tracer=None, between_ops=None):
    """One pass over every op; returns {key: answer} and the timed seconds.
    With ``latencies``, each op is bracketed by reference loops and its
    (measured, scaled) seconds are appended to ``latencies[op.key]``."""
    answers = {}
    timed = 0.0
    loop = pace.loop_s() if latencies is not None else None
    for op in ops:
        seconds, verdict = run_op(op, tracer)
        if latencies is not None:
            loop_after = pace.loop_s()
            latencies.setdefault(op.key, []).append((seconds, pace.scale(seconds, loop, loop_after)))
            loop = loop_after
        if between_ops is not None and between_ops() and latencies is not None:
            loop = pace.loop_s()
        timed += seconds
        tally.add(verdict)
        if verdict.answer == "timeout":
            tally.timeouts += 1
        answers[op.key] = verdict.answer
    return answers, timed


def measure(ops, seconds, trace, spans_path=None):
    """Warm up, then run whole passes for about ``seconds``.  An untraced
    run also times set-up in fresh processes, spread over the run between
    ops, since the machine's speed drifts within a run."""
    tally = Tally()
    tally.add(run_op(ops[0])[1], timed=False)
    latencies = {}
    tracer = None
    setups = [SETUP_S]
    if trace:
        import spans

        tracer = spans.Tracer()
    untraced_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()

    def between_ops():
        """Time one fresh process's set-up when one is due; True if it did."""
        due = len(setups) * seconds / SETUP_SAMPLES
        if not trace and len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= due:
            setups.append(setup_probe())
            return True
        return False

    while True:
        answers, timed = run_pass(ops, tally, latencies, between_ops=between_ops)
        untraced_s += timed
        if tracer is not None:
            tracer.install()
            try:
                traced_answers, timed = run_pass(ops, tally, None, tracer)
            finally:
                tracer.uninstall()
            traced_s += timed
            for key, answer in answers.items():
                if traced_answers[key] != answer:
                    tally.add(workloads.Verdict(f"{key}: traced output {traced_answers[key]} != {answer}", False, ""))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe())
    slot_s = sorted(statistics.median(s for _, s in v) for v in latencies.values())
    raw_slot_s = sorted(statistics.median(m for m, _ in v) for v in latencies.values())
    result = {
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "passes": rounds,
        "slots": len(ops),
        "ops": rounds * len(ops),
        "timed_s": untraced_s,
        "scaled_timed_s": sum(s for v in latencies.values() for _, s in v),
        "slot_ms": [s * 1000 for s in slot_s],
        "raw_p50_ms": statistics.median(raw_slot_s) * 1000,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "decided": tally.decided,
        "timeouts": tally.timeouts,
        "errors": tally.errors,
    }
    if tracer is not None:
        layers = tracer.metrics(rounds)
        layers["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        layers["failed_ratio"] = tally.failed / tally.attempted
        result["layers"] = {name: {"value": layers[name], "unit": unit} for name, unit in spans.UNITS.items()}
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    out = {"setup_s": SETUP_S}
    if not args.setup_only:
        signal.signal(signal.SIGALRM, _alarm)
        ops = workloads.build(args.workload, args.seed, args.workdir, workloads.load_golden(), args.scale)
        spans_path = args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
        out.update(measure(ops, args.seconds, args.trace, spans_path))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
