"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 bench/smoke_test.py        (or: python3 -m pytest bench/smoke_test.py)

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a tampered witness or report is counted as a failure, and that traced
and untraced passes give the same outputs.  At these sizes the time split
between layers means little, so only the call counts that separate the
workloads are checked.
"""

import dataclasses
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402

SCALE = 0.1
WORK = ROOT / ".bench_build"


def _tmp():
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def _ops(workload, tmp):
    return workloads.build(workload, 3, Path(tmp), workloads.load_golden(), SCALE)


def test_every_metric_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", str(SCALE)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _failures(ops):
    tally = child.Tally()
    child.run_pass(ops, tally, None)
    return tally.failed


def test_tampered_witness_is_a_failure():
    rng = random.Random(3)
    w, entry, _ = workloads.designed_word(rng, 7, 40, "ordered")
    target = entry.relator.inverse().left
    judge = workloads._contains_judge(w, target, entry.disjoint)
    witness = workloads._contains(w, target, entry.disjoint)

    def op(outcome):
        return workloads.Op("tamper", lambda: outcome, workloads._search_check("tamper", judge, None))

    assert _failures([op(witness)]) == 0
    keys = checks.letters(w)
    blocked = next(i for i in range(len(keys) - 1) if not checks.commute(keys[i][0], keys[i + 1][0], set()))
    tampered = [
        dataclasses.replace(witness, swaps=(blocked,) + witness.swaps),
        dataclasses.replace(witness, positions=witness.positions[::-1]),
        dataclasses.replace(witness, final_positions=tuple(p + 1 for p in witness.final_positions)),
    ]
    assert _failures([op(bad) for bad in tampered]) == len(tampered)


def test_tampered_report_is_a_failure():
    with _tmp() as tmp:
        planar = _ops("planar-invariants", tmp)[0]
        code, text = planar.run()
        report = json.loads(text)
        report["result"]["b2"] += 1
        bad_planar = dataclasses.replace(planar, run=lambda: (code, json.dumps(report)))
        cli = next(op for op in _ops("cli-docs", tmp) if op.key.startswith("invariants"))
        code2, text2 = cli.run()
        bad_cli = dataclasses.replace(cli, run=lambda: (code2, text2.replace("euler", "Euler")))
        assert _failures([planar, cli]) == 0
        assert _failures([bad_planar, bad_cli]) == 2


def test_traced_and_untraced_outputs_agree():
    split = {}
    with _tmp() as tmp:
        for workload in workloads.WORKLOADS:
            result = child.measure(_ops(workload, tmp), 0.0, trace=True)
            assert result["failed"] == 0, result["errors"]
            split[workload] = {name: m["value"] for name, m in result["layers"].items()}
    pi, search, docs = split["planar-invariants"], split["search"], split["cli-docs"]
    assert pi["words.contains_calls"] == pi["words.substitute_calls"] == 0
    assert search["intlinalg.snf_calls"] == 0 and search["words.contains_calls"] > 0
    assert docs["document.self_s"] + docs["cli.main_s"] > docs["intlinalg.self_s"]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
