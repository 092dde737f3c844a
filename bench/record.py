"""Record the reference answers that later runs are compared with.

    python3 bench/record.py

Writes bench/golden.json: for the default seed, the report digest of every
planar-invariants op and the hit/unknown answer of every search op; for
cli-docs, the exit code and report digest of every op in the universe of
generator documents and family sweeps (these do not depend on the seed).
Run it only at a commit whose outputs are known to be right.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def answers(workload, workdir):
    out = {}
    for op in workloads.build(workload, workloads.DEFAULT_SEED, workdir, None):
        verdict = op.check(op.run())
        if verdict.error is not None:
            raise SystemExit(f"refusing to record a failing op: {verdict.error}")
        out[op.key] = verdict.answer
    return out


def main():
    golden = {"seed": workloads.DEFAULT_SEED}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        for workload in ("planar-invariants", "search"):
            golden[workload] = answers(workload, Path(tmp))
    golden["cli-docs"] = {}
    for _, command, flags in workloads.cli_universe(workloads.cli_documents()):
        code, text = workloads.run_cli(command + flags)
        golden["cli-docs"][" ".join(command + flags)] = [code, workloads.digest(text)]
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in golden.values() if isinstance(v, dict))} answers")


if __name__ == "__main__":
    os.makedirs(ROOT / ".bench_build", exist_ok=True)
    main()
