"""Run every workload untraced and traced, and record the results.

    python3 perfbench/suite.py [--seed 1]

For each workload this makes one untraced and one traced run of run.py,
prints every metric by name with its unit, and fails when a run's
correctness checks fail. It rewrites BENCHMARK.json from spec.py and writes
perfbench/record.json: the machine fingerprint, each workload's metrics,
its tracing overhead, which end-to-end metric each layer should move, and
the workloads left out, with the reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spec

def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, check=False,
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: correctness checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def fingerprint() -> dict:
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        r = run.Run(Path(tmp))
        out = Path(tmp) / "fingerprint.json"
        if r.child(run.child_py("fingerprint", "--result", str(out))).rc != 0:
            raise SystemExit("fingerprint child failed")
        doc = json.loads(out.read_text(encoding="utf-8"))
    doc["env"] = run.THREAD_ENV
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    (run.ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
    record = {"seed": args.seed, "run_seconds": spec.RUN_SECONDS,
              "fingerprint": fingerprint(), "workloads": {},
              "dropped_workloads": spec.DROPPED_WORKLOADS}
    for workload, info in spec.WORKLOADS.items():
        end_to_end = bench(workload, args.seed, 0)
        per_layer = bench(workload, args.seed, 1)
        record["workloads"][workload] = {
            "why": info["why"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "tracing_overhead_s": {"experiment": per_layer["trace.overhead_s"],
                                   "serve": per_layer["serve.overhead_s"]},
        }
    record["end_to_end"] = {name: {"unit": u, "better": b, "bound": bound, "meaning": what}
                            for name, (u, b, bound, what) in spec.END_TO_END.items()}
    record["per_layer"] = {name: {"unit": u, "what": what, "moves": moves}
                           for name, (u, _, what, moves) in spec.PER_LAYER.items()}
    (run.HERE / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
