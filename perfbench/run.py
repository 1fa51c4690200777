"""rankforge benchmark: one workload, one run.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Every workload generates its dataset from `--seed` with
`rankforge synth --noise 0.0` (see spec.py) and runs these phases on it,
each child in a fresh process with RANKFORGE_THREADS=1 and one BLAS thread:

* experiment: `python -m rankforge.cli experiment` on the default config;
* serve: retrieve_topk then evaluation.rerank for every query with a fixed
  checkpoint, one closed-loop client, in whole passes over the queries
  until 500 latencies (1,000 in a traced run).

A timed run repeats cycles of set-up and serve, with an experiment between
two serve processes on `reference`, at least twice, and then starts each
next step while it is predicted to end within half that step of
`--seconds`.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of one traced experiment and one
traced serve process, and the overhead against an untraced twin of each.
Correctness checks run outside the timed sections. Generated data,
artifacts and traces live in a temporary directory under
`.perfbench_tmp/`, removed before exit. The process exits 2 without a
result when the checkout has no `src/rankforge`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150

PLANS = ("C", "D", "C->D", "D->C")
PLAN_FILES = ("params.bin", "train.csv", "val.csv", "rerank.txt", "metrics.csv")
EXPECTED_ARTIFACTS = frozenset(
    ["first_stage.txt", "bm25/metrics.csv", "untrained/rerank.txt",
     "untrained/metrics.csv", "rq1.md", "rq2.md", "rq3.md", "summary.json"]
    + [f"{p.replace('->', '-to-')}/{f}" for p in PLANS for f in PLAN_FILES]
)


# one worker thread everywhere: RANKFORGE_THREADS as in gate test_07, and
# one BLAS thread, which leaves the artifacts byte-identical and steadies
# timings on a 2-vCPU machine
THREAD_ENV = {"RANKFORGE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(THREAD_ENV)
    return env


@dataclass
class Proc:
    wall_s: float
    rss_mb: float  # this child's own peak, from wait4
    rc: int
    stderr: str


@dataclass
class Run:
    tmp: Path
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _children: int = 0

    def child(self, argv: list[str]) -> Proc:
        """Run one child to completion and read its own rusage."""
        self._children += 1
        err_path = self.tmp / f"stderr{self._children}.txt"
        with open(err_path, "w+b") as err:
            began = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=child_env(), cwd=self.tmp)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - began
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            text = err.read().decode("utf-8", "replace")[-2000:]
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, text)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def op(self, proc: Proc, what: str) -> bool:
        """Count one attempted operation; record it failed on a non-zero exit."""
        self.attempted += 1
        if proc.rc != 0:
            self.failed += 1
            self.errors.append(f"{what} exited {proc.rc}: {proc.stderr.strip()}")
        return proc.rc == 0


def tree_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def child_py(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def setup(run: Run, workload: str, seed: int, directory: Path, trace: Path | None = None) -> Proc:
    argv = child_py("setup", "--workload", workload, "--seed", str(seed),
                    "--dir", str(directory))
    proc = run.child(argv + (["--trace", str(trace)] if trace else []))
    run.op(proc, "set-up")
    return proc


def experiment(run: Run, base: Path, out: Path, trace: Path | None = None):
    """One experiment process; returns it with its artifact digests (None on failure)."""
    config = str(base / "exp.json")
    if trace is None:
        argv = [sys.executable, "-m", "rankforge.cli", "experiment", "--config", config,
                "--out", str(out)]
    else:
        argv = child_py("experiment", "--config", config, "--out", str(out),
                        "--trace", str(trace))
    proc = run.child(argv)
    if not run.op(proc, "experiment"):
        return proc, None
    digests = tree_digests(out)
    missing = EXPECTED_ARTIFACTS - set(digests)
    extra = set(digests) - EXPECTED_ARTIFACTS
    run.check(not missing and not extra,
              f"artifact set differs: missing {sorted(missing)}, unexpected {sorted(extra)}")
    return proc, digests


def ndcg10_best(out: Path) -> float:
    means = json.loads((out / "summary.json").read_text(encoding="utf-8"))["means"]
    return max(means[p]["nDCG@10"] for p in PLANS)


def serve(run: Run, base: Path, result: Path, queries: int, trace: Path | None = None):
    """One serve process; returns it with its result (None on failure)."""
    argv = child_py("serve", "--data", str(base / "data"), "--checkpoint",
                    str(base / "checkpoint.bin"), "--queries", str(queries),
                    "--result", str(result))
    proc = run.child(argv + (["--trace", str(trace)] if trace else []))
    if proc.rc != 0:
        run.op(proc, "serve process")
        return proc, None
    out = json.loads(result.read_text(encoding="utf-8"))
    run.attempted += len(out["latencies_ms"])
    for e in out["errors"]:
        run.check(False, f"serve: {e}")
    return proc, out


def same_digests(run: Run, digests: list[dict], what: str) -> None:
    for i, d in enumerate(digests[1:], 1):
        changed = sorted(k for k in d.keys() | digests[0].keys() if d.get(k) != digests[0].get(k))
        run.check(not changed, f"{what} {i} differs from {what} 0 in {changed[:5]}")


def measure(run: Run, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off.

    The machine's speed drifts by tens of percent over seconds, so the
    phases take turns for the whole run and every metric is a median over
    all of its samples: each samples the whole run. A cycle is a set-up and
    a serve process, with an experiment between two serve processes if the
    workload times one. After the first two cycles, the next step starts
    only while it is predicted to end within half its median duration of
    `seconds`, which keeps the run length near `seconds` whatever the
    machine's speed.
    """
    timed_experiment = spec.WORKLOADS[workload]["experiment"]
    base = run.tmp / "setup"
    proc = setup(run, workload, seed, base)
    if proc.rc != 0:
        return {}
    setups, inputs = [proc.wall_s], [tree_digests(base)]
    walls, rss, digests, rates, latencies, serve_rss = [], [], [], [], [], []

    def setup_step() -> bool:
        again = run.tmp / "setup-again"
        proc = setup(run, workload, seed, again)
        if proc.rc != 0:
            return False
        setups.append(proc.wall_s)
        inputs.append(tree_digests(again))
        shutil.rmtree(again)
        return True

    def serve_step() -> bool:
        proc, served = serve(run, base, run.tmp / "serve.json", spec.SERVE_QUERIES)
        if served is None:
            return False
        rates.append(len(served["latencies_ms"]) / served["loop_s"])
        latencies.extend(served["latencies_ms"])
        serve_rss.append(proc.rss_mb)
        if not timed_experiment:
            walls.append(proc.wall_s)
            rss.append(proc.rss_mb)
        return True

    def experiment_step() -> bool:
        out = run.tmp / "out"
        proc, d = experiment(run, base, out)
        if d is None:
            return False
        walls.append(proc.wall_s)
        rss.append(proc.rss_mb)
        digests.append(d)
        shutil.rmtree(out)
        return True

    cycle = [setup_step, serve_step] + ([experiment_step, serve_step] if timed_experiment else [])
    durations = {step: [] for step in cycle}
    began = time.perf_counter()
    for i in itertools.count():
        step = cycle[i % len(cycle)]
        if i >= spec.MIN_CYCLES * len(cycle) and (
                time.perf_counter() - began + statistics.median(durations[step]) / 2 > seconds):
            break
        step_began = time.perf_counter()
        if not step():
            return {}
        durations[step].append(time.perf_counter() - step_began)
    same_digests(run, inputs, "set-up")
    same_digests(run, digests, "experiment")

    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "queries_per_s": statistics.median(rates),
        "query_p50_ms": statistics.median(latencies),
        "serve_peak_rss_mb": statistics.median(serve_rss),
    }


def trace_layers(run: Run, workload: str, seed: int) -> dict[str, float]:
    """Per-layer metrics from one traced set-up, experiment and serve process."""
    base = run.tmp / "setup0"
    if setup(run, workload, seed, base, trace=run.tmp / "setup.trace").rc != 0:
        return {}
    setup_trace = json.loads((run.tmp / "setup.trace").read_text(encoding="utf-8"))

    plain, d0 = experiment(run, base, run.tmp / "exp-plain")
    traced, d1 = experiment(run, base, run.tmp / "exp-traced", trace=run.tmp / "exp.trace")
    if d0 is None or d1 is None:
        return {}
    same_digests(run, [d0, d1], "traced experiment")
    exp_trace = json.loads((run.tmp / "exp.trace").read_text(encoding="utf-8"))

    n = spec.TRACE_SERVE_QUERIES
    plain_serve, s0 = serve(run, base, run.tmp / "serve-plain.json", n)
    traced_serve, s1 = serve(run, base, run.tmp / "serve-traced.json", n,
                             trace=run.tmp / "serve.trace")
    if s0 is None or s1 is None:
        return {}
    serve_trace = json.loads((run.tmp / "serve.trace").read_text(encoding="utf-8"))

    metrics, errors = layers.derive(exp_trace)
    served, serve_errors = layers.derive(serve_trace)
    generated, setup_errors = layers.derive(setup_trace)
    for e in errors + serve_errors + setup_errors:
        run.check(False, e)
    metrics["synth.generate_s"] = generated["synth.generate_s"]
    metrics["experiment.artifact_bytes"] = sum(
        p.stat().st_size for p in (run.tmp / "exp-traced").rglob("*") if p.is_file()
    )
    metrics["ndcg10_best"] = ndcg10_best(run.tmp / "exp-plain")
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics.update({name: served[src] for name, src in layers.SERVE_METRICS.items()})
    metrics["serve.overhead_s"] = traced_serve.wall_s - plain_serve.wall_s
    metrics["serve.query_p99_ms"] = statistics.quantiles(s0["latencies_ms"], n=100)[98]
    return {name: metrics[name] for name in spec.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rankforge" / "__init__.py").is_file():
        print(f"perfbench: no rankforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the clean-up below, which also kills a child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run = Run(Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)))
    try:
        if args.trace:
            values, table = trace_layers(run, args.workload, args.seed), spec.PER_LAYER
        else:
            values, table = measure(run, args.workload, args.seed, args.seconds), spec.END_TO_END
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    for e in run.errors:
        print(f"check failed: {e}")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value} {table[name][0]}")
    result = {
        "correct": not run.errors and bool(values),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": table[name][0]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
