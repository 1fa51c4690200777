"""The benchmark's child processes. run.py starts each in a fresh process
with `src` on PYTHONPATH and reads its rusage; none is meant to be run by
hand.

    child.py setup --workload W --seed N --dir D [--trace F]
    child.py experiment --config C --out O --trace F
    child.py serve --data D --checkpoint C --queries N --result R [--trace F]
    child.py fingerprint --result R
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import struct
import sys
import time
from pathlib import Path

import numpy as np

import layers
import spec
from spans import Tracer

CHECK_EVERY = 10  # serve checks every 10th query, after the timed loop


def _tracer(args, phase: str, relevant: set | None = None):
    if not args.trace:
        return None, contextlib.nullcontext()
    tracer = Tracer(f"{phase}:{Path(args.trace).stem}")
    layers.install(tracer, phase, relevant)
    return tracer, tracer.root()


def _finish(tracer, args) -> None:
    if tracer is not None:
        tracer.restore()
        tracer.dump(Path(args.trace))


def cmd_setup(args) -> int:
    from rankforge import cli
    from rankforge.scorer import ScorerConfig, init_params, save_params

    root = Path(args.dir)
    tracer, traced = _tracer(args, "setup")
    with traced:
        rc = cli.main(["synth", "--out", str(root / "data"), "--seed", str(args.seed),
                       "--noise", "0.0", *spec.WORKLOADS[args.workload]["synth"]])
        config = {
            "corpus": "data/corpus.tsv", "queries": "data/queries.tsv",
            "qrels": "data/qrels.txt", "teacher": "data/teacher.jsonl",
            "first_stage": "build", "out": "out", "seed": args.seed,
        }
        (root / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        ckpt = save_params(init_params(ScorerConfig(seed=args.seed)))
        (root / "checkpoint.bin").write_bytes(ckpt)
    _finish(tracer, args)
    return rc


def cmd_experiment(args) -> int:
    from rankforge import cli

    qrels = Path(args.config).parent / "data" / "qrels.txt"
    relevant = layers.judged_relevant(qrels.read_text(encoding="utf-8"))
    tracer, traced = _tracer(args, "experiment", relevant)
    with traced:
        rc = cli.main(["experiment", "--config", args.config, "--out", args.out])
    _finish(tracer, args)
    return rc


def read_checkpoint(blob: bytes):
    """w1, b1, w2, b2 from an RFCP checkpoint, read apart from rankforge."""
    magic, _version, buckets, hidden = struct.unpack_from("<4sHII", blob)
    if magic != b"RFCP":
        raise ValueError(f"bad checkpoint magic {magic!r}")
    f = buckets + 6
    vals = np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<4sHII"))
    w1 = vals[: hidden * f].reshape(hidden, f)
    rest = vals[hidden * f:]
    return w1, rest[:hidden], rest[hidden: 2 * hidden], float(rest[2 * hidden])


def check_served(sampled, ctx, blob: bytes) -> list[str]:
    """Each re-ranked list is a permutation of the first-stage top DEPTH, in
    non-increasing score order, with scores equal to an independent numpy
    w2 . tanh(W1 x + b1) + b2 per document."""
    w1, b1, w2, b2 = read_checkpoint(blob)
    errors = []
    for query, first, ranked in sampled:
        head = [e.doc_id for e in first.entries[: spec.DEPTH]]
        docs = [e.doc_id for e in ranked.entries]
        if sorted(docs) != sorted(head):
            errors.append(f"{query.id}: re-ranked list is not a permutation "
                          f"of the first-stage top {spec.DEPTH}")
            continue
        got = np.array([e.score for e in ranked.entries])
        want = np.array([w2 @ np.tanh(w1 @ ctx.features(query, d) + b1) + b2 for d in docs])
        if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
            errors.append(f"{query.id}: scores differ from the reference forward pass")
        if np.any(np.diff(got) > 0):
            errors.append(f"{query.id}: scores are not in non-increasing order")
    return errors


def cmd_serve(args) -> int:
    """Load, then timed passes over every query until `--queries`
    latencies. Each pass starts a new ScoringContext, so every (query, doc)
    feature key is new."""
    from rankforge import data, evaluation, retrieval, scorer

    root = Path(args.data)
    blob = Path(args.checkpoint).read_bytes()
    bm25 = retrieval.Bm25Params()
    tracer, traced = _tracer(args, "serve")
    with traced:
        corpus = data.parse_path(root / "corpus.tsv", data.parse_corpus)
        queries = data.parse_path(root / "queries.tsv", data.parse_queries)
        index = retrieval.build_index(corpus)
        params = scorer.load_params(blob)
        latencies, loop_s = [], 0.0
        while len(latencies) < args.queries:
            ctx = scorer.ScoringContext(corpus, index, bm25, params.buckets)
            sampled = []
            began = time.perf_counter()
            for i, query in enumerate(queries):
                t = time.perf_counter()
                first = retrieval.retrieve_topk(index, bm25, query, spec.DEPTH)
                ranked = evaluation.rerank(params, ctx, query, first, spec.DEPTH)
                latencies.append(time.perf_counter() - t)
                if i % CHECK_EVERY == 0:
                    sampled.append((query, first, ranked))
            loop_s += time.perf_counter() - began
    _finish(tracer, args)
    result = {"loop_s": loop_s, "latencies_ms": [1e3 * t for t in latencies],
              "errors": check_served(sampled, ctx, blob)}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cmd_fingerprint(args) -> int:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_experiment)
    p = sub.add_parser("serve")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_serve)
    p = sub.add_parser("fingerprint")
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_fingerprint)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
