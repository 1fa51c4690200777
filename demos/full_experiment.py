"""Run the complete experiment pipeline through the library API.

Generates a dataset, writes a config with short training plans, and lets
run_experiment handle retrieval, the four plans, evaluation, and reports.
"""

import json
import tempfile
from pathlib import Path

from rankforge.experiment import load_config, run_experiment
from rankforge.synth import SynthSpec, generate, write_dataset

LCE = {"loss": "lce", "lr": 1e-3, "steps": 200}
RANKNET = {"loss": "ranknet", "lr": 1e-3, "steps": 200}

with tempfile.TemporaryDirectory() as scratch:
    root = Path(scratch)
    spec = SynthSpec(vocab_size=800, topics=4, docs_per_topic=25,
                     queries=40, noise=0.0, seed=9)
    write_dataset(generate(spec), root / "data")

    config = {
        "corpus": "data/corpus.tsv",
        "queries": "data/queries.tsv",
        "qrels": "data/qrels.txt",
        "teacher": "data/teacher.jsonl",
        "first_stage": "build",
        "out": "out",
        "seed": 42,
        "plans": {
            "C": [LCE],
            "D": [RANKNET],
            "C->D": [LCE, {"loss": "ranknet", "lr": 1e-4, "steps": 100}],
            "D->C": [RANKNET, dict(LCE, steps=100, lr=1e-4)],
        },
    }
    (root / "exp.json").write_text(json.dumps(config), encoding="utf-8")

    summary = run_experiment(load_config(root / "exp.json"))

    q = summary["queries"]
    print(f"queries: {q['train']} train, {q['val']} val, {q['eval']} held out")
    print("mean nDCG@10 by system:")
    for label, means in sorted(summary["means"].items()):
        print(f"  {label:10s} {means['nDCG@10']:.4f}")
    print(f"best single-stage plan: {summary['best_single']}")
    print(f"best multi-stage plan:  {summary['best_multi']}")

    print("\n--- rq1.md ---")
    print((root / "out" / "rq1.md").read_text(encoding="utf-8"))
