"""Compare ranking systems with paired t-tests and a marked-up table.

Two quick fine-tunes (contrastive and distillation) are evaluated against
the BM25 baseline; the table bolds pairwise winners and flags significance.
"""

from rankforge.data import parse_corpus, parse_qrels, parse_queries, parse_teacher
from rankforge.evaluation import (
    MetricSpec,
    SystemResult,
    build_table,
    evaluate_run,
    paired_ttest,
    rerank,
)
from rankforge.retrieval import Bm25Params, build_index, retrieve_topk
from rankforge.sampling import SamplerConfig
from rankforge.scorer import ScorerConfig, ScoringContext
from rankforge.synth import SynthSpec, generate
from rankforge.training import QueryExample, StageConfig, run_plan

spec = SynthSpec(vocab_size=800, topics=4, docs_per_topic=25,
                 queries=40, noise=0.0, seed=5)
dataset = generate(spec)
corpus = parse_corpus(dataset.corpus_tsv)
queries = parse_queries(dataset.queries_tsv)
qrels = parse_qrels(dataset.qrels_txt)
teachers = {t.query_id: t for t in parse_teacher(dataset.teacher_jsonl)}

index = build_index(corpus)
bm25 = Bm25Params()
rankings = {q.id: retrieve_topk(index, bm25, q, k=50) for q in queries}
scorer_config = ScorerConfig(buckets=64, hidden=8, seed=0)
ctx = ScoringContext(corpus, index, bm25, buckets=scorer_config.buckets)

examples = [
    QueryExample(q, qrels.by_query.get(q.id), rankings[q.id], teachers.get(q.id))
    for q in queries
]
train, val = examples[4:], examples[:4]

stages = {
    "contrastive": StageConfig("lce", lr=1e-3, max_steps=1500, val_interval=500,
                               sampler=SamplerConfig(negatives=10, pool_depth=40)),
    "distilled": StageConfig("ranknet", lr=1e-3, max_steps=1500, val_interval=500),
}
specs = [MetricSpec("ap"), MetricSpec("ndcg", cutoff=10)]


def evaluate(run_rankings) -> dict:
    return {s.label: evaluate_run(run_rankings, qrels, s) for s in specs}


systems = [SystemResult("bm25", evaluate(list(rankings.values())))]
for name, stage in stages.items():
    params, _ = run_plan(scorer_config, (stage,), train, val, ctx)
    reranked = [rerank(params, ctx, q, rankings[q.id], depth=50) for q in queries]
    systems.append(SystemResult(name, evaluate(reranked)))
    print(f"trained {name}")

baseline, variants = systems[0], systems[1:]
table = build_table(baseline, variants, pairings=[("contrastive", "distilled")])
print()
print(table.to_markdown())
print("bold: best of the paired systems; *: significant within the pair;")
print("dagger: significant vs baseline; arrow: mean below baseline\n")

a, b = variants[0].reports["nDCG@10"], variants[1].reports["nDCG@10"]
res = paired_ttest(a, b)
print(f"contrastive vs distilled on nDCG@10: "
      f"t={res.t:.3f}, df={res.df}, p={res.p:.4f}, "
      f"{'significant' if res.significant else 'not significant'} at 0.01")
