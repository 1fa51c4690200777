"""Fine-tune the scorer with contrastive loss and re-rank a BM25 run.

Everything happens in memory on a generated dataset: retrieve, sample hard
negatives, run one training stage, then compare nDCG@10 before and after.
"""

from rankforge.data import parse_corpus, parse_qrels, parse_queries, parse_teacher
from rankforge.evaluation import MetricReport, MetricSpec, compute_metric, rerank
from rankforge.retrieval import Bm25Params, build_index, retrieve_topk
from rankforge.scorer import ScorerConfig, ScoringContext, init_params
from rankforge.synth import SynthSpec, generate
from rankforge.training import (
    QueryExample,
    SamplerConfig,
    StageConfig,
    run_plan,
    split_train_val,
)

spec = SynthSpec(vocab_size=800, topics=4, docs_per_topic=25,
                 queries=40, noise=0.0, seed=3)
dataset = generate(spec)
corpus = parse_corpus(dataset.corpus_tsv)
queries = parse_queries(dataset.queries_tsv)
qrels = parse_qrels(dataset.qrels_txt)
teachers = {t.query_id: t for t in parse_teacher(dataset.teacher_jsonl)}
print(f"generated {len(corpus)} docs, {len(queries)} queries")

index = build_index(corpus)
bm25 = Bm25Params()
rankings = {q.id: retrieve_topk(index, bm25, q, k=50) for q in queries}

scorer_config = ScorerConfig(buckets=64, hidden=8, seed=0)
ctx = ScoringContext(corpus, index, bm25, buckets=scorer_config.buckets)

train_queries, val_queries = split_train_val(queries, fraction=0.1, seed=1)


def to_example(q):
    return QueryExample(
        query=q,
        judged=qrels.by_query.get(q.id),
        ranking=rankings[q.id],
        teacher=teachers.get(q.id),
    )


plan = (
    StageConfig(
        loss="lce",
        lr=1e-3,
        max_steps=400,
        val_interval=100,
        sampler=SamplerConfig(negatives=10, pool_depth=40),
    ),
)
params, logs = run_plan(
    scorer_config, plan,
    [to_example(q) for q in train_queries],
    [to_example(q) for q in val_queries],
    ctx,
)
log = logs[0]
print(f"trained {len(log.losses)} steps in {log.wall_seconds:.1f}s; "
      f"loss {log.losses[0]:.3f} -> {log.losses[-1]:.3f}")
for step, val_loss in log.val:
    print(f"  val @ step {step}: {val_loss:.3f}")

ndcg = MetricSpec("ndcg", cutoff=10)
untrained = init_params(scorer_config)


def mean_ndcg(p) -> float:
    values = {}
    for q in queries:
        reranked = rerank(p, ctx, q, rankings[q.id], depth=50)
        values[q.id] = compute_metric(reranked, qrels, ndcg)
    return MetricReport.from_values("nDCG@10", values).mean


before = mean_ndcg(untrained)
after = mean_ndcg(params)
print(f"\nnDCG@10 with untrained scorer: {before:.4f}")
print(f"nDCG@10 after fine-tuning:     {after:.4f}  ({after - before:+.4f})")
