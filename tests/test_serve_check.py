"""The benchmark's serve check accepts a true re-ranking and catches wrong ones.

perfbench's serve child checks sampled re-ranked lists against an
independent numpy forward pass over full-width feature rows
(`child.check_served`). It reads `Ranking.entries`, the entries' `doc_id`
and `score`, and `ScoringContext.features`, so a change to any of them
that breaks the check fails here, in the test suite, instead of only in
perfbench's own tests.
"""

from rankforge.data import Ranking
from rankforge.evaluation import rerank
from rankforge.retrieval import Bm25Params, retrieve_topk
from rankforge.scorer import ScorerConfig, ScoringContext, init_params, save_params


def test_check_served(child, small_world):
    w = small_world
    depth = child.spec.DEPTH
    params = init_params(ScorerConfig(buckets=64, hidden=8, seed=5))
    ctx = ScoringContext(w.corpus, w.index, Bm25Params(), params.buckets)
    served = []
    for query in w.queries:
        first = retrieve_topk(w.index, Bm25Params(), query, depth)
        served.append((query, first, rerank(params, ctx, query, first, depth)))
    blob = save_params(params)
    assert child.check_served(served, ctx, blob) == []

    params.b2 += 1.0
    shifted = child.check_served(served, ctx, save_params(params))
    assert len(shifted) == len(served)
    assert all("scores differ" in e for e in shifted)

    query, first, ranked = served[0]
    dropped = Ranking(ranked.query_id, ranked.entries[:-1])
    errors = child.check_served([(query, first, dropped)], ctx, blob)
    assert errors == [f"{query.id}: re-ranked list is not a permutation "
                      f"of the first-stage top {depth}"]
