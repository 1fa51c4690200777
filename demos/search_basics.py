"""Index a handful of documents and run BM25 queries against them."""

from rankforge.data import Query, parse_corpus
from rankforge.retrieval import Bm25Params, bm25_score, build_index, retrieve_topk

CORPUS_TSV = """\
d1\tthe cat sat on the mat
d2\tthe dog chased the cat around the yard
d3\ta bird sang in the old oak tree
d4\tcat cat cat everywhere a cat
d5\tdogs and birds share the quiet park
d6\tthe mat was left out in the rain
"""

corpus = parse_corpus(CORPUS_TSV)
index = build_index(corpus)
params = Bm25Params()  # k1=0.9, b=0.4

print(f"indexed {len(corpus)} documents, "
      f"{len(index.terms)} distinct terms, "
      f"avg length {index.avg_doc_length:.2f} tokens\n")

for text in ("cat on a mat", "dog park", "singing bird"):
    ranking = retrieve_topk(index, params, Query("q", text), k=3)
    print(f"query: {text!r}")
    for e in ranking.entries:
        print(f"  {e.rank}. {e.doc_id}  score={e.score:.4f}  | {corpus[e.doc_id]}")
    print()

# scoring a single (query, document) pair directly
one = bm25_score(index, params, ["cat", "mat"], "d1")
print(f"bm25(['cat', 'mat'], d1) = {one:.4f}")

# term repetition in the query scales that term's contribution
two = bm25_score(index, params, ["cat", "cat"], "d1")
print(f"bm25(['cat', 'cat'], d1) = {two:.4f}  (double weight on 'cat')")
