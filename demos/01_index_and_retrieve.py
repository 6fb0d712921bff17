"""Build the toy index, look at collection statistics, retrieve, score AP.

Run from the repository root:  python3 demos/01_index_and_retrieve.py
"""

from pathlib import Path

from qppfuse import (
    average_precision,
    build_index,
    ingest,
    load_qrels,
    load_queries,
    retrieve,
)

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"

# ---------------------------------------------------------------------------
# The bundled corpus: 50 short documents over five topics, JSONL format.
docs = ingest(TOY / "docs.jsonl", "jsonl")
index = build_index(docs)

print(f"documents        : {index.n_docs}")
print(f"total tokens |C| : {index.total_tokens}")
print(f"vocabulary       : {len(index.terms)} terms")

# Collection statistics drive everything downstream. A couple of examples:
for term in ("galaxy", "bread", "culture"):
    print(f"  df({term}) = {index.df[term]:2d}   cf({term}) = {index.cf[term]:2d}")

# ---------------------------------------------------------------------------
# Query-likelihood retrieval with Dirichlet smoothing (mu = 1000).
queries = load_queries(TOY / "queries.tsv")
qrels = load_qrels(TOY / "qrels.txt")

print("\nquery            top-3 documents                    AP")
for query in queries[:6]:
    ranked = retrieve(index, query, k=1000, mu=1000.0)
    ap = average_precision(ranked, qrels)
    top = ", ".join(f"{d}({s:.2f})" for d, s in ranked.entries[:3])
    print(f"{query.query_id} {' '.join(query.terms):<22} {top:<35} {ap:.4f}")

# The log-scores are query log-likelihoods, so they are negative and
# comparable only within one query's list.
