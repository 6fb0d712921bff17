"""Post-retrieval predictors: relevance models, Clarity, WIG, NQC, UEF.

These read the retrieved ranked list, so they see how well the query
actually separated the collection.

Run from the repository root:  python3 demos/03_post_retrieval_predictors.py
"""

from pathlib import Path

import numpy as np

from qppfuse import build_index, ingest, load_queries, retrieve, rm1
from qppfuse.post_retrieval import POST_PREDICTORS, compute_post_scores

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"
DEPTHS = dict(k_fb=10, wig_k=5, nqc_k=10, uef_m=10)

index = build_index(ingest(TOY / "docs.jsonl", "jsonl"))
queries = load_queries(TOY / "queries.tsv")

# ---------------------------------------------------------------------------
# The relevance model behind Clarity and UEF: a softmax-weighted mixture of
# the top documents' smoothed language models.
query = queries[0]
ranked = retrieve(index, query, k=1000, mu=1000.0)
model = rm1(index, ranked, k_fb=10, mu=1000.0)
top = np.argsort(-model.probs, kind="stable")[:8]  # model.terms are index term numbers
print(f"relevance model for {query.query_id} ({' '.join(query.terms)}):")
for t, p in zip(model.terms[top].tolist(), model.probs[top].tolist()):
    bar = "#" * int(400 * p)
    print(f"  {index.terms[t]:<12} {p:.4f} {bar}")
print(f"  total mass = {model.total_mass():.12f}")

# ---------------------------------------------------------------------------
# All six predictors per query. UEF scales its base predictor by how much
# relevance-model re-ranking agrees with the original scores.
header = "query  " + "  ".join(f"{name:>11}" for name in POST_PREDICTORS)
print("\n" + header)
for query in queries:
    ranked = retrieve(index, query, k=1000, mu=1000.0)
    scores = compute_post_scores(index, query, ranked, mu=1000.0, **DEPTHS)
    cells = "  ".join(f"{scores[name]:11.4f}" for name in POST_PREDICTORS)
    print(f"{query.query_id}    {cells}")

# Clarity is a KL divergence, so it stays non-negative; NQC is a normalized
# standard deviation, also non-negative. UEF values may flip sign when the
# re-ranked order disagrees with the original one.
