"""Post-retrieval predictors computed from ranked lists.

Clarity is the KL divergence (base 2) between a relevance model built over
the top feedback documents and the collection language model. WIG is the
mean gap between top-k document log-scores and the collection likelihood,
scaled by 1/sqrt(query length). NQC is the population standard deviation of
top-k log-scores normalized by |collection likelihood|. UEF (composed in
compute_post_scores) scales a base predictor by the similarity between the
original ranking's scores and relevance-model re-ranking scores.

WIG and NQC use natural logs; the query length in WIG is the full
post-tokenization token count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Index, Query
from .evaluation import UndefinedMetricError, kendall_tau_b, mean_ssd, pearson_r
from .retrieval import DegenerateQueryError, RankedList, collection_likelihood, dirichlet_sums
from .seeding import seq_sum

__all__ = [
    "POST_PREDICTORS",
    "RelevanceModel",
    "rm1",
    "clarity",
    "wig",
    "nqc",
    "rm_rerank_similarity",
    "compute_post_scores",
]

POST_PREDICTORS = ("Clarity", "WIG", "NQC", "UEF-NQC", "UEF-WIG", "UEF-Clarity")


@dataclass(frozen=True)
class RelevanceModel:
    """Term distribution over the terms of the feedback documents: ``probs[i]`` is
    the probability of the index term number ``terms[i]``, the numbers ascending."""

    terms: np.ndarray
    probs: np.ndarray
    feedback_depth: int

    def __post_init__(self):
        if np.ndim(self.terms) != 1 or np.shape(self.probs) != np.shape(self.terms):
            raise ValueError("terms and probs must be 1-d arrays of one length")
        # a negative number would read from the end; dirichlet_sums would drop a repeat's cells
        if np.any(np.less(self.terms, 0)) or np.any(np.diff(self.terms) <= 0):
            raise ValueError("term numbers must be >= 0 and strictly ascending")

    def total_mass(self) -> float:
        return seq_sum(self.probs.tolist())


def rm1(index: Index, ranked: RankedList, k_fb: int = 100, mu: float = 1000.0) -> RelevanceModel:
    """Relevance model over the top-k_fb documents.

    Document weights are the softmax of the retrieval log-scores; term
    probabilities are Dirichlet-smoothed document models over every term
    that occurs in a feedback document, renormalized to sum to one.
    """
    if k_fb < 1:
        raise ValueError("k_fb must be >= 1")
    if len(ranked) == 0:
        raise ValueError(f"empty ranked list for query {ranked.query_id!r}")
    top = ranked.entries[:k_fb]
    docs = [index.doc_row[d] for d, _ in top]
    scores = [s for _, s in top]
    max_score = max(scores)
    exp_scores = [math.exp(s - max_score) for s in scores]
    z = seq_sum(exp_scores)
    weights = [e / z for e in exp_scores]

    used = np.zeros(len(index.terms), dtype=bool)  # term numbers follow the sorted terms
    used[index.by_doc.take(docs)[1]] = True
    terms = np.flatnonzero(used)
    # per term, the weighted smoothed probabilities summed in feedback-doc order
    sums = dirichlet_sums(index, terms, docs, mu, weights, log=False, per="term")
    return RelevanceModel(terms, sums / seq_sum(sums.tolist()), len(top))


def clarity(index: Index, model: RelevanceModel) -> float:
    """KL divergence (bits) of the relevance model from the collection model."""
    kept = ~(model.probs <= 0.0)  # keeps a NaN p in the sum
    probs = model.probs[kept]
    # per term, p * log2(p / (cf / |C|)) in the IEEE operations of Python floats (a cf
    # below 2^53 is exact as a float), added in order from 0.0 as seq_sum adds
    ratios = probs / (index.by_term.sums[model.terms[kept]] / index.total_tokens)
    logs = np.fromiter(map(math.log2, ratios.tolist()), float, ratios.size)
    return float(np.add.accumulate(np.concatenate(([0.0], probs * logs)))[-1])


def wig(index: Index, query, ranked: RankedList, k: int = 5) -> float:
    """Mean top-k score gap over the collection likelihood, scaled by 1/sqrt(|q|)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = query.terms if isinstance(query, Query) else tuple(query)
    if len(ranked) == 0:
        raise ValueError(f"empty ranked list for query {ranked.query_id!r}")
    cl = collection_likelihood(index, terms)
    top = ranked.scores[:k]
    return seq_sum(s - cl for s in top) / (len(top) * math.sqrt(len(terms)))


def nqc(index: Index, query, ranked: RankedList, k: int = 100) -> float:
    """Std of top-k log-scores over |collection likelihood|; 0 for a single doc."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = query.terms if isinstance(query, Query) else tuple(query)
    cl = collection_likelihood(index, terms)
    if cl == 0.0:
        raise DegenerateQueryError("collection likelihood is zero; NQC undefined")
    if len(ranked) < 2:
        return 0.0
    scores = ranked.scores[: min(k, len(ranked))]
    return math.sqrt(mean_ssd(scores)[1] / len(scores)) / abs(cl)


def rm_rerank_similarity(
    index: Index,
    ranked: RankedList,
    model: RelevanceModel,
    m: int = 100,
    mu: float = 1000.0,
    metric: str = "pearson",
) -> float | None:
    """Correlation between original scores and relevance-model scores of the top-m docs.

    None where the correlation is undefined (fewer than two documents, a
    constant score vector, sums outside the float range): UEF is undefined.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if metric not in ("pearson", "kendall"):
        raise ValueError(f"unknown similarity metric {metric!r}")
    top = ranked.entries[:m]
    # each document's sum runs over the model's terms in order; dirichlet_sums
    # checks mu before the length test, so a short list rejects a bad mu too
    rm_scores = dirichlet_sums(index, model.terms, [index.doc_row[d] for d, _ in top], mu,
                               model.probs, log=True, per="doc").tolist()
    if len(top) < 2:
        return None
    original = [s for _, s in top]
    if metric == "pearson":
        return pearson_r(original, rm_scores)
    try:
        return kendall_tau_b(original, rm_scores).coefficient
    except UndefinedMetricError:
        return None


def compute_post_scores(
    index: Index,
    query,
    ranked: RankedList,
    k_fb: int = 100,
    wig_k: int = 5,
    nqc_k: int = 100,
    uef_m: int = 100,
    mu: float = 1000.0,
    uef_sim: str = "pearson",
) -> dict[str, float | None]:
    """All six post-retrieval values for one query, keyed by canonical name.

    UEF-X is re-ranking similarity times X; None when the similarity is undefined.
    """
    model = rm1(index, ranked, k_fb=k_fb, mu=mu)
    scores: dict[str, float | None] = {
        "Clarity": clarity(index, model),
        "WIG": wig(index, query, ranked, k=wig_k),
        "NQC": nqc(index, query, ranked, k=nqc_k),
    }
    sim = rm_rerank_similarity(index, ranked, model, m=uef_m, mu=mu, metric=uef_sim)
    for base in ("NQC", "WIG", "Clarity"):
        scores[f"UEF-{base}"] = None if sim is None else sim * scores[base]
    return scores
