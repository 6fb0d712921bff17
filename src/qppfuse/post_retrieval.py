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

from .corpus import Index, Query
from .evaluation import UndefinedMetricError, kendall_tau_b, pearson_r
from .retrieval import DegenerateQueryError, RankedList, collection_likelihood, dirichlet_sums

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
    """Term distribution over the terms of the feedback documents."""

    probs: dict[str, float]
    feedback_depth: int

    def total_mass(self) -> float:
        return sum(self.probs.values())


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
    doc_ids = [d for d, _ in top]
    scores = [s for _, s in top]
    max_score = max(scores)
    exp_scores = [math.exp(s - max_score) for s in scores]
    z = sum(exp_scores)
    weights = [e / z for e in exp_scores]

    wanted = set(doc_ids)
    terms = sorted(t for t, plist in index.postings.items() if not wanted.isdisjoint(plist))
    # per term, the weighted smoothed probabilities summed in feedback-doc order
    sums = dirichlet_sums(index, terms, doc_ids, mu, weights, log=False, per="term")
    mass = sum(sums.tolist())
    probs = dict(zip(terms, (sums / mass).tolist()))
    return RelevanceModel(probs=probs, feedback_depth=len(top))


def clarity(
    index: Index,
    ranked: RankedList,
    k_fb: int = 100,
    mu: float = 1000.0,
    model: RelevanceModel | None = None,
) -> float:
    """KL divergence (bits) of the relevance model from the collection model."""
    if model is None:
        model = rm1(index, ranked, k_fb=k_fb, mu=mu)
    score = 0.0
    for term, p in model.probs.items():
        if p <= 0.0:
            continue
        p_coll = index.cf[term] / index.total_tokens
        score += p * math.log2(p / p_coll)
    return score


def wig(index: Index, query, ranked: RankedList, k: int = 5) -> float:
    """Mean top-k score gap over the collection likelihood, scaled by 1/sqrt(|q|)."""
    terms = query.terms if isinstance(query, Query) else tuple(query)
    if len(ranked) == 0:
        raise ValueError(f"empty ranked list for query {ranked.query_id!r}")
    cl = collection_likelihood(index, terms)
    k_eff = min(k, len(ranked))
    gap = sum(score - cl for _, score in ranked.entries[:k_eff])
    return gap / (k_eff * math.sqrt(len(terms)))


def _population_std(values) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def nqc(index: Index, query, ranked: RankedList, k: int = 100) -> float:
    """Std of top-k log-scores over |collection likelihood|; 0 for a single doc."""
    terms = query.terms if isinstance(query, Query) else tuple(query)
    cl = collection_likelihood(index, terms)
    if cl == 0.0:
        raise DegenerateQueryError("collection likelihood is zero; NQC undefined")
    if len(ranked) < 2:
        return 0.0
    scores = ranked.scores[: min(k, len(ranked))]
    return _population_std(scores) / abs(cl)


def rm_rerank_similarity(
    index: Index,
    ranked: RankedList,
    m: int = 100,
    k_fb: int = 100,
    mu: float = 1000.0,
    metric: str = "pearson",
    model: RelevanceModel | None = None,
) -> float | None:
    """Correlation between original scores and relevance-model scores of the top-m docs.

    Returns None when either score vector has zero variance (or fewer than
    two documents are available), in which case UEF is undefined.
    """
    top = ranked.entries[:m]
    if len(top) < 2:
        return None
    if model is None:
        model = rm1(index, ranked, k_fb=k_fb, mu=mu)
    doc_ids = [d for d, _ in top]
    original = [s for _, s in top]
    # each document's sum runs over the terms in model.probs order
    rm_scores = dirichlet_sums(index, model.probs, doc_ids, mu, list(model.probs.values()),
                               log=True, per="doc").tolist()
    if metric == "pearson":
        return pearson_r(original, rm_scores)
    if metric == "kendall":
        try:
            return kendall_tau_b(original, rm_scores).coefficient
        except UndefinedMetricError:
            return None
    raise ValueError(f"unknown similarity metric {metric!r}")


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
    base_scores = {
        "Clarity": clarity(index, ranked, k_fb=k_fb, mu=mu, model=model),
        "WIG": wig(index, query, ranked, k=wig_k),
        "NQC": nqc(index, query, ranked, k=nqc_k),
    }
    sim = rm_rerank_similarity(index, ranked, m=uef_m, k_fb=k_fb, mu=mu, metric=uef_sim, model=model)
    scores: dict[str, float | None] = dict(base_scores)
    for base in ("NQC", "WIG", "Clarity"):
        scores[f"UEF-{base}"] = None if sim is None else sim * base_scores[base]
    return scores
