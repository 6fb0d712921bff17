"""Query-likelihood retrieval with Dirichlet smoothing, plus average precision.

Scores are log-likelihoods: sum over query terms of
qtf(t) * ln[(tf(t,d) + mu * cf(t)/|C|) / (|d| + mu)].
Query terms absent from the collection (cf = 0) are dropped from both the
document score and the collection likelihood; a query where every term is
absent is degenerate.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Index, Qrels, Query

__all__ = [
    "DegenerateQueryError",
    "RankedList",
    "scoreable_terms",
    "dirichlet_mass",
    "score_dirichlet",
    "retrieve",
    "collection_likelihood",
    "average_precision",
    "write_run_file",
]


class DegenerateQueryError(Exception):
    """No query term occurs in the collection."""


@dataclass(frozen=True)
class RankedList:
    """Top-k documents for one query, sorted by (log_score desc, doc_id asc)."""

    query_id: str
    entries: tuple[tuple[str, float], ...]
    degenerate: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.entries]

    @property
    def scores(self) -> list[float]:
        return [s for _, s in self.entries]


def scoreable_terms(index: Index, terms) -> list[str]:
    """Query terms with cf > 0, multiplicity preserved."""
    return [t for t in terms if index.cf.get(t, 0) > 0]


def dirichlet_mass(index: Index, terms, mu: float) -> dict[str, float]:
    """Dirichlet prior mass mu * cf(t) / |C| of each term (cf > 0 assumed)."""
    return {t: mu * index.cf[t] / index.total_tokens for t in terms}


def score_dirichlet(index: Index, terms, doc_id: str, mu: float = 1000.0) -> float:
    """Dirichlet-smoothed query log-likelihood of ``doc_id`` for the term multiset."""
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if doc_id not in index.doc_len:
        raise KeyError(f"unknown doc_id {doc_id!r}")
    scored = scoreable_terms(index, terms)
    if not scored:
        raise DegenerateQueryError("no query term occurs in the collection")
    dl = index.doc_len[doc_id]
    score = 0.0
    for term, qtf in Counter(scored).items():
        tf = index.postings[term].get(doc_id, 0)
        p_c = index.cf[term] / index.total_tokens
        score += qtf * math.log((tf + mu * p_c) / (dl + mu))
    return score


def collection_likelihood(index: Index, terms) -> float:
    """Log-likelihood of the term multiset under the collection model."""
    scored = scoreable_terms(index, terms)
    if not scored:
        raise DegenerateQueryError("no query term occurs in the collection")
    return sum(
        qtf * math.log(index.cf[t] / index.total_tokens)
        for t, qtf in Counter(scored).items()
    )


def retrieve(index: Index, query: Query, k: int = 1000, mu: float = 1000.0) -> RankedList:
    """Top-k documents containing at least one query term.

    A degenerate query yields an empty, flagged RankedList.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = scoreable_terms(index, query.terms)
    if not scored:
        return RankedList(query.query_id, (), degenerate=True)
    qtfs = Counter(scored)
    candidates = set()
    for term in qtfs:
        candidates.update(index.postings[term])
    mu_pc = dirichlet_mass(index, qtfs, mu)
    term_stats = [(index.postings[t], qtf, mu_pc[t]) for t, qtf in qtfs.items()]
    results = []
    for doc_id in candidates:
        denom = index.doc_len[doc_id] + mu
        score = 0.0
        for plist, qtf, prior in term_stats:
            score += qtf * math.log((plist.get(doc_id, 0) + prior) / denom)
        results.append((doc_id, score))
    results.sort(key=lambda e: (-e[1], e[0]))
    return RankedList(query.query_id, tuple(results[:k]))


def average_precision(ranked: RankedList, qrels: Qrels, cutoff: int = 1000) -> float | None:
    """AP over the top ``cutoff`` ranks; grade > 0 counts as relevant.

    R is the total number of relevant documents in the qrels (retrieved or
    not). Returns None when the query has no relevant documents, in which
    case AP is undefined and the query is excluded from experiments.
    """
    n_relevant = qrels.num_relevant(ranked.query_id)
    if n_relevant == 0:
        return None
    hits = 0
    precision_sum = 0.0
    for rank, (doc_id, _) in enumerate(ranked.entries[:cutoff], start=1):
        if qrels.grade(ranked.query_id, doc_id) > 0:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / n_relevant


def write_run_file(path, ranked_lists, tag: str = "qppfuse") -> None:
    """Write TREC 6-column run lines: qid Q0 docid rank score tag."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ranked in ranked_lists:
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
                fh.write(f"{ranked.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")
