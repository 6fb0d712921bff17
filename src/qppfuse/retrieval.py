"""Query-likelihood retrieval with Dirichlet smoothing, plus average precision.

Scores are log-likelihoods: sum over query terms of
qtf(t) * ln[(tf(t,d) + mu * cf(t)/|C|) / (|d| + mu)].
Query terms absent from the collection (cf = 0) are dropped from both the
document score and the collection likelihood; a query where every term is
absent is degenerate.

``dirichlet_sums`` is the one implementation of Dirichlet scoring over a
terms x documents grid; retrieval, RM1 and the RM re-ranking all read it.
It works in numpy blocks yet gives the bits of a per-cell Python loop.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Index, Qrels, Query

__all__ = [
    "DegenerateQueryError",
    "RankedList",
    "scoreable_terms",
    "dirichlet_mass",
    "BLOCK_CELLS",
    "dirichlet_sums",
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


BLOCK_CELLS = 16384  # cells per scoring block; no temporary of dirichlet_sums is larger


def _logs(values) -> np.ndarray:
    """math.log of each value; np.log differs from it in the last bit on some inputs."""
    return np.fromiter(map(math.log, values.ravel().tolist()), dtype=float,
                       count=values.size).reshape(values.shape)


def _distinct(values):
    """Distinct values in first-seen order and the position of each value among them.

    np.unique would give the same logs, but its sort pulls in numpy's large
    sort kernels, which shows in the peak RSS of a small process.
    """
    items = values.tolist()
    pos = {v: i for i, v in enumerate(dict.fromkeys(items))}
    inverse = np.fromiter(map(pos.__getitem__, items), np.intp, len(items))
    return np.array(list(pos), dtype=float), inverse


class _ZeroTfLogs:
    """ln(prior / denom), the log of a tf = 0 cell, for one block of documents.

    The input takes one value per distinct (prior, doc length) pair. The rows
    of the most frequent priors, as many as fit in BLOCK_CELLS, are kept for
    the whole column block and each is computed when first needed; any other
    prior gets a grid per row block.
    """

    def __init__(self, priors, denoms):
        self.den_unique, self.den_inverse = _distinct(denoms)
        frequent = Counter(priors.tolist()).most_common(BLOCK_CELLS // len(self.den_unique))
        self.kept = np.array([p for p, _ in frequent], dtype=float)
        self.slot = dict(zip(self.kept.tolist(), range(len(frequent))))
        self.kept_logs = np.empty((len(frequent), len(self.den_unique)))
        self.ready = set()

    def rows(self, priors) -> np.ndarray:
        items = priors.tolist()
        slots = np.fromiter(map(self.slot.get, items, [-1] * len(items)), np.intp, len(items))
        kept = slots >= 0
        fresh = list(set(slots[kept].tolist()) - self.ready)
        if fresh:
            self.kept_logs[fresh] = _logs(self.kept[fresh, None] / self.den_unique)
            self.ready.update(fresh)
        logs = np.empty((len(items), len(self.den_unique)))
        logs[kept] = self.kept_logs[slots[kept]]
        if not kept.all():
            values, inverse = _distinct(priors[~kept])
            logs[~kept] = _logs(values[:, None] / self.den_unique)[inverse]
        return logs[:, self.den_inverse]


def _tf_cells(postings, terms, col_of, wanted):
    """Rows, columns and tfs of the tf > 0 cells of ``terms`` x the documents
    ``wanted`` (a set of ``col_of``'s keys), plus the cell count of each row."""
    counts, cols, tfs = [], [], []
    for term in terms:
        plist = postings[term]
        hits = plist.keys() & wanted
        counts.append(len(hits))
        cols.extend(map(col_of.__getitem__, hits))
        tfs.extend(map(plist.__getitem__, hits))
    counts = np.array(counts, dtype=np.intp)
    rows = np.repeat(np.arange(len(terms)), counts)
    return rows, np.array(cols, dtype=np.intp), np.array(tfs, dtype=float), counts


def dirichlet_sums(index: Index, terms, doc_ids, mu: float, weights, *,
                   log: bool, per: str) -> np.ndarray:
    """Weighted sums of Dirichlet-smoothed term probabilities over terms x documents.

    Cell (t, d) is f = (tf(t, d) + mu * cf(t)/|C|) / (|d| + mu), or ln f when
    ``log`` is true. ``per="doc"`` returns, for each document, the sum over
    ``terms`` in order of weights[t] * f (query likelihood, RM re-ranking);
    ``per="term"`` returns, for each term, the sum over ``doc_ids`` in order
    of weights[d] * f (RM1). ``terms`` must be distinct and occur in the index.

    The result equals, bit for bit, a Python loop that starts each sum at 0.0
    and adds cell by cell: every cell is the same IEEE operations done
    elementwise, logs are ``math.log`` (taken once per distinct input of a
    column block, kept rows permitting), and the sums are sequential
    ``np.cumsum``. The tfs come from the postings. Work goes in blocks of at
    most ``BLOCK_CELLS`` cells, so the temporaries stay bounded on any grid.
    """
    if per not in ("doc", "term"):
        raise ValueError(f"per must be 'doc' or 'term', got {per!r}")
    terms, doc_ids = list(terms), list(doc_ids)
    mass = dirichlet_mass(index, terms, mu)
    priors = np.array([mass[t] for t in terms], dtype=float)
    lengths = np.fromiter(map(index.doc_len.__getitem__, doc_ids), dtype=float, count=len(doc_ids))
    denoms = lengths + mu
    weights = np.array(weights, dtype=float)
    out = np.zeros(len(doc_ids) if per == "doc" else len(terms))
    if not terms or not doc_ids:
        return out
    width = min(len(doc_ids), BLOCK_CELLS)
    height = max(1, BLOCK_CELLS // width)
    for c0 in range(0, len(doc_ids), width):
        cols = slice(c0, c0 + width)
        block_ids = doc_ids[cols]
        col_of = dict(zip(reversed(block_ids), range(len(block_ids) - 1, -1, -1)))  # first columns
        wanted = set(col_of)  # set & dict keys is the fastest intersection here
        den = denoms[cols]
        zero_logs = _ZeroTfLogs(priors, den) if log else None
        for r0 in range(0, len(terms), height):
            rows = slice(r0, r0 + height)
            pri = priors[rows]
            r, c, tf, counts = _tf_cells(index.postings, terms[rows], col_of, wanted)
            cells = (tf + pri[r]) / den[c]
            if log:
                block = np.empty((len(pri), len(den)))
                sparse = counts < len(col_of)  # rows with a tf = 0 cell
                if sparse.any():
                    block[sparse] = zero_logs.rows(pri[sparse])
                block[r, c] = _logs(cells)
            else:
                block = pri[:, None] / den[None, :]
                block[r, c] = cells
            if len(col_of) < len(den):  # a repeated document copies its first column
                block = block[:, list(map(col_of.__getitem__, block_ids))]
            if per == "doc":
                block *= weights[rows, None]
                block[0] += out[cols]
                out[cols] = np.cumsum(block, axis=0)[-1]
            else:
                block *= weights[None, cols]
                block[:, 0] += out[rows]
                out[rows] = np.cumsum(block, axis=1)[:, -1]
    return out


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
    candidates = list(set().union(*(index.postings[t] for t in qtfs)))
    scores = dirichlet_sums(index, qtfs, candidates, mu, list(qtfs.values()), log=True, per="doc")
    scores = scores.tolist()
    results = list(zip(candidates, scores))
    if len(results) > k:  # only scores >= the k-th largest can rank in the top k
        kth = sorted(scores)[-k]
        results = [e for e in results if e[1] >= kth]
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
