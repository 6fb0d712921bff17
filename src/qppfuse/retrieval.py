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
from .seeding import BLOCK_CELLS, seq_sum, write_lines

__all__ = [
    "DegenerateQueryError",
    "RankedList",
    "scoreable_terms",
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
    """Top-k documents for one query, each once, sorted by (log_score desc, doc_id asc)."""

    query_id: str
    entries: tuple[tuple[str, float], ...]
    degenerate: bool = False

    def __post_init__(self):
        if len({d for d, _ in self.entries}) < len(self.entries):
            raise ValueError(f"ranked list for query {self.query_id!r} repeats a doc_id")

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


# No float grid of dirichlet_sums is larger than BLOCK_CELLS. The tf = 0 log tables of
# Index.zero_tf_logs are the one array BLOCK_CELLS does not bound; the data bounds them:
# distinct cfs, and distinct lengths, sum to at most |C|, so each table side is under
# sqrt(2|C|) + 1.


def _logs(values) -> np.ndarray:
    """math.log of each value; np.log differs from it in the last bit on some inputs."""
    return np.fromiter(map(math.log, values.ravel().tolist()), dtype=float,
                       count=values.size).reshape(values.shape)


def _tf_cells(index: Index, term_rows, docs):
    """Rows, columns and tfs of the tf > 0 cells of the distinct terms ``term_rows``
    x the distinct documents ``docs``, ordered by row, plus the cell count of each row.

    They are read from the index rows of the side with fewer: a query's terms
    in ``by_term``, or the feedback documents in ``by_doc``.
    """
    if len(term_rows) <= len(docs):
        rows, found, tfs = index.by_term.take(term_rows)
        col_of = np.full(len(index.doc_ids), -1, dtype=np.int32)
        col_of[docs] = np.arange(len(docs))
        cols = col_of[found]
    else:
        owner, found, tfs = index.by_doc.take(docs)
        row_of = np.full(len(index.terms), -1, dtype=np.int32)
        row_of[term_rows] = np.arange(len(term_rows))
        rows, cols = row_of[found], owner
    hit = np.flatnonzero((rows >= 0) & (cols >= 0))
    hit = hit[np.argsort(rows[hit], kind="stable")]
    rows = rows[hit]
    return rows, cols[hit], tfs[hit], np.bincount(rows, minlength=len(term_rows))


def dirichlet_sums(index: Index, terms, docs, mu: float, weights, *, per: str) -> np.ndarray:
    """Weighted sums of Dirichlet-smoothed term probabilities over terms x documents.

    ``terms`` and ``docs`` are distinct term and document numbers, the terms with
    cf > 0. Let f = (tf(t, d) + mu * cf(t)/|C|) / (|d| + mu); cf and |d| are the
    index rows' sums. ``per="doc"`` returns, for each document, the sum over
    ``terms`` in order of weights[t] * ln f (query likelihood, RM re-ranking);
    ``per="term"`` returns, for each term, the sum over ``docs`` in order of
    weights[d] * f (RM1).

    The result equals, bit for bit, a Python loop that starts each sum at 0.0
    and adds cell by cell: every cell is the same IEEE operations done
    elementwise, logs are ``math.log``, and the sums are sequential ``np.cumsum``.
    A tf > 0 cell's log is taken once per cell. A tf = 0 cell's log is
    ln(prior / denom), a function of the integers cf and |d|: it is taken once per
    index and mu for each (cf, length) pair a tf = 0 cell needs, from the same
    prior and denominator operations, and kept in ``Index.zero_tf_logs`` (an
    exact 0.0 is taken again). The tfs come from the index's rows, read once per
    column block for all of ``terms``; each row block takes its slice of those
    cells. Work goes in blocks of at most ``BLOCK_CELLS`` cells, so the float
    temporaries stay bounded on any grid.
    """
    if per not in ("doc", "term"):
        raise ValueError(f"per must be 'doc' or 'term', got {per!r}")
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be > 0 and finite, got {mu!r}")
    terms, docs = np.asarray(terms, dtype=np.intp), np.asarray(docs, dtype=np.intp)
    if (terms < 0).any() or (docs < 0).any():  # numpy would read a negative one from the end
        raise ValueError("term and document numbers must be >= 0")
    # a sort, not np.unique, whose hash path imports numpy.ma
    if any((np.diff(np.sort(numbers)) == 0).any() for numbers in (terms, docs)):
        raise ValueError("term and document numbers must be distinct")
    weights = np.array(weights, dtype=float)
    n, axis = (len(docs), "documents") if per == "term" else (len(terms), "terms")
    if len(weights) != n:
        raise ValueError(f"{len(weights)} weights for {n} {axis}")
    cfs, cf_class = index.cf_classes
    lengths, length_class = index.length_classes
    prior_of = float(mu) * cfs / index.total_tokens  # float: no int64 wrap
    denom_of = lengths + float(mu)
    term_class, doc_class = cf_class[terms], length_class[docs]
    priors, denoms = prior_of[term_class], denom_of[doc_class]
    out = np.zeros(len(docs) if per == "doc" else len(terms))
    if not len(terms) or not len(docs):
        return out
    if per == "doc":
        table = index.zero_tf_logs.get(mu)
        if table is None:
            table = index.zero_tf_logs[mu] = np.zeros((len(cfs), len(lengths)))
    width = min(len(docs), BLOCK_CELLS)
    height = max(1, BLOCK_CELLS // width)
    for c0 in range(0, len(docs), width):
        cols = slice(c0, c0 + width)
        den = denoms[cols]
        cell_r, cell_c, cell_tf, row_counts = _tf_cells(index, terms, docs[cols])
        bounds = np.concatenate(([0], np.cumsum(row_counts)))  # row i: bounds[i]:bounds[i + 1]
        for r0 in range(0, len(terms), height):
            rows = slice(r0, r0 + height)
            pri = priors[rows]
            at = slice(bounds[r0], bounds[r0 + len(pri)])
            r, c, tf = cell_r[at] - r0, cell_c[at], cell_tf[at]
            cells = (tf + pri[r]) / den[c]
            if per == "doc":
                keys = term_class[rows, None] * len(lengths) + doc_class[None, cols]  # in table.flat
                block = table.take(keys)
                fresh = block == 0.0  # cells not filled yet, and exact-zero logs
                fresh[r, c] = False  # tf > 0 cells take their own logs
                if fresh.any():
                    new = np.sort(keys[fresh])  # np.unique's hash path is slower here
                    new = new[np.concatenate(([True], new[1:] != new[:-1]))]
                    table.flat[new] = _logs(prior_of[new // len(lengths)]
                                            / denom_of[new % len(lengths)])
                    block[fresh] = table.take(keys[fresh])
                block[r, c] = _logs(cells)
                block *= weights[rows, None]
                block[0] += out[cols]
                out[cols] = np.cumsum(block, axis=0)[-1]
            else:
                block = pri[:, None] / den[None, :]
                block[r, c] = cells
                block *= weights[None, cols]
                block[:, 0] += out[rows]
                out[rows] = np.cumsum(block, axis=1)[:, -1]
    return out


def score_dirichlet(index: Index, terms, doc_id: str, mu: float = 1000.0) -> float:
    """Dirichlet query log-likelihood of ``doc_id``: ``retrieve``'s score, bit for bit."""
    if doc_id not in index.doc_row:
        raise KeyError(f"unknown doc_id {doc_id!r}")
    qtfs = Counter(scoreable_terms(index, terms))
    if not qtfs:
        raise DegenerateQueryError("no query term occurs in the collection")
    return float(dirichlet_sums(index, [index.term_row[t] for t in qtfs], [index.doc_row[doc_id]],
                                mu, list(qtfs.values()), per="doc")[0])


def collection_likelihood(index: Index, terms) -> float:
    """Log-likelihood of the term multiset under the collection model."""
    scored = scoreable_terms(index, terms)
    if not scored:
        raise DegenerateQueryError("no query term occurs in the collection")
    return seq_sum(qtf * math.log(index.cf[t] / index.total_tokens)
                   for t, qtf in Counter(scored).items())


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
    terms = [index.term_row[t] for t in qtfs]
    holds = np.zeros(len(index.doc_ids), dtype=bool)
    holds[index.by_term.take(terms)[1]] = True
    candidates = np.flatnonzero(holds)
    scores = dirichlet_sums(index, terms, candidates, mu, list(qtfs.values()), per="doc")
    top = np.arange(len(scores))
    if len(scores) > k:  # the candidates at or above the k-th score
        top = np.flatnonzero(scores >= np.partition(scores, len(scores) - k)[len(scores) - k])
    top = top[np.argsort(-scores[top], kind="stable")[:k]]  # ties keep the doc_id order
    doc_ids = map(index.doc_ids.__getitem__, candidates[top].tolist())
    return RankedList(query.query_id, tuple(zip(doc_ids, scores[top].tolist())))


def average_precision(ranked: RankedList, qrels: Qrels, cutoff: int = 1000) -> float | None:
    """AP over the top ``cutoff`` ranks; grade > 0 counts as relevant.

    R is the total number of relevant documents in the qrels (retrieved or
    not). Returns None when the query has no relevant documents, in which
    case AP is undefined and the query is excluded from experiments.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    relevant = qrels.relevant_docs(ranked.query_id)
    if not relevant:
        return None
    hits = 0
    precision_sum = 0.0
    for rank, (doc_id, _) in enumerate(ranked.entries[:cutoff], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant)


def write_run_file(path, ranked_lists, tag: str = "qppfuse") -> None:
    """Write TREC 6-column run lines: qid Q0 docid rank score tag."""
    write_lines(path, (f"{ranked.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}"
                       for ranked in ranked_lists
                       for rank, (doc_id, score) in enumerate(ranked.entries, start=1)))
