"""Retrieval and the shared Dirichlet scorer against per-document reference loops.

``_reference_retrieve`` is the loop ``retrieve`` used before scoring moved to
numpy blocks: every candidate is scored term by term with ``math.log``. The
package must reproduce it exactly (``==``), ties and the top-k cut included,
at the shipped block size and at block sizes small enough that every query
spans many row and column blocks.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qppfuse import retrieval
from qppfuse.corpus import Document, Query, build_index
from qppfuse.post_retrieval import rm1, rm_rerank_similarity
from qppfuse.retrieval import RankedList, dirichlet_sums, retrieve

MU_VALUES = (1000.0, 37.5)
SMALL_BLOCKS = (1, 3, 7, 64)


def _reference_retrieve(index, query, k, mu):
    scored = [t for t in query.terms if index.cf.get(t, 0) > 0]
    if not scored:
        return RankedList(query.query_id, (), degenerate=True)
    qtfs = Counter(scored)
    candidates = set()
    for term in qtfs:
        candidates.update(index.postings[term])
    mu_pc = {t: mu * index.cf[t] / index.total_tokens for t in qtfs}
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


def _reference_sums(index, terms, doc_ids, mu, weights, log, per):
    def cell(term, doc_id):
        f = ((index.postings[term].get(doc_id, 0) + mu * index.cf[term] / index.total_tokens)
             / (index.doc_len[doc_id] + mu))
        return math.log(f) if log else f

    if per == "doc":
        out = []
        for d in doc_ids:
            s = 0.0
            for t, w in zip(terms, weights):
                s += w * cell(t, d)
            out.append(s)
        return out
    out = []
    for t in terms:
        s = 0.0
        for d, w in zip(doc_ids, weights):
            s += w * cell(t, d)
        out.append(s)
    return out


def _assert_retrieves_as_reference(index, queries, ks=(1000, 7, 1)):
    for query in queries:
        for mu in MU_VALUES:
            for k in ks:
                expected = _reference_retrieve(index, query, k, mu)
                assert retrieve(index, query, k=k, mu=mu) == expected


def _equal_length_corpus():
    # 60 documents of exactly 12 tokens over 15 terms: a single distinct doc length
    rng = np.random.default_rng(11)
    vocab = [f"e{i}" for i in range(15)]
    return build_index([Document(f"q{i:02d}", " ".join(rng.choice(vocab, size=12)))
                        for i in range(60)])


def _tied_corpus():
    # five copies of each text under scrambled ids: every score is tied five ways
    texts = ["alpha beta beta", "alpha gamma", "beta gamma gamma delta", "alpha alpha beta"]
    ids = ["d9", "d3", "d7", "d1", "d5", "d8", "d2", "d6", "d4", "d0"]
    docs = [Document(f"{ids[i % 10]}{t}", text) for t, text in enumerate(texts) for i in range(5)]
    return build_index(docs)


class TestRetrieveAgainstReference:
    def test_random_corpus(self, random_corpus):
        index, queries = random_corpus
        _assert_retrieves_as_reference(index, queries)

    def test_toy_queries(self, toy_index, toy_queries):
        _assert_retrieves_as_reference(toy_index, toy_queries)

    def test_one_term_query_has_no_zero_tf_cell(self, random_corpus):
        index, _ = random_corpus
        query = Query("one", ("w0",))
        ranked = retrieve(index, query, k=1000)
        assert len(ranked) == index.df["w0"]  # every candidate holds the term
        _assert_retrieves_as_reference(index, [query])

    def test_repeated_query_terms(self, random_corpus):
        index, _ = random_corpus
        _assert_retrieves_as_reference(index, [Query("rep", ("w1", "w5", "w1", "w1", "w30", "w5"))])

    def test_term_absent_from_collection(self, random_corpus):
        index, _ = random_corpus
        _assert_retrieves_as_reference(index, [Query("abs", ("w2", "never-seen", "w9"))])
        assert retrieve(index, Query("none", ("never-seen",))).degenerate

    def test_many_documents_of_equal_length(self):
        index = _equal_length_corpus()
        assert len(set(index.doc_len.values())) == 1
        term_lists = [("e0",), ("e1", "e2"), ("e3", "e3", "e14"), ("e5", "e6", "e7", "e8")]
        queries = [Query(f"eq{j}", terms) for j, terms in enumerate(term_lists)]
        _assert_retrieves_as_reference(index, queries, ks=(1000, 13, 1))

    def test_ties_break_by_doc_id(self):
        index = _tied_corpus()
        queries = [Query("t1", ("alpha",)), Query("t2", ("beta", "gamma")),
                   Query("t3", ("delta", "alpha"))]
        # cuts at 3, 7 and 12 fall inside groups of five tied scores
        _assert_retrieves_as_reference(index, queries, ks=(1000, 3, 7, 12))
        ranked = retrieve(index, queries[0], k=1000)
        for (d1, s1), (d2, s2) in zip(ranked.entries, ranked.entries[1:]):
            assert s1 > s2 or (s1 == s2 and d1 < d2)

    @pytest.mark.parametrize("cells", SMALL_BLOCKS)
    def test_small_blocks(self, monkeypatch, random_corpus, cells):
        index, queries = random_corpus
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        repeated = Query("rep", ("w1", "w5", "w1"))
        _assert_retrieves_as_reference(index, queries + [repeated], ks=(1000, 5))
        tied = Query("t2", ("beta", "gamma"))
        _assert_retrieves_as_reference(_tied_corpus(), [tied], ks=(1000, 7))

    def test_one_term_query_takes_one_log_per_posting(self, monkeypatch, random_corpus):
        # a term whose postings cover every candidate has no tf = 0 row to take logs for
        index, _ = random_corpus
        calls = []

        class CountingMath:
            @staticmethod
            def log(x):
                calls.append(x)
                return math.log(x)

        monkeypatch.setattr(retrieval, "math", CountingMath)
        retrieve(index, Query("one", ("w0",)), k=1000)
        assert len(calls) == index.df["w0"]


class TestDirichletSums:
    @pytest.fixture
    def grid(self, random_corpus):
        index, _ = random_corpus
        rng = np.random.default_rng(5)
        terms = sorted(rng.choice(sorted(index.postings), size=40, replace=False).tolist())
        docs = sorted(index.doc_len)
        # repeated documents, in the order a hand-built ranked list might give
        doc_ids = [docs[i] for i in rng.integers(0, len(docs), size=30)] + docs[:3] + docs[:2]
        return index, terms, doc_ids

    @pytest.mark.parametrize("cells", (None,) + SMALL_BLOCKS)
    @pytest.mark.parametrize("log", [True, False], ids=["log", "plain"])
    @pytest.mark.parametrize("per", ["doc", "term"])
    def test_matches_cell_loop(self, monkeypatch, grid, cells, log, per):
        index, terms, doc_ids = grid
        if cells is not None:
            monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.0, 2.0, size=len(doc_ids) if per == "term" else len(terms)).tolist()
        for mu in MU_VALUES:
            got = dirichlet_sums(index, terms, doc_ids, mu, weights, log=log, per=per)
            assert got.tolist() == _reference_sums(index, terms, doc_ids, mu, weights, log, per)

    @pytest.mark.parametrize("cells", [12, 24, 60])
    def test_rows_beyond_the_kept_priors(self, monkeypatch, grid, cells):
        # six documents: blocks several terms tall, whose priors mostly fall
        # outside the few kept rows and get a grid per block
        index, terms, doc_ids = grid
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        doc_ids = doc_ids[:6]
        assert len({index.cf[t] for t in terms}) > cells // len({index.doc_len[d] for d in doc_ids})
        weights = np.random.default_rng(8).uniform(0.0, 2.0, size=len(terms)).tolist()
        got = dirichlet_sums(index, terms, doc_ids, 37.5, weights, log=True, per="doc")
        assert got.tolist() == _reference_sums(index, terms, doc_ids, 37.5, weights, True, "doc")

    def test_empty_grid(self, grid):
        index, terms, doc_ids = grid
        no_terms = dirichlet_sums(index, [], doc_ids, 1000.0, [], log=True, per="doc")
        assert no_terms.tolist() == [0.0] * len(doc_ids)
        no_docs = dirichlet_sums(index, terms, [], 1000.0, [], log=False, per="term")
        assert no_docs.tolist() == [0.0] * len(terms)

    def test_rejects_unknown_axis(self, grid):
        index, terms, doc_ids = grid
        with pytest.raises(ValueError):
            dirichlet_sums(index, terms, doc_ids, 1000.0, [1.0] * len(terms), log=True, per="cell")


@pytest.fixture(scope="module")
def corpus_2k():
    """Seeded Zipf corpus of 2,000 documents of 60-199 tokens over 4,000 terms."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(4000)]
    weights = 1.0 / np.arange(1, 4001) ** 1.05
    weights /= weights.sum()
    lengths = rng.integers(60, 200, size=2000).tolist()
    draws = rng.choice(len(vocab), size=sum(lengths), p=weights).tolist()
    docs, start = [], 0
    for i, n in enumerate(lengths):
        docs.append(Document(f"d{i:04d}", " ".join(vocab[j] for j in draws[start:start + n])))
        start += n
    return build_index(docs)


# The block size pins the temporaries: at BLOCK_CELLS = 16384 the peaks below
# read 0.5-0.75 MB, while one unblocked V x m float matrix alone is 1.68 MB.
PEAK_BOUND = 1_000_000


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_scoring_memory_stays_bounded(corpus_2k):
    index = corpus_2k
    query = Query("mem", ("w3", "w40", "w200"))
    ranked, peak_retrieve = _traced_peak(lambda: retrieve(index, query, k=1000))
    model, peak_rm1 = _traced_peak(lambda: rm1(index, ranked, k_fb=100))
    _, peak_rerank = _traced_peak(lambda: rm_rerank_similarity(index, ranked, m=100, model=model))
    unblocked = 8 * len(model.probs) * 100  # bytes of one float64 V x m matrix
    assert unblocked > PEAK_BOUND
    assert peak_retrieve < PEAK_BOUND
    assert peak_rm1 < PEAK_BOUND
    assert peak_rerank < PEAK_BOUND
