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

from qppfuse import post_retrieval, retrieval
from qppfuse.corpus import Document, Index, Query, build_index
from qppfuse.post_retrieval import rm1, rm_rerank_similarity
from qppfuse.retrieval import RankedList, dirichlet_sums, retrieve
from tests.brute_force_reference import postings

MU_VALUES = (1000.0, 37.5)
SMALL_BLOCKS = (1, 3, 7, 64)


def _reference_retrieve(index, query, k, mu):
    scored = [t for t in query.terms if index.cf.get(t, 0) > 0]
    if not scored:
        return RankedList(query.query_id, (), degenerate=True)
    qtfs = Counter(scored)
    plists = postings(index)
    candidates = set()
    for term in qtfs:
        candidates.update(plists[term])
    mu_pc = {t: mu * index.cf[t] / index.total_tokens for t in qtfs}
    term_stats = [(plists[t], qtf, mu_pc[t]) for t, qtf in qtfs.items()]
    results = []
    for doc_id in candidates:
        denom = index.doc_len[doc_id] + mu
        score = 0.0
        for plist, qtf, prior in term_stats:
            score += qtf * math.log((plist.get(doc_id, 0) + prior) / denom)
        results.append((doc_id, score))
    results.sort(key=lambda e: (-e[1], e[0]))
    return RankedList(query.query_id, tuple(results[:k]))


def _reference_sums(index, terms, doc_ids, mu, weights, per):
    plists = postings(index)
    log = per == "doc"

    def cell(term, doc_id):
        f = ((plists[term].get(doc_id, 0) + mu * index.cf[term] / index.total_tokens)
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


def _numbered(index, terms, doc_ids):
    return [index.term_row[t] for t in terms], [index.doc_row[d] for d in doc_ids]


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


def _sort_selected(index, query, k, mu):
    """retrieve's top k as chosen before its one argsort: scores as Python floats,
    those below the k-th largest dropped, the rest sorted by (-score, number)."""
    qtfs = Counter(t for t in query.terms if index.cf.get(t, 0) > 0)
    terms = [index.term_row[t] for t in qtfs]
    candidates = np.unique(index.by_term.take(terms)[1])
    scores = dirichlet_sums(index, terms, candidates, mu, list(qtfs.values()),
                            per="doc").tolist()
    results = list(zip(candidates.tolist(), scores))
    if len(results) > k:
        kth = sorted(scores)[-k]
        results = [e for e in results if e[1] >= kth]
    results.sort(key=lambda e: (-e[1], e[0]))
    return RankedList(query.query_id, tuple((index.doc_ids[d], s) for d, s in results[:k]))


class TestTopK:
    @pytest.mark.parametrize("terms", [("alpha",), ("beta", "gamma"), ("delta", "alpha")])
    def test_matches_the_sort_based_selection(self, terms):
        index = _tied_corpus()
        query = Query("t", terms)
        n_candidates = len(retrieve(index, query, k=1000))
        # 3, 7 and 12 cut groups of five tied scores; the last two keep every candidate
        for k in (1, 3, 7, 12, n_candidates - 1, n_candidates, n_candidates + 1, 1000):
            for mu in MU_VALUES:
                assert retrieve(index, query, k=k, mu=mu) == _sort_selected(index, query, k, mu)

    def test_tie_group_straddles_rank_k(self):
        index = _tied_corpus()
        query = Query("t1", ("alpha",))
        full = retrieve(index, query, k=1000)
        assert full.scores[2] == full.scores[3]  # rank 3 cuts a tied group
        ranked = retrieve(index, query, k=3)
        assert ranked == _sort_selected(index, query, 3, 1000.0)
        assert ranked.entries == full.entries[:3]  # the group's lowest doc_ids, in order

    def test_random_corpus(self, random_corpus):
        index, queries = random_corpus
        for query in queries:
            for k in (1, 5, 1000):
                assert retrieve(index, query, k=k) == _sort_selected(index, query, k, 1000.0)


    @pytest.mark.parametrize("mu", MU_VALUES)
    def test_tie_runs_across_rank_k_with_more_candidates_than_k(self, mu):
        # runs of 7, 5, 9, 1 and 4 equal documents: every k below 26 leaves
        # candidates out, and most k cut a run of tied scores
        texts = ["alpha beta", "alpha alpha gamma", "beta gamma gamma", "alpha delta delta", "gamma"]
        runs = [text for text, n in zip(texts, (7, 5, 9, 1, 4)) for _ in range(n)]
        ids = np.random.default_rng(3).permutation(len(runs)).tolist()  # scrambled doc_ids
        index = build_index([Document(f"x{i:02d}", text) for i, text in zip(ids, runs)])
        query = Query("t", ("alpha", "gamma"))
        full = retrieve(index, query, k=1000, mu=mu)
        assert len(full) == 26 and len(set(full.scores)) == 5
        for k in range(1, 28):
            assert retrieve(index, query, k=k, mu=mu) == _sort_selected(index, query, k, mu)


def _fresh(index):
    """The same rows as a new Index, whose cached state, log tables included, starts empty."""
    return Index(index.terms, index.doc_ids, index.by_term, index.by_doc)


class TestZeroTfLogTable:
    def test_one_log_per_zero_tf_pair_and_per_tf_cell(self, monkeypatch, random_corpus):
        index = _fresh(random_corpus[0])
        rng = np.random.default_rng(41)
        queries = [Query(f"s{j}", tuple(rng.choice([f"w{i}" for i in range(60)],
                                                   size=int(rng.integers(1, 5)))))
                   for j in range(8)]
        calls = []

        class CountingMath:
            @staticmethod
            def log(x):
                calls.append(x)
                return math.log(x)

        grids = []  # (terms, doc_ids) of every log-scored grid of the first pass
        plists = postings(index)

        def sequence(record):
            for query in queries:
                ranked = retrieve(index, query, k=50)
                model = rm1(index, ranked, k_fb=10)
                rm_rerank_similarity(index, ranked, m=20, model=model)
                if record:
                    terms = {t for t in query.terms if t in index.cf}
                    grids.append((terms, {d for t in terms for d in plists[t]}))
                    grids.append(({index.terms[t] for t in model.terms.tolist()},
                                  set(ranked.doc_ids[:20])))

        monkeypatch.setattr(retrieval, "math", CountingMath)
        sequence(record=True)
        first = len(calls)
        tf_cells = sum(plists[t].get(d, 0) > 0 for terms, docs in grids
                       for t in terms for d in docs)
        zero_cells = [(index.cf[t], index.doc_len[d]) for terms, docs in grids
                      for t in terms for d in docs if plists[t].get(d, 0) == 0]
        assert len(set(zero_cells)) < len(zero_cells) // 10  # the table saves most logs
        assert first == tf_cells + len(set(zero_cells))
        sequence(record=False)
        assert len(calls) - first == tf_cells

    def test_interleaved_mus_match_fresh_indexes(self, random_corpus):
        index, queries = random_corpus
        shared = _fresh(index)
        for query in queries + [Query("rep", ("w1", "w5", "w1", "w30"))]:
            for mu in (1000.0, 2.5):
                ranked = retrieve(shared, query, k=40, mu=mu)
                assert ranked == retrieve(_fresh(index), query, k=40, mu=mu)
                model = rm1(shared, ranked, k_fb=10, mu=mu)
                assert (rm_rerank_similarity(shared, ranked, m=30, mu=mu, model=model)
                        == rm_rerank_similarity(_fresh(index), ranked, m=30, mu=mu, model=model))
        assert sorted(shared.zero_tf_logs) == [2.5, 1000.0]

    @pytest.mark.parametrize("mu", [1000.0, 2.5])
    def test_zero_log_of_an_empty_document(self, mu):
        # one term: its prior mu * cf/|C| is mu, so the empty document's cell is
        # ln(mu / (0 + mu)) = 0.0, the table's "not yet" value
        index = build_index([Document("a", "t t t"), Document("b", ""), Document("c", "t")])
        assert index.doc_len["b"] == 0
        terms, docs = _numbered(index, ["t"], ["b", "a", "c"])
        expected = _reference_sums(index, ["t"], ["b", "a", "c"], mu, [2.0], "doc")
        assert expected == [0.0] * 3
        for _ in range(3):
            got = dirichlet_sums(index, terms, docs, mu, [2.0], per="doc")
            assert got.tolist() == expected
        assert retrieve(index, Query("q", ("t",)), mu=mu) == _reference_retrieve(
            index, Query("q", ("t",)), 1000, mu)


class TestOneCellReadPerColumnBlock:
    @pytest.mark.parametrize("cells", [None, 7, 64, 500])
    def test_retrieval_rm1_and_rerank(self, monkeypatch, request, cells):
        if cells is None:  # RM1's feedback vocabulary spans several row blocks of the shipped size
            index = request.getfixturevalue("corpus_2k")
            queries = [Query("a", ("w3", "w40", "w200")), Query("b", ("w7", "w1000"))]
        else:
            monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
            index, queries = request.getfixturevalue("random_corpus")
        reads, grids = [], []
        tf_cells, sums = retrieval._tf_cells, retrieval.dirichlet_sums

        def counting_cells(index, term_rows, docs):
            reads.append(len(term_rows))
            return tf_cells(index, term_rows, docs)

        def recording_sums(index, terms, docs, *args, **kwargs):
            start = len(reads)
            out = sums(index, terms, docs, *args, **kwargs)
            grids.append((len(terms), len(docs), reads[start:]))
            return out

        monkeypatch.setattr(retrieval, "_tf_cells", counting_cells)
        monkeypatch.setattr(retrieval, "dirichlet_sums", recording_sums)
        monkeypatch.setattr(post_retrieval, "dirichlet_sums", recording_sums)
        for query in queries:
            ranked = retrieve(index, query, k=1000)
            model = rm1(index, ranked, k_fb=100)
            rm_rerank_similarity(index, ranked, m=100, model=model)
        assert len(grids) == 3 * len(queries)
        block = retrieval.BLOCK_CELLS
        row_blocks = 0
        for n_terms, n_docs, calls in grids:
            width = min(n_docs, block)
            assert calls == [n_terms] * -(-n_docs // width)  # every term, once per column block
            row_blocks = max(row_blocks, -(-n_terms // max(1, block // width)))
        assert row_blocks > 1  # some grid has several row blocks sharing one read


class TestDirichletSums:
    @pytest.fixture
    def grid(self, random_corpus):
        index, _ = random_corpus
        rng = np.random.default_rng(5)
        terms = sorted(rng.choice(sorted(index.terms), size=40, replace=False).tolist())
        # distinct documents, in the order a hand-built ranked list might give
        doc_ids = rng.choice(sorted(index.doc_len), size=35, replace=False).tolist()
        return index, terms, doc_ids

    @pytest.mark.parametrize("cells", (None,) + SMALL_BLOCKS)
    @pytest.mark.parametrize("per", ["doc", "term"], ids=["doc-log", "term-plain"])
    def test_matches_cell_loop(self, monkeypatch, grid, cells, per):
        index, terms, doc_ids = grid
        if cells is not None:
            monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.0, 2.0, size=len(doc_ids) if per == "term" else len(terms)).tolist()
        for mu in MU_VALUES:
            got = dirichlet_sums(index, *_numbered(index, terms, doc_ids), mu, weights, per=per)
            assert got.tolist() == _reference_sums(index, terms, doc_ids, mu, weights, per)

    @pytest.mark.parametrize("cells", [12, 24, 60])
    def test_rows_beyond_the_kept_priors(self, monkeypatch, grid, cells):
        # six documents: blocks several terms tall, whose tf = 0 cells span
        # more (cf, length) pairs than a block has cells per distinct length
        index, terms, doc_ids = grid
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        doc_ids = doc_ids[:6]
        assert len({index.cf[t] for t in terms}) > cells // len({index.doc_len[d] for d in doc_ids})
        weights = np.random.default_rng(8).uniform(0.0, 2.0, size=len(terms)).tolist()
        got = dirichlet_sums(index, *_numbered(index, terms, doc_ids), 37.5, weights, per="doc")
        assert got.tolist() == _reference_sums(index, terms, doc_ids, 37.5, weights, "doc")

    def test_empty_grid(self, grid):
        index, terms, doc_ids = grid
        no_terms = dirichlet_sums(index, *_numbered(index, [], doc_ids), 1000.0, [], per="doc")
        assert no_terms.tolist() == [0.0] * len(doc_ids)
        no_docs = dirichlet_sums(index, *_numbered(index, terms, []), 1000.0, [], per="term")
        assert no_docs.tolist() == [0.0] * len(terms)

    def test_rejects_unknown_axis(self, grid):
        index, terms, doc_ids = grid
        with pytest.raises(ValueError):
            dirichlet_sums(index, *_numbered(index, terms, doc_ids), 1000.0, [1.0] * len(terms),
                           per="cell")

    @pytest.mark.parametrize("mu", [0.0, -5.0, math.inf, math.nan])
    @pytest.mark.parametrize("per", ["doc", "term"])
    def test_rejects_mu_not_finite_and_positive(self, grid, mu, per):
        index, terms, doc_ids = grid
        weights = [1.0] * (len(terms) if per == "doc" else len(doc_ids))
        with pytest.raises(ValueError, match="mu must be > 0 and finite"):
            dirichlet_sums(index, *_numbered(index, terms, doc_ids), mu, weights, per=per)

    @pytest.mark.parametrize("term, doc", [(-1, 0), (0, -1)])
    def test_rejects_negative_numbers(self, grid, term, doc):
        index, _, _ = grid
        with pytest.raises(ValueError, match="numbers must be >= 0"):
            dirichlet_sums(index, [term], [doc], 1000.0, [1.0], per="doc")

    @pytest.mark.parametrize("n_docs", [1, 5], ids=["feedback-rows", "term-rows"])
    def test_rejects_a_repeated_term(self, toy_index, n_docs):
        # three terms x one document are read from the document's row, where the
        # first copy of t scored as tf = 0; three x five from the term rows
        t, u = toy_index.by_doc.take([0])[1][:2].tolist()
        with pytest.raises(ValueError, match="numbers must be distinct"):
            dirichlet_sums(toy_index, [t, t, u], range(n_docs), 1000.0, [1.0] * n_docs,
                           per="term")

    @pytest.mark.parametrize("cells", (None,) + SMALL_BLOCKS)
    @pytest.mark.parametrize("per", ["doc", "term"])
    def test_rejects_a_repeat_in_another_block(self, monkeypatch, grid, cells, per):
        # the whole grid is checked: a last term or document that repeats the
        # first lies in another row or column block at small BLOCK_CELLS
        index, terms, doc_ids = grid
        if cells is not None:
            monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        terms, docs = _numbered(index, terms, doc_ids)
        weights = [1.0] * (len(docs) if per == "term" else len(terms))
        assert len(dirichlet_sums(index, terms, docs, 1000.0, weights, per=per)) == (
            len(docs) if per == "doc" else len(terms))
        for grid_terms, grid_docs in ((terms[:-1] + terms[:1], docs),
                                      (terms, docs[:-1] + docs[:1])):
            with pytest.raises(ValueError, match="numbers must be distinct"):
                dirichlet_sums(index, grid_terms, grid_docs, 1000.0, weights, per=per)

    @pytest.mark.parametrize("per", ["doc", "term"])
    def test_rejects_a_repeated_document(self, toy_index, per):
        with pytest.raises(ValueError, match="numbers must be distinct"):
            dirichlet_sums(toy_index, [0], [0, 1, 0], 1000.0, [1.0] * (3 if per == "term" else 1),
                           per=per)

    @pytest.mark.parametrize("per, n_weights, message", [
        ("doc", 1, "1 weights for 3 terms"), ("doc", 4, "4 weights for 3 terms"),
        ("term", 1, "1 weights for 2 documents"), ("term", 3, "3 weights for 2 documents")])
    def test_rejects_weights_of_the_wrong_length(self, grid, per, n_weights, message):
        # one weight would broadcast over every row or column without this check
        index, terms, doc_ids = grid
        with pytest.raises(ValueError, match=message):
            dirichlet_sums(index, *_numbered(index, terms[:3], doc_ids[:2]), 1000.0,
                           [1.0] * n_weights, per=per)


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
# read 0.75-0.92 MB, while one unblocked V x m float matrix alone is 1.68 MB.
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
