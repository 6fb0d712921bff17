"""RM1, the re-ranking similarity and pearson_r against per-term reference loops.

The references below are the loops the package used before the Dirichlet
prior mass and the Pearson core were shared with retrieval and evaluation:
every smoothed probability is recomputed term by term. The package must
reproduce them exactly (``==``), not just approximately.
"""

import math
from collections import Counter

import numpy as np
import pytest

from qppfuse import retrieval
from qppfuse.corpus import Document, Query, build_index
from qppfuse.evaluation import UndefinedMetricError, kendall_tau_b, pearson, pearson_r
from qppfuse.post_retrieval import rm1, rm_rerank_similarity
from qppfuse.retrieval import retrieve


def _reference_doc_term_freqs(index, doc_ids):
    wanted = set(doc_ids)
    tfs = {d: {} for d in wanted}
    for term, plist in index.postings.items():
        for doc_id, tf in plist.items():
            if doc_id in wanted:
                tfs[doc_id][term] = tf
    return tfs


def _reference_smoothed_prob(index, term, tf, doc_len, mu):
    return (tf + mu * index.cf[term] / index.total_tokens) / (doc_len + mu)


def _reference_plain_pearson(a, b):
    """Correlation without the n >= 3 CI requirement; None on zero variance.

    Sums are += loops, in sequence on every Python; squares are Python's ** 2."""
    n = len(a)
    ma = mb = 0.0
    for x, y in zip(a, b):
        ma += x
        mb += y
    ma, mb = ma / n, mb / n
    sab = saa = sbb = 0.0
    for x, y in zip(a, b):
        sab += (x - ma) * (y - mb)
        saa += (x - ma) ** 2
        sbb += (y - mb) ** 2
    if saa == 0.0 or sbb == 0.0:
        return None
    return sab / math.sqrt(saa * sbb)


def _reference_rm1(index, ranked, k_fb, mu):
    """(term probabilities, feedback depth)."""
    top = ranked.entries[:k_fb]
    doc_ids = [d for d, _ in top]
    scores = [s for _, s in top]
    max_score = max(scores)
    exp_scores = [math.exp(s - max_score) for s in scores]
    z = 0.0
    for e in exp_scores:
        z += e
    weights = [e / z for e in exp_scores]

    tfs = _reference_doc_term_freqs(index, doc_ids)
    vocab = sorted({t for d in doc_ids for t in tfs[d]})
    probs = {}
    for term in vocab:
        p = 0.0
        for doc_id, w in zip(doc_ids, weights):
            p += w * _reference_smoothed_prob(index, term, tfs[doc_id].get(term, 0),
                                              index.doc_len[doc_id], mu)
        probs[term] = p
    mass = 0.0
    for p in probs.values():
        mass += p
    probs = {t: p / mass for t, p in probs.items()}
    return probs, len(top)


def _reference_rerank(index, ranked, m, mu, metric, probs):
    top = ranked.entries[:m]
    if len(top) < 2:
        return None
    doc_ids = [d for d, _ in top]
    original = [s for _, s in top]
    tfs = _reference_doc_term_freqs(index, doc_ids)
    rm_scores = []
    for doc_id in doc_ids:
        dl = index.doc_len[doc_id]
        s = 0.0
        for term, p in probs.items():
            s += p * math.log(_reference_smoothed_prob(index, term, tfs[doc_id].get(term, 0),
                                                       dl, mu))
        rm_scores.append(s)
    if metric == "pearson":
        return _reference_plain_pearson(original, rm_scores)
    try:
        return kendall_tau_b(original, rm_scores).coefficient
    except UndefinedMetricError:
        return None


def _assert_matches_reference(index, ranked, k_fb, m, mu):
    model = rm1(index, ranked, k_fb=k_fb, mu=mu)
    probs, depth = _reference_rm1(index, ranked, k_fb, mu)
    assert model.feedback_depth == depth
    named = dict(zip(map(index.terms.__getitem__, model.terms.tolist()), model.probs.tolist()))
    assert list(named) == list(probs)
    assert named == probs
    for metric in ("pearson", "kendall"):
        expected = _reference_rerank(index, ranked, m, mu, metric, probs)
        got = rm_rerank_similarity(index, ranked, model, m=m, mu=mu, metric=metric)
        assert got == expected, (metric, got, expected)


class TestAgainstReference:
    def test_toy_queries(self, toy_index, toy_queries):
        for query in toy_queries:
            ranked = retrieve(toy_index, query, k=1000, mu=1000)
            _assert_matches_reference(toy_index, ranked, k_fb=10, m=10, mu=1000.0)

    @pytest.mark.parametrize("k_fb,m", [(20, 8), (15, 15), (6, 25)],
                             ids=["m<k_fb", "m=k_fb", "m>k_fb"])
    @pytest.mark.parametrize("mu", [1000.0, 37.5])
    def test_random_corpus(self, random_corpus, k_fb, m, mu):
        index, queries = random_corpus
        for query in queries:
            ranked = retrieve(index, query, k=1000, mu=mu)
            assert len(ranked) > max(k_fb, m)
            _assert_matches_reference(index, ranked, k_fb=k_fb, m=m, mu=mu)


def _shared_cf_corpus():
    """40 documents of words unique to them (cf 1), words shared by a pair (cf 2)
    and a few common words: most feedback terms share a handful of cf values."""
    rng = np.random.default_rng(3)
    docs = []
    for i in range(40):
        words = [f"u{i}x{j}" for j in range(int(rng.integers(5, 15)))]
        words += [f"p{i // 2}x{j}" for j in range(4)]
        words += rng.choice(["c0", "c1", "c2", "c3"], size=int(rng.integers(3, 9))).tolist()
        rng.shuffle(words)
        docs.append(Document(f"s{i:02d}", " ".join(words)))
    return build_index(docs)


class TestSharedBlocksAgainstReference:
    @pytest.mark.parametrize("cells", [None, 16, 64])
    def test_many_terms_share_a_cf(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        index = _shared_cf_corpus()
        for terms in (("c0",), ("c1", "c2"), ("c3", "c0", "c3")):
            ranked = retrieve(index, Query("s", terms), k=1000)
            model = rm1(index, ranked, k_fb=30)
            cfs = Counter(index.cf[index.terms[t]] for t in model.terms.tolist())
            assert cfs[1] >= 100 and cfs[2] >= 40
            _assert_matches_reference(index, ranked, k_fb=30, m=25, mu=1000.0)

    @pytest.mark.parametrize("k_fb,m", [(50, 10), (10, 80), (200, 300)],
                             ids=["k_fb>len", "m>len", "both>len"])
    def test_depths_beyond_the_list(self, random_corpus, k_fb, m):
        index, queries = random_corpus
        for query in queries:
            ranked = retrieve(index, query, k=12)
            assert len(ranked) == 12
            _assert_matches_reference(index, ranked, k_fb=k_fb, m=m, mu=1000.0)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_small_blocks(self, monkeypatch, random_corpus, cells):
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
        index, queries = random_corpus
        for query in queries[:3]:
            ranked = retrieve(index, query, k=1000, mu=37.5)
            _assert_matches_reference(index, ranked, k_fb=15, m=12, mu=37.5)


class TestPearsonR:
    @pytest.mark.parametrize("n", [2, 3, 7, 50, 999])
    def test_matches_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            b = 0.4 * a + rng.standard_normal(n)
            assert pearson_r(a.tolist(), b.tolist()) == _reference_plain_pearson(a.tolist(),
                                                                                 b.tolist())

    def test_zero_variance_is_none(self):
        assert pearson_r([2.0, 2.0, 2.0], [1.0, 5.0, 3.0]) is None
        assert pearson_r([1.0, 5.0, 3.0], [2.0, 2.0, 2.0]) is None
        assert _reference_plain_pearson([2.0, 2.0, 2.0], [1.0, 5.0, 3.0]) is None

    def test_two_points(self):
        a, b = [1.0, 3.0], [7.0, -2.0]
        assert pearson_r(a, b) == _reference_plain_pearson(a, b)
        assert pearson_r(a, b) == pytest.approx(-1.0, abs=1e-15)

    def test_pearson_is_clamped_pearson_r(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 12, 200):
            for _ in range(10):
                a = rng.standard_normal(n)
                b = rng.standard_normal(n) + rng.uniform(-2, 2) * a
                r = pearson_r(a.tolist(), b.tolist())
                assert pearson(a, b).coefficient == max(-1.0, min(1.0, r))
        a = [2.6, 4.8, 0.7]
        b = [4.7 * x - 1.1 for x in a]
        assert pearson_r(a, b) > 1.0  # rounding; pearson clamps it
        assert pearson(a, b).coefficient == 1.0
