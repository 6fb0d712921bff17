import math
from pathlib import Path

import numpy as np
import pytest

from qppfuse.corpus import Document, Index, Query, build_index, ingest, load_queries
from qppfuse.post_retrieval import (
    POST_PREDICTORS,
    RelevanceModel,
    clarity,
    compute_post_scores,
    nqc,
    rm1,
    rm_rerank_similarity,
    wig,
)
from qppfuse.retrieval import DegenerateQueryError, RankedList, retrieve
from qppfuse.seeding import seq_sum

TOY_PARAMS = dict(k_fb=10, wig_k=5, nqc_k=10, uef_m=10)


def _docs(*texts):
    return [Document(f"d{i+1}", t) for i, t in enumerate(texts)]


def _named(index, model):
    """The model's probabilities keyed by term, in its term-number order."""
    return dict(zip(map(index.terms.__getitem__, model.terms.tolist()), model.probs.tolist()))


def _hand_model(index, probs):
    """A one-document model of the probabilities ``probs`` ({term: p})."""
    rows = sorted((index.term_row[t], p) for t, p in probs.items())
    return RelevanceModel(np.array([r for r, _ in rows], dtype=np.intp),
                          np.array([p for _, p in rows], dtype=float), 1)


def _toy_ranked(index, queries):
    return {q.query_id: retrieve(index, q, k=1000, mu=1000) for q in queries}


@pytest.fixture(scope="module")
def ranked_lists(toy_index, toy_queries):
    return _toy_ranked(toy_index, toy_queries)


class TestRelevanceModel:
    def test_mass_sums_to_one_on_toy(self, toy_index, ranked_lists):
        for ranked in ranked_lists.values():
            model = rm1(toy_index, ranked, k_fb=10, mu=1000)
            assert model.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_single_feedback_doc(self):
        # with one doc the model is that doc's smoothed distribution,
        # restricted to its vocabulary and renormalized
        index = build_index(_docs("a a b", "c c c c"))
        ranked = retrieve(index, Query("q", ("a",)), mu=1.0)
        probs = _named(index, rm1(index, ranked, k_fb=1, mu=1.0))
        assert set(probs) == {"a", "b"}
        p = {t: (tf + 1.0 * index.cf[t] / 7) / (3 + 1.0) for t, tf in [("a", 2), ("b", 1)]}
        z = sum(p.values())
        assert probs["a"] == pytest.approx(p["a"] / z, abs=1e-12)
        assert probs["b"] == pytest.approx(p["b"] / z, abs=1e-12)

    def test_duplicate_docs_match_single_doc_model(self):
        index = build_index(_docs("a a b", "a a b", "c c"))
        ranked = retrieve(index, Query("q", ("a",)))
        assert len(ranked) == 2
        two = _named(index, rm1(index, ranked, k_fb=2))
        one = _named(index, rm1(index, ranked, k_fb=1))
        assert set(two) == set(one)
        for term in two:
            assert two[term] == pytest.approx(one[term], abs=1e-12)

    def test_empty_ranked_list_rejected(self, toy_index):
        with pytest.raises(ValueError):
            rm1(toy_index, RankedList("q", ()))

    @pytest.mark.parametrize("mu", [0, -5.0, math.inf, math.nan])
    def test_bad_mu_rejected(self, toy_index, ranked_lists, mu):
        with pytest.raises(ValueError, match="mu must be > 0 and finite"):
            rm1(toy_index, ranked_lists["q01"], mu=mu)

    def test_arrays_in_term_number_order(self, toy_index, ranked_lists):
        for ranked in ranked_lists.values():
            model = rm1(toy_index, ranked, k_fb=10)
            assert model.terms.dtype == np.intp and model.probs.dtype == float
            assert model.terms.tolist() == sorted(set(model.terms.tolist()))
            assert len(model.probs) == len(model.terms)

    @pytest.mark.parametrize("terms,probs", [
        ([[0, 1]], [[0.5, 0.5]]),
        ([0, 1], [1.0]),
        ([0], [[1.0]]),
        (0, 1.0),
        ([-1, 0], [0.5, 0.5]),
        ([1, 0], [0.5, 0.5]),
        ([2, 2], [0.5, 0.5]),
    ], ids=["2-d", "unequal-lengths", "2-d-probs", "scalars", "negative", "descending", "repeated"])
    def test_malformed_model_rejected(self, terms, probs):
        # as arrays a negative number would wrap to the last term, where the
        # model's old term dict raised KeyError
        with pytest.raises(ValueError, match="term numbers|1-d arrays"):
            RelevanceModel(np.array(terms), np.array(probs, dtype=float), 1)


class TestClarity:
    def test_zero_when_model_equals_collection(self):
        # a single-document corpus: the top document IS the collection, so
        # its smoothed model equals the collection model and the KL is 0
        index = build_index(_docs("a a b c"))
        ranked = retrieve(index, Query("q", ("a",)))
        assert clarity(index, rm1(index, ranked, k_fb=5)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_model_hand_value(self, toy_index):
        # engineered model: all mass on one term with cf/|C| = 1/100
        index = build_index(_docs("t " + " ".join(["x"] * 99)))
        score = clarity(index, _hand_model(index, {"t": 1.0}))
        assert score == pytest.approx(math.log2(100), abs=1e-12)
        assert score == pytest.approx(6.6439, abs=1e-4)

    @staticmethod
    def _per_term(index, model):
        # the per-term generator clarity summed before its numpy form
        return seq_sum(p * math.log2(p / (index.cf[t] / index.total_tokens))
                       for t, p in _named(index, model).items() if not p <= 0.0)

    @pytest.mark.parametrize("k_fb", [1, 10, 100])
    def test_bits_of_the_per_term_formula(self, toy_index, ranked_lists, random_corpus, k_fb):
        index, queries = random_corpus
        cases = [(toy_index, ranked) for ranked in ranked_lists.values()]
        cases += [(index, retrieve(index, query, k=1000)) for query in queries]
        for index, ranked in cases:
            model = rm1(index, ranked, k_fb=k_fb)
            assert clarity(index, model).hex() == self._per_term(index, model).hex()

    def test_bits_of_the_per_term_formula_on_a_synth_corpus(self, monkeypatch, tmp_path):
        # the benchmark's Zipf-Mandelbrot generator, at 1,500 documents
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
        import gen
        monkeypatch.setattr(gen, "N_DOCS", 1_500)
        gen.make_corpus(tmp_path, 1, 12, 0)
        index = build_index(ingest(tmp_path / "docs.jsonl", "jsonl"))
        for query in load_queries(tmp_path / "queries.tsv"):
            ranked = retrieve(index, query, k=1000)
            model = rm1(index, ranked)
            assert clarity(index, model).hex() == self._per_term(index, model).hex()

    @pytest.mark.parametrize("probs", [
        {"t": 0.0, "x": -0.5},
        {"t": -0.0, "x": 0.25},
        {"x": math.nan, "t": 0.5},
        {"t": 1e-300, "x": 5e-324},
        {"t": 0.9775786952206656},  # np.log2 rounds its log one ulp off math.log2 (numpy 2.4, x86-64)
        {},
    ], ids=["none-kept", "negative-zero-skipped", "nan-kept", "subnormal", "log2-rounding", "empty"])
    def test_bits_on_edge_models(self, probs):
        index = build_index(_docs("t " + " ".join(["x"] * 99)))
        model = _hand_model(index, probs)
        value = clarity(index, model)
        assert repr(value) == repr(self._per_term(index, model))  # nan and the sign of 0 too

    def test_nonnegative_on_toy(self, toy_index, ranked_lists):
        for ranked in ranked_lists.values():
            assert clarity(toy_index, rm1(toy_index, ranked, k_fb=10)) >= -1e-9

    def test_invariant_under_corpus_duplication(self, toy_docs, toy_queries):
        index = build_index(toy_docs)
        doubled = build_index(toy_docs + [Document(d.doc_id + "_copy", d.text) for d in toy_docs])
        for query in toy_queries[:4]:
            a = clarity(index, rm1(index, retrieve(index, query, k=1000), k_fb=10_000))
            b = clarity(doubled, rm1(doubled, retrieve(doubled, query, k=1000), k_fb=10_000))
            assert b == pytest.approx(a, abs=1e-9)


class TestWig:
    def test_zero_gap(self):
        index = build_index(_docs("t " + " ".join(["x"] * 99)))
        cl = math.log(index.cf["t"] / index.total_tokens)
        ranked = RankedList("q", (("d1", cl), ("d2", cl)))
        assert wig(index, ["t"], ranked, k=5) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        index = build_index(_docs("t " + " ".join(["x"] * 99)))
        cl = math.log(0.01)
        ranked = RankedList("q", (("d1", -4.4331),))
        expected = -4.4331 - cl
        assert wig(index, ["t"], ranked, k=5) == pytest.approx(expected, abs=1e-12)
        assert wig(index, ["t"], ranked, k=5) == pytest.approx(0.1721, abs=1e-3)

    def test_query_length_scaling(self):
        # four query terms with identical statistics: the same per-doc gap
        # is scaled by 1/sqrt(4) instead of 1/sqrt(1)
        docs = _docs("a b c d " + " ".join(["x"] * 96))
        index = build_index(docs)
        cl1 = math.log(index.cf["a"] / index.total_tokens)
        cl4 = 4 * cl1
        delta = 2.5
        one = wig(index, ["a"], RankedList("q", (("d1", cl1 + delta),)))
        four = wig(index, ["a", "b", "c", "d"], RankedList("q", (("d1", cl4 + delta),)))
        assert four == pytest.approx(one / 2, rel=1e-12)

    def test_invariant_under_corpus_duplication(self, toy_docs, toy_queries):
        index = build_index(toy_docs)
        doubled = build_index(toy_docs + [Document(d.doc_id + "_copy", d.text) for d in toy_docs])
        for query in toy_queries[:4]:
            a = wig(index, query, retrieve(index, query, k=1000), k=10_000)
            b = wig(doubled, query, retrieve(doubled, query, k=1000), k=10_000)
            assert b == pytest.approx(a, abs=1e-9)

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_depth_rejected(self, toy_index, toy_queries, ranked_lists, k):
        # k = 0 divided by zero, and a negative k sliced from the end of the list
        query = toy_queries[0]
        with pytest.raises(ValueError, match="k must be >= 1"):
            wig(toy_index, query, ranked_lists[query.query_id], k=k)


class TestNqc:
    def test_identical_scores_zero(self, toy_index):
        ranked = RankedList("q", (("d1", -2.0), ("d2", -2.0), ("d3", -2.0)))
        assert nqc(toy_index, ["galaxy"], ranked) == 0.0

    def test_formula(self, toy_index):
        ranked = RankedList("q", (("d1", -1.0), ("d2", -3.0)))
        cl = math.log(toy_index.cf["galaxy"] / toy_index.total_tokens)
        assert nqc(toy_index, ["galaxy"], ranked) == pytest.approx(1.0 / abs(cl), rel=1e-12)

    def test_single_doc_zero(self, toy_index):
        ranked = RankedList("q", (("d1", -1.0),))
        assert nqc(toy_index, ["galaxy"], ranked) == 0.0

    def test_zero_collection_likelihood_rejected(self):
        index = build_index(_docs("t t t", "t"))
        ranked = RankedList("q", (("d1", -1.0), ("d2", -2.0)))
        with pytest.raises(DegenerateQueryError):
            nqc(index, ["t"], ranked)

    def test_nonnegative_on_toy(self, toy_index, toy_queries, ranked_lists):
        for query in toy_queries:
            assert nqc(toy_index, query, ranked_lists[query.query_id], k=10) >= 0.0

    def test_invariant_under_corpus_duplication(self, toy_docs, toy_queries):
        index = build_index(toy_docs)
        doubled = build_index(toy_docs + [Document(d.doc_id + "_copy", d.text) for d in toy_docs])
        for query in toy_queries[:4]:
            a = nqc(index, query, retrieve(index, query, k=1000), k=10_000)
            b = nqc(doubled, query, retrieve(doubled, query, k=1000), k=10_000)
            assert b == pytest.approx(a, abs=1e-9)

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_depth_rejected(self, toy_index, toy_queries, ranked_lists, k):
        # k = 0 divided by zero, and a negative k sliced from the end of the list
        query = toy_queries[0]
        with pytest.raises(ValueError, match="k must be >= 1"):
            nqc(toy_index, query, ranked_lists[query.query_id], k=k)


class TestUef:
    """UEF-X = similarity x X, as composed by compute_post_scores."""

    def test_two_docs_give_unit_similarity(self):
        # with two distinct docs any non-constant vectors correlate at +-1
        index = build_index(_docs("a a a b", "a c", "x y"))
        query = Query("q", ("a",))
        ranked = retrieve(index, query)
        assert len(ranked) == 2
        sim = rm_rerank_similarity(index, ranked, rm1(index, ranked, k_fb=10), m=10)
        assert abs(sim) == pytest.approx(1.0, abs=1e-12)
        scores = compute_post_scores(index, query, ranked, **TOY_PARAMS)
        for base, base_value in (("NQC", nqc(index, query, ranked, k=10)),
                                 ("WIG", wig(index, query, ranked, k=5))):
            assert scores[f"UEF-{base}"] == pytest.approx(sim * base_value, rel=1e-12)

    def test_identical_docs_undefined(self):
        index = build_index(_docs("a b", "a b", "z z"))
        query = Query("q", ("a",))
        ranked = retrieve(index, query)
        assert rm_rerank_similarity(index, ranked, rm1(index, ranked, k_fb=10), m=10) is None
        scores = compute_post_scores(index, query, ranked, **TOY_PARAMS)
        assert [scores[f"UEF-{b}"] for b in ("NQC", "WIG", "Clarity")] == [None] * 3

    def test_equal_original_scores_undefined(self):
        # six equal scores whose mean rounds off 0.4, over documents the
        # relevance model scores differently
        index = build_index(_docs("a b", "a c c", "a d", "a b e", "a f f f", "a g"))
        ranked = RankedList("q", tuple((f"d{i + 1}", 0.4) for i in range(6)))
        model = rm1(index, ranked, k_fb=6)
        assert rm_rerank_similarity(index, ranked, model, m=10, metric="pearson") is None

    def test_recomposition_on_toy(self, toy_index, toy_queries, ranked_lists):
        for query in toy_queries:
            ranked = ranked_lists[query.query_id]
            model = rm1(toy_index, ranked, k_fb=10, mu=1000)
            sim = rm_rerank_similarity(toy_index, ranked, model, m=10)
            scores = compute_post_scores(toy_index, query, ranked, **TOY_PARAMS)
            for base, base_value in (
                ("NQC", nqc(toy_index, query, ranked, k=10)),
                ("WIG", wig(toy_index, query, ranked, k=5)),
                ("Clarity", clarity(toy_index, model)),
            ):
                assert scores[f"UEF-{base}"] == pytest.approx(sim * base_value, rel=1e-12)

    def test_kendall_similarity_option(self, toy_index, toy_queries, ranked_lists):
        query = toy_queries[0]
        ranked = ranked_lists[query.query_id]
        sim = rm_rerank_similarity(toy_index, ranked, rm1(toy_index, ranked, k_fb=10), m=10,
                                   metric="kendall")
        assert sim is not None and -1.0 <= sim <= 1.0
        scores = compute_post_scores(toy_index, query, ranked, **TOY_PARAMS, uef_sim="kendall")
        assert scores["UEF-NQC"] == pytest.approx(sim * nqc(toy_index, query, ranked, k=10),
                                                  rel=1e-12)

    def test_unknown_similarity_metric_rejected(self, toy_index, ranked_lists):
        model = rm1(toy_index, ranked_lists["q01"])
        with pytest.raises(ValueError):
            rm_rerank_similarity(toy_index, ranked_lists["q01"], model, metric="cosine")

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_depth_rejected(self, toy_index, ranked_lists, m):
        # a negative m would slice from the end of the list instead
        model = rm1(toy_index, ranked_lists["q01"])
        with pytest.raises(ValueError, match="m must be >= 1"):
            rm_rerank_similarity(toy_index, ranked_lists["q01"], model, m=m)

    @pytest.mark.parametrize("mu", [0, math.inf])
    def test_bad_mu_rejected(self, toy_index, ranked_lists, mu):
        model = rm1(toy_index, ranked_lists["q01"], k_fb=10)
        with pytest.raises(ValueError, match="mu must be > 0 and finite"):
            rm_rerank_similarity(toy_index, ranked_lists["q01"], mu=mu, model=model)

    @pytest.mark.parametrize("option,match", [
        (dict(metric="cosine"), "unknown similarity metric"),
        (dict(mu=-5.0), "mu must be > 0 and finite"),
    ], ids=["metric", "mu"])
    @pytest.mark.parametrize("length", [0, 1])
    def test_bad_options_rejected_on_a_short_list(self, toy_index, ranked_lists, option, match,
                                                  length):
        # a list of fewer than two documents has no similarity, but its options are checked
        ranked = ranked_lists["q01"]
        model = rm1(toy_index, ranked, k_fb=10)
        short = RankedList("q01", ranked.entries[:length])
        assert rm_rerank_similarity(toy_index, short, model, m=10) is None
        with pytest.raises(ValueError, match=match):
            rm_rerank_similarity(toy_index, short, model, m=10, **option)


class TestComputePostScores:
    def test_canonical_names(self, toy_index, toy_queries, ranked_lists):
        scores = compute_post_scores(toy_index, toy_queries[0], ranked_lists["q01"],
                                     **TOY_PARAMS)
        assert tuple(scores.keys()) == POST_PREDICTORS

    def test_matches_individual_calls(self, toy_index, toy_queries, ranked_lists):
        query = toy_queries[3]
        ranked = ranked_lists[query.query_id]
        scores = compute_post_scores(toy_index, query, ranked, **TOY_PARAMS)
        assert scores["NQC"] == nqc(toy_index, query, ranked, k=10)
        assert scores["WIG"] == wig(toy_index, query, ranked, k=5)
        assert scores["Clarity"] == pytest.approx(
            clarity(toy_index, rm1(toy_index, ranked, k_fb=10)), abs=1e-12)

    @pytest.mark.parametrize("params", [{}, dict(TOY_PARAMS, mu=37.5)], ids=["defaults", "toy-mu37.5"])
    def test_bits_independent_of_query_order(self, random_corpus, params):
        # the index's tf = 0 log tables fill query by query; a table whose contents
        # followed the order would change a value's last bits here
        index, queries = random_corpus

        def hexes(order):
            fresh = Index(index.terms, index.doc_ids, index.by_term, index.by_doc)
            found = {}
            for query in order:
                ranked = retrieve(fresh, query, k=1000, mu=params.get("mu", 1000.0))
                scores = compute_post_scores(fresh, query, ranked, **params)
                found[query.query_id] = {name: None if value is None else value.hex()
                                         for name, value in scores.items()}
            return found

        forward = hexes(queries)
        assert any(v is not None for scores in forward.values() for v in scores.values())
        assert forward == hexes(queries[::-1])
