import math
import random
import statistics
import sys
import tracemalloc
from fractions import Fraction

import pytest

from qppfuse.corpus import Document, SenseLexicon, build_index, dump_stats
from qppfuse.pre_retrieval import (
    _exact_pstdev,
    PRE_PREDICTORS,
    compute_pre_scores,
    idf_family,
    polysemy,
    scq_family,
    term_weight_std,
    var_family,
    write_scores_long,
    write_scores_wide,
)
from tests.brute_force_reference import postings, read_stats_dump


def _docs(*texts):
    return [Document(f"d{i+1}", t) for i, t in enumerate(texts)]


class TestIdfFamily:
    def test_term_in_every_doc_scores_zero(self):
        index = build_index(_docs("t a", "t b", "t c"))
        assert idf_family(index, ["t"]) == (0.0, 0.0, 1)

    def test_single_rare_term(self):
        index = build_index(_docs("t", *(["x"] * 99)))
        avg, mx, n = idf_family(index, ["t"])
        assert avg == mx == pytest.approx(math.log(100), abs=1e-12)
        assert mx == pytest.approx(4.6052, abs=1e-4)

    def test_two_term_mean_and_max(self):
        # N=4: u in 1 doc -> idf ln4; v in 2 docs -> idf ln2
        index = build_index(_docs("u v", "v", "x", "x"))
        avg, mx, n = idf_family(index, ["u", "v"])
        assert avg == pytest.approx((math.log(4) + math.log(2)) / 2, abs=1e-12)
        assert avg == pytest.approx(1.0397, abs=1e-4)
        assert mx == pytest.approx(1.3863, abs=1e-4)
        assert n == 2

    def test_unseen_terms_flagged(self):
        index = build_index(_docs("a"))
        assert idf_family(index, ["zzz"]) == (0.0, 0.0, 0)


class TestScqFamily:
    def test_singleton_corpus(self):
        index = build_index(_docs("t"))
        total, avg, mx, n = scq_family(index, ["t"])
        assert total == avg == mx == pytest.approx(math.log(2), abs=1e-12)
        assert mx == pytest.approx(0.6931, abs=1e-4)

    def test_equal_terms_family_identity(self):
        # u and v are interchangeable by construction
        index = build_index(_docs("u v", "u v", "x"))
        total, avg, mx, n = scq_family(index, ["u", "v"])
        s = (1 + math.log(2)) * math.log(1 + 3 / 2)
        assert total == pytest.approx(2 * s, abs=1e-12)
        assert avg == pytest.approx(s, abs=1e-12)
        assert mx == pytest.approx(s, abs=1e-12)

    def test_absent_terms_excluded(self):
        index = build_index(_docs("a"))
        assert scq_family(index, ["zzz", "yyy"]) == (0.0, 0.0, 0.0, 0)


class TestVarFamily:
    def test_single_posting_zero(self):
        index = build_index(_docs("t t t", "x"))
        assert term_weight_std(index, "t") == 0.0
        assert var_family(index, ["t"]) == (0.0, 0.0, 0.0, 1)

    def test_identical_tf_zero(self):
        index = build_index(_docs("t a", "t b", "x y"))
        assert term_weight_std(index, "t") == 0.0

    def test_hand_computed_std(self):
        # t in d1 once, d2 twice; N=4 so idf = ln 2
        index = build_index(_docs("t", "t t", "x", "y"))
        idf = math.log(2)
        w1, w2 = 1.0 * idf, (1 + math.log(2)) * idf
        expected = abs(w2 - w1) / 2  # population std of two points
        assert term_weight_std(index, "t") == pytest.approx(expected, abs=1e-12)
        total, avg, mx, n = var_family(index, ["t"])
        assert total == avg == mx == pytest.approx(expected, abs=1e-12)


def _histogram(rng):
    """Distinct tfs (small, medium and up to 10**6) with their posting counts."""
    hist = {}
    for _ in range(rng.randint(1, 30)):
        tf = rng.choice([rng.randint(1, 5), rng.randint(1, 100), rng.randint(1, 10**6)])
        hist[tf] = hist.get(tf, 0) + rng.randint(1, 40)
    return sorted(hist), [hist[tf] for tf in sorted(hist)]


def _weights(tfs, idf):
    return [(1.0 + math.log(tf)) * idf for tf in tfs]


def _per_posting_pstdev(index, term):
    """The per-posting statistics.pstdev that VAR used before."""
    idf = math.log(index.n_docs / index.df[term])
    return statistics.pstdev(_weights(postings(index)[term].values(), idf))


class TestExactStd:
    """VAR's std is exact and correctly rounded; it equals statistics.pstdev where
    that is too (3.11 on) and is checked against exact fractions everywhere."""

    needs_exact_pstdev = pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="Python 3.10's statistics.pstdev rounds the variance to a float before "
               "its square root, so it is not correctly rounded")

    def test_correctly_rounded_against_fractions(self):
        # the float next to the result on either side is no nearer the exact root:
        # the squared midpoints bracket the exact variance
        rng = random.Random(31)
        for _ in range(300):
            tfs, counts = _histogram(rng)
            weights = _weights(tfs, math.log(rng.randint(2, 10**5) / rng.randint(1, 2)))
            n = sum(counts)
            mean = sum(Fraction(w) * c for w, c in zip(weights, counts)) / n
            variance = sum((Fraction(w) - mean) ** 2 * c for w, c in zip(weights, counts)) / n
            root = _exact_pstdev(weights, counts)
            below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
            if root > 0:
                assert ((Fraction(below) + Fraction(root)) / 2) ** 2 <= variance
            assert variance <= ((Fraction(root) + Fraction(above)) / 2) ** 2

    @needs_exact_pstdev
    def test_seeded_histograms(self):
        rng = random.Random(17)
        for _ in range(2000):
            tfs, counts = _histogram(rng)
            weights = _weights(tfs, math.log(rng.randint(2, 10**5) / rng.randint(1, 2)))
            expanded = [w for w, c in zip(weights, counts) for _ in range(c)]
            assert _exact_pstdev(weights, counts) == statistics.pstdev(expanded)

    @needs_exact_pstdev
    @pytest.mark.parametrize("texts", [
        ("t t t", "x"),                   # one posting
        ("t t", "t t x", "t t y", "z"),   # all tfs equal
        ("t", "t t", "t x"),              # df = N: idf 0
        ("t " * 10**6, "t x", "y"),       # a tf of 10**6
    ], ids=["one-posting", "equal-tfs", "idf-zero", "tf-1e6"])
    def test_edge_rows(self, texts):
        index = build_index(_docs(*texts))
        assert term_weight_std(index, "t") == _per_posting_pstdev(index, "t")

    def test_memory_follows_the_row_not_its_largest_tf(self):
        # a histogram sized by the largest tf took 8 MB for this two-posting row
        index = build_index(_docs("t " * 10**6, "t x", "y"))
        index.df, index.term_row  # built and cached before the measurement
        tracemalloc.start()
        try:
            term_weight_std(index, "t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8192 + 64 * index.df["t"]

    @needs_exact_pstdev
    def test_row_of_1e5_postings(self):
        index = build_index([Document(f"d{i:06d}", "t " * (1 + i % 7))
                             for i in range(10**5)] + [Document("z", "x")])
        assert index.df["t"] == 10**5
        assert term_weight_std(index, "t") == _per_posting_pstdev(index, "t")

    @needs_exact_pstdev
    def test_every_toy_term(self, toy_index):
        for term in toy_index.terms:
            assert term_weight_std(toy_index, term) == _per_posting_pstdev(toy_index, term)


class TestPolysemy:
    def test_singleton(self):
        lexicon = SenseLexicon({"dog": (8, 7)})
        assert polysemy(["dog"], lexicon) == (8.0, 7.0, 1)

    def test_two_term_means(self):
        lexicon = SenseLexicon({"a": (4, 1), "b": (2, 1)})
        assert polysemy(["a", "b"], lexicon) == (3.0, 1.0, 2)

    def test_no_lexicon_terms(self):
        lexicon = SenseLexicon({"a": (4, 1)})
        assert polysemy(["zzz"], lexicon) == (0.0, 0.0, 0)


class TestFamilyProperties:
    def test_identities_on_toy(self, toy_index, toy_queries, toy_lexicon):
        for query in toy_queries:
            scq = scq_family(toy_index, query)
            var = var_family(toy_index, query)
            idf = idf_family(toy_index, query)
            for family in (scq, var):
                assert family.sum == pytest.approx(family.avg * family.n_terms, rel=1e-12)
                assert family.max >= family.avg - 1e-12
            assert idf.max >= idf.avg - 1e-12
            # non-negativity: df >= 1 and cf >= 1 force every term score >= 0
            assert idf.avg >= 0 and scq.sum >= 0 and var.sum >= 0

    def test_term_order_invariance(self, toy_index, toy_queries, toy_lexicon):
        rng = random.Random(5)
        for query in toy_queries:
            shuffled = list(query.terms)
            rng.shuffle(shuffled)
            original = compute_pre_scores(toy_index, query, toy_lexicon)
            permuted = compute_pre_scores(toy_index, shuffled, toy_lexicon)
            assert original == permuted

    def test_duplicate_terms_scored_once_by_default(self, toy_index):
        once = idf_family(toy_index, ["galaxy"])
        twice = idf_family(toy_index, ["galaxy", "galaxy"])
        assert once == twice
        multiset = idf_family(toy_index, ["galaxy", "galaxy"], distinct=False)
        assert multiset.n_terms == 2

    def test_stats_dump_recomputation_exact(self, toy_index, toy_queries, toy_lexicon, tmp_path):
        # the dump holds every statistic the predictors read: an index built from
        # its counts alone scores every query exactly as the live one
        path = tmp_path / "stats.txt"
        dump_stats(toy_index, path)
        _, _, doc_len, plists = read_stats_dump(path)
        tokens = {doc_id: [] for doc_id in doc_len}
        for term, plist in plists.items():
            for doc_id, tf in plist.items():
                tokens[doc_id] += [term] * tf
        rebuilt = build_index([Document(d, " ".join(t)) for d, t in tokens.items()])
        assert rebuilt == toy_index
        for query in toy_queries:
            live = compute_pre_scores(toy_index, query, toy_lexicon)
            redone = compute_pre_scores(rebuilt, query, toy_lexicon)
            assert live == redone  # exact equality, not approximate

    def test_canonical_names(self, toy_index, toy_queries, toy_lexicon):
        scores = compute_pre_scores(toy_index, toy_queries[0], toy_lexicon)
        assert tuple(scores.keys()) == PRE_PREDICTORS


class TestScoreFiles:
    def test_long_format(self, tmp_path):
        path = tmp_path / "scores.tsv"
        write_scores_long(path, {"q1": {"AvgIDF": 1.5, "MaxIDF": 2.0}})
        lines = path.read_text().splitlines()
        assert lines[0] == "q1\tAvgIDF\t1.500000"
        assert lines[1] == "q1\tMaxIDF\t2.000000"

    def test_wide_format(self, tmp_path):
        path = tmp_path / "scores.tsv"
        write_scores_wide(path, {"q1": {"AvgIDF": 1.5, "MaxIDF": 2.0}})
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id\tAvgIDF\tMaxIDF"
        assert lines[1] == "q1\t1.500000\t2.000000"
