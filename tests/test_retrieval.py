import math
import random
from collections import Counter

import pytest

from qppfuse.corpus import Document, Qrels, Query, build_index, tokenize
from qppfuse.retrieval import (
    DegenerateQueryError,
    RankedList,
    average_precision,
    collection_likelihood,
    retrieve,
    score_dirichlet,
    write_run_file,
)
from tests.brute_force_reference import postings


@pytest.fixture(scope="module")
def engineered_index():
    """cf(t) = 100, |C| = 10000; d1 holds t twice in 10 tokens, d3 none."""
    d1 = Document("d1", "t t " + " ".join(["x"] * 8))
    d2 = Document("d2", " ".join(["t"] * 98) + " " + " ".join(["y"] * 9882))
    d3 = Document("d3", " ".join(["x"] * 10))
    index = build_index([d1, d2, d3])
    assert index.cf["t"] == 100 and index.total_tokens == 10000
    return index


class TestScoreDirichlet:
    def test_hand_value(self, engineered_index):
        score = score_dirichlet(engineered_index, ["t"], "d1", mu=1000)
        assert score == pytest.approx(math.log(12 / 1010), abs=1e-12)
        assert score == pytest.approx(-4.4328, abs=1e-4)

    def test_zero_tf_background_only(self, engineered_index):
        score = score_dirichlet(engineered_index, ["t"], "d3", mu=1000)
        p = 100 / 10000
        assert score == pytest.approx(math.log(1000 * p / (10 + 1000)), abs=1e-12)

    def test_identical_docs_identical_scores(self):
        index = build_index([Document("a", "t u v"), Document("b", "t u v")])
        assert score_dirichlet(index, ["t"], "a") == score_dirichlet(index, ["t"], "b")

    def test_increasing_in_tf(self):
        rng = random.Random(3)
        for _ in range(20):
            tf_low = rng.randint(0, 5)
            tf_high = tf_low + rng.randint(1, 5)
            filler_len = rng.randint(1, 10)
            docs = [
                Document("low", " ".join(["t"] * tf_low + ["x"] * (10 - tf_low))),
                Document("high", " ".join(["t"] * tf_high + ["x"] * (10 - tf_high))),
                Document("pad", " ".join(["t x"] * filler_len)),
            ]
            index = build_index(docs)
            assert score_dirichlet(index, ["t"], "high") > score_dirichlet(index, ["t"], "low")

    def test_degenerate_query(self, engineered_index):
        with pytest.raises(DegenerateQueryError):
            score_dirichlet(engineered_index, ["unseen"], "d1")

    def test_query_term_multiplicity(self, engineered_index):
        single = score_dirichlet(engineered_index, ["t"], "d1")
        double = score_dirichlet(engineered_index, ["t", "t"], "d1")
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_reads_term_rows_not_postings(self, toy_index, toy_queries):
        # the per-document formula over tfs read from postings dicts, added left to right,
        # with the reference loops' prior (mu * cf) / |C|
        plists = postings(toy_index)

        def by_postings(terms, doc_id, mu):
            dl = toy_index.doc_len[doc_id]
            score = 0.0
            for t, qtf in Counter(t for t in terms if t in toy_index.cf).items():
                score += qtf * math.log((plists[t].get(doc_id, 0)
                                         + (mu * toy_index.cf[t]) / toy_index.total_tokens) / (dl + mu))
            return score

        cases = [(q.terms, d, mu) for q in toy_queries if any(t in toy_index.cf for t in q.terms)
                 for d in toy_index.doc_ids for mu in (1000.0, 2.5)]
        expected = [by_postings(*case) for case in cases]
        assert [score_dirichlet(toy_index, terms, d, mu=mu) for terms, d, mu in cases] == expected

    @pytest.mark.parametrize("mu", [1000.0, 37.5, 2.5])
    def test_equals_retrieve_bit_for_bit(self, toy_index, toy_queries, mu):
        # one Dirichlet formula: a second one differed in the last bits on 31 of 366 scores
        pairs = [(score, score_dirichlet(toy_index, query.terms, doc_id, mu=mu))
                 for query in toy_queries
                 for doc_id, score in retrieve(toy_index, query, k=1000, mu=mu).entries]
        assert len(pairs) > 100
        assert [again for _, again in pairs] == [score for score, _ in pairs]

    @pytest.mark.parametrize("mu", [0, -5.0, math.inf, math.nan])
    def test_bad_mu(self, engineered_index, mu):
        with pytest.raises(ValueError, match="mu must be > 0 and finite"):
            score_dirichlet(engineered_index, ["t"], "d1", mu=mu)


class TestRetrieve:
    def test_two_doc_ranking(self):
        index = build_index([Document("d1", "a a"), Document("d2", "a b")])
        ranked = retrieve(index, Query("q", ("a",)), k=10)
        assert ranked.doc_ids == ["d1", "d2"]  # higher tf, equal length

    def test_absent_term(self):
        index = build_index([Document("d1", "a")])
        ranked = retrieve(index, Query("q", ("zzz",)), k=10)
        assert len(ranked) == 0 and ranked.degenerate

    def test_k_cutoff(self):
        index = build_index([Document(f"d{i}", "a b") for i in range(5)])
        ranked = retrieve(index, Query("q", ("a",)), k=1)
        assert len(ranked) == 1

    @pytest.mark.parametrize("mu", [0, -5.0, math.inf, math.nan])
    def test_bad_mu(self, mu):
        index = build_index([Document("d1", "a a"), Document("d2", "a b")])
        with pytest.raises(ValueError, match="mu must be > 0 and finite"):
            retrieve(index, Query("q", ("a",)), mu=mu)

    def test_tie_broken_by_doc_id(self):
        index = build_index([Document("dB", "a x"), Document("dA", "a x")])
        ranked = retrieve(index, Query("q", ("a",)), k=10)
        assert ranked.doc_ids == ["dA", "dB"]

    def test_rerun_identical(self, toy_index, toy_queries):
        for query in toy_queries[:4]:
            assert retrieve(toy_index, query) == retrieve(toy_index, query)

    def test_scores_sorted_descending(self, toy_index, toy_queries):
        for query in toy_queries:
            ranked = retrieve(toy_index, query)
            scores = ranked.scores
            assert scores == sorted(scores, reverse=True)
            assert all(math.isfinite(s) for s in scores)

    def test_only_docs_with_query_terms(self, toy_index, toy_queries):
        query = toy_queries[0]
        ranked = retrieve(toy_index, query)
        plists, term_docs = postings(toy_index), set()
        for term in query.terms:
            term_docs.update(plists.get(term, {}))
        assert set(ranked.doc_ids) <= term_docs

    def test_removing_unrelated_doc_with_stats_fixed(self, toy_docs, toy_index, toy_queries):
        # replace a document holding no query term by as many tokens of a
        # fresh term: N, |C|, every doc length and every query term's cf stay
        # the same, so every retrieved score must be bit-identical
        query = toy_queries[0]
        before = retrieve(toy_index, query)
        victim = next(d for d in toy_docs
                      if tokenize(d.text) and not set(tokenize(d.text)) & set(query.terms))
        assert victim.doc_id not in before.doc_ids and "zzfresh" not in toy_index.cf
        docs = [Document(d.doc_id, " ".join(["zzfresh"] * len(tokenize(d.text))))
                if d is victim else d for d in toy_docs]
        replaced = build_index(docs)
        assert (replaced.n_docs, replaced.total_tokens) == (toy_index.n_docs, toy_index.total_tokens)
        assert all(replaced.cf[t] == toy_index.cf[t] for t in query.terms if t in toy_index.cf)
        after = retrieve(replaced, query)
        assert after.entries == before.entries


class TestCollectionLikelihood:
    def test_hand_value(self, engineered_index):
        assert collection_likelihood(engineered_index, ["t"]) == pytest.approx(
            math.log(0.01), abs=1e-12)

    def test_linear_in_qtf(self, engineered_index):
        one = collection_likelihood(engineered_index, ["t"])
        two = collection_likelihood(engineered_index, ["t", "t"])
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_all_unseen(self, engineered_index):
        with pytest.raises(DegenerateQueryError):
            collection_likelihood(engineered_index, ["nope", "nada"])


def _ranked(qid, *doc_ids):
    return RankedList(qid, tuple((d, -float(i)) for i, d in enumerate(doc_ids)))


class TestAveragePrecision:
    def test_repeated_document_rejected(self):
        # a relevant document listed twice would count twice: AP 2.0 here
        with pytest.raises(ValueError, match="query 'q' repeats a doc_id"):
            RankedList("q", (("d1", -1.0), ("d1", -1.0), ("d2", -2.0)))

    def test_single_relevant_at_rank_1(self):
        qrels = Qrels({("q", "d1"): 1})
        assert average_precision(_ranked("q", "d1", "d2"), qrels) == 1.0

    def test_single_relevant_at_rank_2(self):
        qrels = Qrels({("q", "d2"): 1})
        assert average_precision(_ranked("q", "d1", "d2"), qrels) == 0.5

    def test_two_relevant_ranks_1_and_3(self):
        qrels = Qrels({("q", "d1"): 1, ("q", "d3"): 2})
        ap = average_precision(_ranked("q", "d1", "d2", "d3"), qrels)
        assert ap == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)
        assert ap == pytest.approx(0.8333, abs=1e-4)

    def test_unretrieved_relevant_counts_in_r(self):
        qrels = Qrels({("q", "d1"): 1, ("q", "missing"): 1})
        assert average_precision(_ranked("q", "d1", "d2"), qrels) == 0.5

    def test_no_relevant_is_undefined(self):
        qrels = Qrels({("q", "d1"): 0})
        assert average_precision(_ranked("q", "d1"), qrels) is None

    def test_cutoff(self):
        qrels = Qrels({("q", "d3"): 1})
        assert average_precision(_ranked("q", "d1", "d2", "d3"), qrels, cutoff=2) == 0.0

    @pytest.mark.parametrize("cutoff", [0, -1])
    @pytest.mark.parametrize("qrels", [Qrels({("q", "d2"): 1}), Qrels({("q", "d1"): 0})],
                             ids=["relevant", "none-relevant"])
    def test_nonpositive_cutoff_rejected(self, qrels, cutoff):
        # a negative cutoff would slice from the end of the list
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            average_precision(_ranked("q", "d1", "d2", "d3"), qrels, cutoff=cutoff)

    def test_one_iff_relevant_prefix(self):
        rng = random.Random(11)
        for _ in range(30):
            n_rel = rng.randint(1, 4)
            n_other = rng.randint(0, 4)
            ids = [f"r{i}" for i in range(n_rel)] + [f"x{i}" for i in range(n_other)]
            rng.shuffle(ids)
            qrels = Qrels({("q", f"r{i}"): 1 for i in range(n_rel)})
            ap = average_precision(_ranked("q", *ids), qrels)
            prefix_is_relevant = all(d.startswith("r") for d in ids[:n_rel])
            assert (ap == 1.0) == prefix_is_relevant

    def test_judged_non_relevant_is_not_a_hit(self):
        qrels = Qrels({("q", "d1"): 0, ("q", "d2"): 1, ("other", "d1"): 1})
        assert average_precision(_ranked("q", "d1", "d2"), qrels) == 0.5

    def test_same_bits_as_the_grade_lookup(self, toy_index, toy_queries, toy_qrels):
        for query in toy_queries:
            ranked = retrieve(toy_index, query)
            hits, precision_sum = 0, 0.0
            for rank, (doc_id, _) in enumerate(ranked.entries, start=1):
                if toy_qrels.grade(query.query_id, doc_id) > 0:
                    hits += 1
                    precision_sum += hits / rank
            n_relevant = toy_qrels.num_relevant(query.query_id)
            expected = precision_sum / n_relevant if n_relevant else None
            assert average_precision(ranked, toy_qrels) == expected

    def test_in_unit_interval_on_toy(self, toy_index, toy_queries, toy_qrels):
        for query in toy_queries:
            ranked = retrieve(toy_index, query)
            ap = average_precision(ranked, toy_qrels)
            assert ap is None or 0.0 <= ap <= 1.0


class TestRunFile:
    def test_format(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run_file(path, [_ranked("q1", "d2", "d1")], tag="tagx")
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["q1", "Q0", "d2", "1", "-0.000000", "tagx"]
        assert lines[1].split() == ["q1", "Q0", "d1", "2", "-1.000000", "tagx"]
