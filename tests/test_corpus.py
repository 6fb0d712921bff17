import copy
import dataclasses
import gc
import json
import logging
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qppfuse.corpus import (
    CorpusError,
    Document,
    Index,
    Qrels,
    SenseLexicon,
    TokenizerConfig,
    build_index,
    dump_stats,
    ingest,
    load_lexicon,
    load_qrels,
    load_queries,
    tokenize,
)
from qppfuse import corpus
from qppfuse.corpus import _s_stem, key_dtype
from qppfuse.retrieval import retrieve
from tests import brute_force_reference

SRC = Path(__file__).resolve().parents[1] / "src"

# ASCII controls (\x1c-\x1f are str.split() whitespace), Latin-1 letters,
# İ (lowercases to two code points), the Kelvin sign (lowercases to ASCII k),
# long s, a ligature, a combining dot, the ideographic space, a non-BMP emoji
# and a lone surrogate
_TOKENIZER_POOL = ([chr(c) for c in range(0x20)] + ["\x7f"] + list(" \t\n.,-'!")
                   + list("abcXYZ019") + [chr(c) for c in range(0xC0, 0x100)]
                   + ["\u0130", "\u0131", "\u212a", "\u017f", "\ufb01", "\u0307", "\u3000",
                      "\U0001f600", "\ud800"])


def _regex_tokens(text, config):
    # the rule tokenize implements, written the way the test oracle writes it
    if config.lowercase:
        text = text.lower()
    tokens = [t for t in re.split(r"[^0-9a-zA-Z]+", text) if t]
    tokens = [t for t in tokens if t not in config.stopwords]
    if config.stem:
        tokens = [_s_stem(t) for t in tokens]
    return tokens


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The Dog, ran!") == ["the", "dog", "ran"]

    def test_empty(self):
        assert tokenize("") == []

    def test_split_on_non_alnum(self):
        assert tokenize("C-3PO") == ["c", "3po"]

    def test_no_lowercase(self):
        config = TokenizerConfig(lowercase=False)
        assert tokenize("The Dog", config) == ["The", "Dog"]

    def test_stopwords(self):
        config = TokenizerConfig(stopwords=frozenset({"the"}))
        assert tokenize("the dog the cat", config) == ["dog", "cat"]

    def test_stopwords_lowercased_with_tokens(self):
        config = TokenizerConfig(stopwords=frozenset({"The", "AND"}))
        assert config.stopwords == frozenset({"the", "and"})
        assert tokenize("The dog and THE cat", config) == ["dog", "cat"]

    def test_stopwords_keep_case_without_lowercase(self):
        config = TokenizerConfig(lowercase=False, stopwords=frozenset({"The"}))
        assert config.stopwords == frozenset({"The"})
        assert tokenize("The dog the cat", config) == ["dog", "the", "cat"]

    def test_unmatchable_stopwords_warn_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="qppfuse.corpus"):
            config = TokenizerConfig(stopwords=frozenset({"don't", "caf\u00e9", "", "the"}))
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["3 stopword entries are not single tokens and can never match"]
        assert config.stopwords == frozenset({"don't", "caf\u00e9", "", "the"})
        assert tokenize("don't stop the cafe", config) == ["don", "t", "stop", "cafe"]

    def test_single_token_stopwords_do_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="qppfuse.corpus"):
            TokenizerConfig(stopwords=frozenset({"The", "a1"}))
            TokenizerConfig(split_non_alnum=False, stopwords=frozenset({"don't"}))
        assert caplog.records == []

    @pytest.mark.parametrize("config", [
        TokenizerConfig(),
        TokenizerConfig(lowercase=False),
        TokenizerConfig(stem=True, stopwords=frozenset({"a", "Ab", "b1"})),
        TokenizerConfig(lowercase=False, stem=True, stopwords=frozenset({"a", "Ab", "b1"})),
    ], ids=["default", "no-lowercase", "stem-stopwords", "no-lowercase-stem-stopwords"])
    def test_matches_regex_rule(self, config):
        rng = random.Random(19)
        for _ in range(3_000):
            text = "".join(rng.choices(_TOKENIZER_POOL, k=rng.randint(0, 40)))
            assert tokenize(text, config) == _regex_tokens(text, config), repr(text)
            if config == TokenizerConfig():
                assert tokenize(text) == brute_force_reference.tokenize(text), repr(text)

    def test_stemmer(self):
        config = TokenizerConfig(stem=True)
        assert tokenize("galaxies planets pass", config) == ["galaxy", "planet", "pass"]

    def test_deterministic(self):
        text = "Repeat-Able text, 123 times!"
        assert tokenize(text) == tokenize(text)


class TestIngest:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1","text":"a b"}\n')
        docs = list(ingest(path, "jsonl"))
        assert docs == [Document("d1", "a b")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("")
        assert list(ingest(path, "jsonl")) == []

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1","text":"a"}\n{"id":"d1","text":"b"}\n')
        with pytest.raises(CorpusError, match="duplicate"):
            list(ingest(path, "jsonl"))

    _TREC_DOC = "<DOC>\n<DOCNO>{}</DOCNO>\n<TEXT>{}</TEXT>\n</DOC>\n"

    @pytest.mark.parametrize("fmt, text, line", [
        ("jsonl", '{"id":"d1","text":"a"}\n\n{"id":"d1","text":"b"}\n', 3),
        ("tsv", "d1\ta\nd2\tb\nd1\tc\n", 3),
        ("trec", _TREC_DOC.format("d1", "a") + _TREC_DOC.format("d1", "b"), 5),
    ], ids=["jsonl", "tsv", "trec"])
    def test_duplicate_id_reports_line(self, tmp_path, fmt, text, line):
        path = tmp_path / f"docs.{fmt}"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"docs\.{fmt}:{line}: duplicate doc_id 'd1'$"):
            list(ingest(path, fmt))

    @pytest.mark.parametrize("fmt, text, line", [
        ("jsonl", '{"id":"d1","text":"a"}\n{"id":"","text":"b"}\n', 2),
        ("tsv", "d1\ta\n\tb\n", 2),
        ("trec", _TREC_DOC.format("d1", "a") + _TREC_DOC.format(" ", "b"), 5),
    ], ids=["jsonl", "tsv", "trec"])
    def test_empty_id_reports_line(self, tmp_path, fmt, text, line):
        path = tmp_path / f"docs.{fmt}"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"docs\.{fmt}:{line}: empty doc_id$"):
            list(ingest(path, fmt))

    @pytest.mark.parametrize("fmt, text, line, doc_id", [
        ("jsonl", '{"id":"d1","text":"a"}\n{"id":"doc 1","text":"b"}\n', 2, "doc 1"),
        ("jsonl", '{"id":"d1","text":"a"}\n{"id":"doc\\t2","text":"b"}\n', 2, "doc\t2"),
        ("tsv", "d1\ta\ndoc\x1c2\tb\n", 2, "doc\x1c2"),
        ("trec", _TREC_DOC.format("d1", "a") + _TREC_DOC.format("doc 3", "b"), 5, "doc 3"),
    ], ids=["jsonl-space", "jsonl-tab", "tsv", "trec"])
    def test_whitespace_id_reports_line(self, tmp_path, fmt, text, line, doc_id):
        # a run line "q1 Q0 doc 1 1 -0.8 tag" could never match a qrels line
        path = tmp_path / f"docs.{fmt}"
        path.write_text(text)
        with pytest.raises(CorpusError) as err:
            list(ingest(path, fmt))
        assert str(err.value) == f"{path}:{line}: doc_id {doc_id!r} contains whitespace"

    @pytest.mark.parametrize("bad, message", [
        ("<DOC>\n<TEXT>x</TEXT>\n</DOC>\n", "<DOC> without <DOCNO>"),
        ("<DOC>\n<DOCNO>d7</DOCNO>\n</DOC>\n", "<DOC> without <TEXT>"),
        (_TREC_DOC.format("d7", "again"), "duplicate doc_id 'd7'"),
        (_TREC_DOC.format(" ", "b"), "empty doc_id"),
    ], ids=["no-docno", "no-text", "duplicate", "empty-id"])
    def test_trec_error_deep_in_file_reports_line(self, tmp_path, bad, message):
        # 2,000 documents of 4 to 6 lines each, then the bad one
        good = "".join(self._TREC_DOC.format(f"d{i}", "w\n" * (i % 3) + "w")
                       for i in range(2000))
        line = good.count("\n") + 1
        path = tmp_path / "docs.trec"
        path.write_text(good + bad + self._TREC_DOC.format("d9999", "tail"))
        with pytest.raises(CorpusError) as err:
            list(ingest(path, "trec"))
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1","text":"a"}\nnot json\n')
        with pytest.raises(CorpusError, match=":2:"):
            list(ingest(path, "jsonl"))

    def test_trec(self, tmp_path):
        path = tmp_path / "docs.trec"
        path.write_text(
            "<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>hello world</TEXT>\n</DOC>\n"
            "<DOC>\n<DOCNO>d2</DOCNO>\n<TEXT>more text</TEXT>\n</DOC>\n"
        )
        docs = list(ingest(path, "trec"))
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs[0].text == "hello world"

    def test_tsv(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("d1\tsome text\nd2\tmore text\n")
        docs = list(ingest(path, "tsv"))
        assert docs == [Document("d1", "some text"), Document("d2", "more text")]

    @pytest.mark.parametrize("line", [
        '"valid text"',
        "5",
        '{"id": null, "text": "a b"}',
        '{"id": "d3", "text": null}',
        '{"id": true, "text": "a b"}',
        '{"id": "d3", "text": 7}',
        '{"id": "d3", "text": "caf\\ud800 x"}',  # lone surrogates, which UTF-8 cannot encode
        '{"id": "d\\udfff", "text": "x"}',
        '{"id": "d3", "text": "\u00e9\\udc00"}',
    ], ids=["string", "number", "null-id", "null-text", "bool-id", "number-text",
            "surrogate-text", "surrogate-id", "surrogate-after-non-ascii"])
    def test_bad_record_reports_line(self, tmp_path, line):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1","text":"a"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":2: "):
            list(ingest(path, "jsonl"))

    def test_integer_id_becomes_string(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": 7, "text": "a b"}\n')
        assert list(ingest(path, "jsonl")) == [Document("7", "a b")]

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("")
        with pytest.raises(CorpusError, match="format"):
            ingest(path, "xml")  # when called, not when iterated
        with pytest.raises(CorpusError, match="format"):
            ingest(tmp_path / "missing", "xml")

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv", "trec"])
    def test_missing_file_raises_on_iteration(self, tmp_path, fmt):
        docs = ingest(tmp_path / "missing", fmt)
        with pytest.raises(FileNotFoundError):
            next(docs)

    @pytest.mark.parametrize("fmt, good, bad, line", [
        ("jsonl", '{{"id": "d{}", "text": "a b"}}\n', "not json\n", 5),
        ("tsv", "d{}\ta b\n", "no tab\n", 5),
        ("trec", _TREC_DOC.format("d{}", "a b"), "<DOC>\n<TEXT>x</TEXT>\n</DOC>\n", 17),
    ], ids=["jsonl", "tsv", "trec"])
    def test_documents_before_a_malformed_record_are_yielded(self, tmp_path, fmt, good, bad, line):
        # the malformed record is the fifth: four documents come first, then path:line
        path = tmp_path / f"docs.{fmt}"
        path.write_text("".join(good.format(i) for i in range(4)) + bad + good.format(9))
        docs, read = ingest(path, fmt), []
        with pytest.raises(CorpusError) as err:
            for doc in docs:
                read.append(doc)
        assert read == [Document(f"d{i}", "a b") for i in range(4)]
        assert str(err.value).startswith(f"{path}:{line}: ")

    def test_surrogate_pair_escape_is_one_character(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "text": "a \\ud83d\\ude00 b"}\n')
        assert list(ingest(path, "jsonl")) == [Document("d1", "a \U0001f600 b")]

    # lines the one-call decoder must not read differently from json.loads: its error
    # text and line for a bad one, its record for a good one
    _PARITY_LINES = {
        "extra-object": '{"id": "d2", "text": "x"} {"id": "d3", "text": "y"}',
        "extra-after-space": '{"id": "d2", "text": "x"}   junk',
        "extra-bracket": '{"id": "d2", "text": "x"}]',
        "extra-number": '1 2',
        "mid-file-bom": '\ufeff{"id": "d2", "text": "x"}',
        "truncated": '{"id": "d2", "text": "x"',
        "not-json": "not json",
        "padded-extra": '\t {"id": "d2", "text": "x"} x \t',
    }

    @pytest.mark.parametrize("line", _PARITY_LINES.values(), ids=_PARITY_LINES.keys())
    def test_invalid_line_reads_as_json_loads_words_it(self, tmp_path, line):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line.strip())
        with pytest.raises(CorpusError) as err:
            list(ingest(path, "jsonl"))
        assert str(err.value) == f"{path}:2: invalid JSON: {expected.value}"

    def test_record_split_over_two_lines_is_invalid_at_its_first(self, tmp_path):
        # decoded as one array of lines, the two would read as two valid records
        first = '{"id": "a", "text": "x"}, {"id": "b", "text": "y", "z": [1'
        assert len(json.loads("[" + ",".join([first, "2]}"]) + "]")) == 2
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n' + first + "\n2]}\n")
        with pytest.raises(CorpusError) as err:
            list(ingest(path, "jsonl"))
        with pytest.raises(json.JSONDecodeError, match="Extra data") as expected:
            json.loads(first)
        assert str(err.value) == f"{path}:2: invalid JSON: {expected.value}"

    @pytest.mark.parametrize("pad", [" ", "\t", "  \t ", "\u3000", "\x1c", "\r"],
                             ids=["space", "tab", "mixed", "ideographic-space", "file-separator",
                                  "carriage-return"])
    def test_whitespace_around_a_record_is_stripped(self, tmp_path, pad):
        path = tmp_path / "docs.jsonl"
        path.write_text(f'{pad}{{"id": "d1", "text": "a b"}}{pad}\n{pad}\n'
                        f'{{"id": 2, "text": " c "}}{pad}\n', encoding="utf-8", newline="")
        assert list(ingest(path, "jsonl")) == [Document("d1", "a b"), Document("2", " c ")]


def _docs(*texts):
    return [Document(f"d{i+1}", t) for i, t in enumerate(texts)]


def _reference_tokens(text, config):
    # written apart from tokenize, which shares its normaliser with build_index
    if config.split_non_alnum:
        return _regex_tokens(text, config)
    tokens = [t for t in (text.lower() if config.lowercase else text).split()
              if t not in config.stopwords]
    return [_s_stem(t) for t in tokens] if config.stem else tokens


def _reference_build(docs, config=TokenizerConfig()):
    # the setdefault fill and sorted rebuild of the dict-of-dicts index
    doc_len, postings, total = {}, {}, 0
    for doc in sorted(docs, key=lambda d: d.doc_id):
        tokens = _reference_tokens(doc.text, config)
        doc_len[doc.doc_id] = len(tokens)
        total += len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, {})[doc.doc_id] = tf
    return doc_len, {term: postings[term] for term in sorted(postings)}, total


def _reference_dump(docs):
    """dump_stats's bytes for ``docs`` under the default tokenizer, made without the package."""
    tokens = {doc.doc_id: brute_force_reference.tokenize(doc.text) for doc in docs}
    return brute_force_reference.stats_dump(tokens).encode("utf-8")


def _assert_row_layout(cols, tfs):
    assert cols.dtype == np.int32 and tfs.dtype == np.int32
    assert not cols.flags.writeable and not tfs.flags.writeable
    assert (np.diff(cols) > 0).all()


def _assert_rows_layout(rows):
    assert rows.ptr.dtype == np.int64 and not rows.ptr.flags.writeable
    assert rows.ptr[0] == 0 and rows.ptr[-1] == len(rows.cols) == len(rows.tfs)
    for r in range(len(rows.ptr) - 1):
        _assert_row_layout(*rows.row(r))


class TestBuildIndex:
    def test_two_doc_statistics(self):
        index = build_index(_docs("a b", "a"))
        assert index.n_docs == 2
        assert index.total_tokens == 3
        assert index.df["a"] == 2 and index.cf["a"] == 2
        assert index.df["b"] == 1 and index.cf["b"] == 1
        assert index.doc_len["d1"] == 2

    def test_repeated_term(self):
        index = build_index(_docs("a a a"))
        assert index.df["a"] == 1
        assert index.cf["a"] == 3

    def test_postings_ascending(self):
        index = build_index(_docs("a b", "a"))
        assert list(brute_force_reference.postings(index)["a"].items()) == [("d1", 1), ("d2", 1)]

    def test_deterministic(self, toy_docs):
        a = build_index(toy_docs)
        b = build_index(toy_docs)
        assert a == b

    def test_all_empty_docs(self):
        with pytest.raises(CorpusError, match="empty"):
            build_index(_docs("...", "!!!"))

    def test_no_docs(self):
        with pytest.raises(CorpusError, match="empty"):
            build_index([])

    def test_postings_round_trip_random_docs(self):
        # every (term, doc) pair with tf >= 1 appears with that tf, nothing else
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(12)]
        docs = [
            Document(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(1, 30))))
            for i in range(25)
        ]
        index = build_index(docs)
        expected = {}
        for doc in docs:
            for term, tf in Counter(_reference_tokens(doc.text, TokenizerConfig())).items():
                expected[(term, doc.doc_id)] = tf
        actual = {
            (term, doc_id): tf
            for term, plist in brute_force_reference.postings(index).items()
            for doc_id, tf in plist.items()
        }
        assert actual == expected

    def test_input_order_independent(self, tmp_path):
        # ids d1..d40 sort as d1, d10, d11, ..., so input order != doc_id order
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(30)]
        docs = [
            Document(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(1, 40))))
            for i in range(1, 41)
        ]
        shuffled = list(docs)
        rng.shuffle(shuffled)
        assert shuffled != docs
        index, other = build_index(docs), build_index(shuffled)
        assert other == index
        for term, plist in brute_force_reference.postings(other).items():
            assert list(plist) == sorted(plist), term
        dump_stats(index, tmp_path / "a.txt")
        dump_stats(other, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_matches_reference_build(self, toy_docs, tmp_path):
        rng = random.Random(23)
        vocab = [f"w{i}" for i in range(150)] + ["\u00e9t\u00e9", "C-3PO", "don't", "\u212aelvin"]
        synthetic = [Document(f"s{rng.randrange(10**6):06d}-{i}",
                              " ".join(rng.choices(vocab, k=rng.randint(0, 60))))
                     for i in range(300)]
        for docs in (toy_docs, synthetic):
            index = build_index(docs)
            doc_len, postings, total = _reference_build(docs)
            for rows in (index.by_term, index.by_doc):
                _assert_rows_layout(rows)
            plists = brute_force_reference.postings(index)
            assert list(plists) == list(postings)
            for term, plist in postings.items():
                _assert_row_layout(*index.by_term.row(index.term_row[term]))
                assert list(plists[term].items()) == list(plist.items()), term
            assert list(index.df.items()) == [(t, len(p)) for t, p in postings.items()]
            assert list(index.cf.items()) == [(t, sum(p.values())) for t, p in postings.items()]
            assert list(index.doc_len.items()) == list(doc_len.items())
            assert index.total_tokens == total and index.n_docs == len(docs)
            dump_stats(index, tmp_path / "stats.txt")
            assert (tmp_path / "stats.txt").read_bytes() == _reference_dump(docs)

    def test_duplicate_doc_id(self):
        with pytest.raises(CorpusError, match="duplicate doc_id 'd1'"):
            build_index([Document("d1", "a b"), Document("d1", "c")])

    @pytest.mark.parametrize("doc, split", [
        (Document("d\ud800", "a b"), True),
        (Document("d\udfff", "a b"), False),
        (Document("\u00e9\udc00", "a b"), True),
        (Document("d2", "a \ud800b"), False),
        (Document("d2", "\u00e9 b\udfff"), False),
    ], ids=["id-split", "id-whitespace", "id-after-non-ascii", "text", "text-after-non-ascii"])
    def test_lone_surrogate_is_rejected(self, doc, split):
        # UTF-8 cannot write one: dump_stats would fail part-way through its file
        config = TokenizerConfig(split_non_alnum=split)
        with pytest.raises(CorpusError, match=re.escape(f"document {doc.doc_id!r}: ")):
            build_index([Document("d1", "a"), doc], config)

    def test_lone_surrogate_in_split_text_is_a_separator(self, tmp_path):
        docs = [Document("d1", "a\ud800b \udfff")]
        index = build_index(docs)
        assert index.terms == ("a", "b")
        dump_stats(index, tmp_path / "stats.txt")
        assert (tmp_path / "stats.txt").read_bytes() == _reference_dump(docs)

    def test_build_memory_per_posting(self):
        # one postings structure only: a second copy of every posting (a
        # tuple list beside the dicts, a forward doc -> term index) would
        # roughly double the peak
        rng = np.random.default_rng(5)
        vocab = np.array([f"t{i}" for i in range(5_000)])
        weights = 1.0 / (np.arange(vocab.size) + 2.7)
        draws = rng.choice(vocab.size, size=(2_000, 150), p=weights / weights.sum())
        docs = [Document(f"d{i}", " ".join(vocab[row])) for i, row in enumerate(draws)]
        tracemalloc.start()
        try:
            index = build_index(docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_postings = sum(index.df.values())
        assert n_postings > 200_000
        assert peak / n_postings < 48


def _cells(rows, row_names, col_names):
    """(row name, column name, tf) of every cell, row after row."""
    return [(row_names[r], col_names[c], tf) for r in range(len(row_names))
            for c, tf in zip(*(a.tolist() for a in rows.row(r)))]


class TestArrayIndex:
    STEM_WORDS = ["cats", "cat", "ponies", "pony", "boxes", "glass", "is", "the", "a", "of", "x"]

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_transposes_and_match_reference(self, seed):
        rng = random.Random(seed)
        config = TokenizerConfig(stopwords=frozenset({"The", "a", "of"}), stem=True)
        vocab = self.STEM_WORDS + [f"w{i}" for i in range(rng.randint(1, 40))]
        docs = [Document(f"r{rng.randrange(10**4):04d}-{i}",
                         " ".join(rng.choices(vocab[:rng.randint(1, len(vocab))],
                                              k=rng.randint(1, 50))))
                for i in range(rng.randint(1, 30))]
        docs += [Document("one", "w0"), Document("repeat", "cats cat cats w0 w0"),
                 Document("stopped", "the a of")]  # the last tokenizes empty
        rng.shuffle(docs)
        index = build_index(docs, config)
        doc_len, postings, total = _reference_build(docs, config)
        term_major = _cells(index.by_term, index.terms, index.doc_ids)
        assert term_major == [(t, d, tf) for t, plist in postings.items() for d, tf in plist.items()]
        assert _cells(index.by_doc, index.doc_ids, index.terms) == sorted(
            (d, t, tf) for t, d, tf in term_major)
        assert index.terms == tuple(postings) and index.doc_ids == tuple(doc_len)
        assert index.by_doc.sums.tolist() == list(doc_len.values())
        assert index.doc_len == doc_len and index.total_tokens == total
        assert index.by_doc.row(index.doc_row["stopped"])[0].size == 0

    def test_rows_are_the_only_stored_state(self, toy_index):
        assert [f.name for f in dataclasses.fields(Index)] == ["terms", "doc_ids", "by_term", "by_doc"]
        assert toy_index.n_docs == len(toy_index.doc_ids) == 50
        assert toy_index.total_tokens == sum(toy_index.doc_len.values())
        for name, key in (("df", "comet"), ("cf", "comet"), ("doc_len", toy_index.doc_ids[0])):
            stats = getattr(toy_index, name)
            with pytest.raises(TypeError):
                stats[key] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(toy_index, name, {})
            assert getattr(toy_index, name) is stats and stats[key] > 0

    def test_arrays_are_read_only(self, toy_index):
        for rows in (toy_index.by_term, toy_index.by_doc):
            for array in (rows.ptr, rows.cols, rows.tfs, rows.sums):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        assert toy_index.df["comet"] == len(brute_force_reference.postings(toy_index)["comet"]) > 0

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_run_chunks_and_int64_keys_build_the_same_index(self, monkeypatch, toy_docs, chunk):
        expected = build_index(toy_docs)
        monkeypatch.setattr(corpus, "RUN_CHUNK", chunk)
        index = build_index(toy_docs)
        _assert_identical(index, expected)
        _assert_reference_index(index, toy_docs, TokenizerConfig())
        monkeypatch.setattr(corpus, "key_dtype", lambda n_rows, width: np.int64)
        assert build_index(toy_docs) == expected

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_run_starts_match_unique(self, monkeypatch, chunk):
        # runs that start at, just after and across the RUN_CHUNK boundaries, and no keys
        monkeypatch.setattr(corpus, "RUN_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for size in (0, 1, 2, 7, 8, 15, 60):
            keys = rng.integers(0, 12, size).astype(np.int32)  # 3 rows of width 4
            cells, counts = np.unique(keys, return_counts=True)
            rows = corpus._rows(keys.copy(), 3, 4)
            assert rows.cols.tolist() == (cells % 4).tolist()
            assert rows.tfs.tolist() == counts.tolist()
            assert rows.ptr.tolist() == np.searchsorted(cells, [0, 4, 8, 12]).tolist()
            assert rows.sums.tolist() == np.bincount(keys // 4, minlength=3).tolist()

    @pytest.mark.parametrize("n_rows, width, dtype", [
        (1, 2**31 - 1, np.int32), (2**31 - 1, 1, np.int32), (46_337, 46_337, np.int32),
        (1, 2**31, np.int64), (2**16, 2**15, np.int64), (10**5, 21_475, np.int64),
        (10**5, 21_474, np.int32),
    ])
    def test_key_width(self, n_rows, width, dtype):
        # the largest key is n_rows * width - 1; the row bound n_rows * width must fit too
        assert key_dtype(n_rows, width) is dtype
        assert (n_rows * width <= np.iinfo(np.int32).max) == (dtype is np.int32)


_CONFIGS = [TokenizerConfig(lowercase=lower, split_non_alnum=split, stopwords=stop, stem=stem)
            for lower in (True, False) for split in (True, False)
            for stop, stem in ((frozenset(), False), (frozenset({"a", "Ab", "b1", "the"}), True))]
_CONFIG_IDS = [f"lower{c.lowercase:d}-split{c.split_non_alnum:d}-stem{c.stem:d}" for c in _CONFIGS]


def _pool_docs(seed, n, config):
    """Documents of _TOKENIZER_POOL characters and a few whole words, for ``config``: the
    lone surrogate only where it splits on non-alphanumerics, since a build that keeps
    it in a term rejects it (TestBuildIndex.test_lone_surrogate_is_rejected)."""
    rng = random.Random(seed)
    pool = [c for c in _TOKENIZER_POOL if config.split_non_alnum or c != "\ud800"]
    pool += [" a ", " Ab ", " the ", " cats ", " abcdefghs ", " abcdefgh "]
    return [Document(f"p{i:03d}", "".join(rng.choices(pool, k=rng.randint(0, 60))))
            for i in range(n)]


def _assert_identical(index, other):
    """Same terms, doc_ids and row arrays, dtypes included."""
    assert index.terms == other.terms and index.doc_ids == other.doc_ids
    for rows, other_rows in ((index.by_term, other.by_term), (index.by_doc, other.by_doc)):
        for name in ("ptr", "cols", "tfs", "sums"):
            a, b = getattr(rows, name), getattr(other_rows, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_reference_index(index, docs, config):
    doc_len, postings, total = _reference_build(docs, config)
    assert index.terms == tuple(postings) and index.doc_ids == tuple(doc_len)
    term_major = _cells(index.by_term, index.terms, index.doc_ids)
    assert term_major == [(t, d, tf) for t, plist in postings.items() for d, tf in plist.items()]
    assert _cells(index.by_doc, index.doc_ids, index.terms) == sorted(
        (d, t, tf) for t, d, tf in term_major)
    assert index.by_doc.sums.tolist() == list(doc_len.values())
    assert index.by_term.sums.tolist() == [sum(plist.values()) for plist in postings.values()]
    assert index.total_tokens == total


class TestChunkedBuild:
    """build_index against a tokenizer written in the test, at every config and
    chunk size, and across the 8-byte boundary of the integer word keys."""

    @pytest.mark.parametrize("config", _CONFIGS, ids=_CONFIG_IDS)
    def test_pool_documents_match_reference(self, config):
        docs = _pool_docs(41, 300, config)
        index = build_index(docs, config)
        _assert_reference_index(index, docs, config)
        # the documents are tokenized in input order, and numbered by doc_id at the end
        shuffled = random.Random(5).sample(docs, len(docs))
        _assert_identical(build_index((doc for doc in docs), config), index)
        _assert_identical(build_index(shuffled, config), index)

    @pytest.mark.parametrize("config", [TokenizerConfig(), TokenizerConfig(split_non_alnum=False)],
                             ids=["split", "whitespace"])
    def test_words_of_seven_to_nine_bytes(self, config):
        docs = _docs("abcdefg abcdefgh abcdefghi", "abcdefghi abcdefgh abcdefgh", "abcdefgh",
                     "abcdefghij abcdefg", "\u00e9\u00e9\u00e9\u00e9 \u00e9\u00e9\u00e9\u00e9x")
        index = build_index(docs, config)
        _assert_reference_index(index, docs, config)
        assert [index.cf[t] for t in ("abcdefg", "abcdefgh", "abcdefghi", "abcdefghij")] == [2, 4, 2, 1]
        assert brute_force_reference.postings(index)["abcdefgh"] == {"d1": 1, "d2": 2, "d3": 1}

    def test_long_word_stems_onto_short_term(self):
        config = TokenizerConfig(stem=True)
        docs = _docs("abcdefghs abcdefgh", "abcdefgh", "abcdefghs abcdefghs")
        index = build_index(docs, config)
        assert index.terms == ("abcdefgh",)
        assert brute_force_reference.postings(index)["abcdefgh"] == {"d1": 2, "d2": 1, "d3": 2}
        _assert_reference_index(index, docs, config)

    def test_nul_inside_words(self):
        # zero padding would give "a" and "a\0" one integer key
        config = TokenizerConfig(split_non_alnum=False)
        docs = _docs("a a\0 \0a a\0b \0", "a\0 abcdefg\0 abcdefg", "abcdefgh\0x a")
        index = build_index(docs, config)
        assert index.terms == ("\0", "\0a", "a", "a\0", "a\0b", "abcdefg", "abcdefg\0",
                               "abcdefgh\0x")
        assert index.cf["a"] == 2 and index.cf["a\0"] == 2
        _assert_reference_index(index, docs, config)

    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    def test_empty_document_between_stopword_documents(self, monkeypatch, chunk):
        # an empty document's count is 0, not the next word's, in one chunk or many
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", chunk)
        config = TokenizerConfig(stopwords=frozenset({"the", "a"}))
        docs = _docs("the a the", "", "a", "x the y")
        index = build_index(docs, config)
        assert index.by_doc.sums.tolist() == [0, 0, 0, 2]
        assert [index.by_doc.row(d)[0].size for d in range(4)] == [0, 0, 0, 2]
        _assert_reference_index(index, docs, config)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("config", [TokenizerConfig(), _CONFIGS[-1]],
                             ids=["default", _CONFIG_IDS[-1]])
    def test_chunk_sizes_build_the_same_index(self, monkeypatch, toy_docs, chunk, config):
        rng = random.Random(chunk)
        big = " ".join(rng.choices(["abcdefghi", "x", "the", "A\u00e9", "a\0"], k=500))
        docs = toy_docs[:10] + _pool_docs(chunk, 40, config) + [Document("big", big)]
        expected = build_index(docs, config)
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", chunk)
        index = build_index(docs, config)
        _assert_identical(index, expected)
        _assert_reference_index(index, docs, config)

    def test_word_rule_runs_once_per_distinct_word(self, monkeypatch):
        calls = Counter()
        word_rule = corpus._word_rule

        def counted(word, config):
            calls[word] += 1
            return word_rule(word, config)

        monkeypatch.setattr(corpus, "_word_rule", counted)
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", 64)  # words recur across chunks
        rng = random.Random(3)
        vocab = ["a", "the", "Cats", "cat", "abcdefgh", "abcdefghi", "ponies", "x" * 20]
        docs = [Document(f"d{i:02d}", " ".join(rng.choices(vocab, k=40))) for i in range(30)]
        index = build_index(docs, TokenizerConfig(stopwords=frozenset({"the"}), stem=True))
        assert calls == Counter(w.lower().encode() for w in vocab)
        assert index.terms == ("a", "abcdefgh", "abcdefghi", "cat", "pony", "x" * 20)
        assert index.total_tokens == 1200 - sum(d.text.split().count("the") for d in docs)


def _home(word: bytes, slots: int) -> int:
    """The home slot of a short word, by the multiplicative hash written out in Python
    integers: its bytes zero-padded and read little-endian, times the odd multiplier
    mod 2^64, top log2(slots) bits."""
    key = int.from_bytes(word.ljust(8, b"\0"), "little")
    return (key * int(corpus._HASH) % 2**64) >> (64 - (slots.bit_length() - 1))


def _alpha_words(n, rng, width=(1, 8)):
    """n distinct lowercase words of ``width`` letters, in a seeded order."""
    words = set()
    while len(words) < n:
        words.add("".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(*width))))
    return rng.sample(sorted(words), n)


def _read_sizes(monkeypatch):
    """Patches _Vocabulary.read to record the table size after each chunk."""
    sizes, read = [], corpus._Vocabulary.read

    def recorded(self, parts, tokens):
        lengths = read(self, parts, tokens)
        sizes.append(len(self.slot_keys))
        return lengths

    monkeypatch.setattr(corpus._Vocabulary, "read", recorded)
    return sizes


class TestHashVocabulary:
    """The open-addressing word table of build_index against the reference build:
    probe clusters, growth inside and across chunks, and the 8-byte key boundary."""

    SLOTS = corpus._SLOTS

    def _colliding(self, n, slot):
        """n words of 2-4 letters whose home slot at the starting size is ``slot``."""
        rng, found = random.Random(slot), []
        while len(found) < n:
            word = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 4)))
            if _home(word.encode(), self.SLOTS) == slot and word not in found:
                found.append(word)
        return found

    def test_hash_matches_the_python_integer_hash(self):
        vocabulary = corpus._Vocabulary(TokenizerConfig())
        words = [b"a", b"zz", b"abcdefgh", b"\xff" * 8]
        keys = np.array([int.from_bytes(w.ljust(8, b"\0"), "little") for w in words], dtype=np.uint64)
        assert vocabulary.slots(keys)[0].tolist() == [_home(w, self.SLOTS) for w in words]

    @pytest.mark.parametrize("slot", [0, 517, SLOTS - 1])  # SLOTS - 1: probes wrap to slot 0
    def test_words_sharing_a_home_slot(self, slot):
        shared = self._colliding(6, slot)
        after = self._colliding(2, (slot + 1) % self.SLOTS)  # a cluster that runs on
        rng = random.Random(slot)
        vocab = shared + after + ["abcdefghi", "x"]
        docs = [Document(f"d{i:02d}", " ".join(rng.choices(vocab, k=rng.randint(0, 12))))
                for i in range(40)]
        for chunk in (1, 1 << 16):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(corpus, "TOKEN_CHUNK", chunk)
                index = build_index(docs)
            _assert_reference_index(index, docs, TokenizerConfig())
        vocabulary = corpus._Vocabulary(TokenizerConfig())
        tokens = corpus.array("i")
        vocabulary.read([" ".join(vocab).encode()], tokens)
        assert np.count_nonzero(vocabulary.slot_keys) == len(vocab) - 1  # the long word: dict
        assert {_home(w.encode(), self.SLOTS) for w in shared} == {slot}
        names = list(vocabulary.terms)  # by first-seen number
        assert [names[t] for t in tokens] == vocab

    def test_grows_inside_one_chunk(self, monkeypatch):
        sizes = _read_sizes(monkeypatch)
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", 1 << 20)
        rng = random.Random(8)
        vocab = _alpha_words(3 * self.SLOTS, rng)  # load 3 at the starting size
        docs = [Document("d0", " ".join(vocab[:50]))]
        docs += [Document(f"d{i}", " ".join(rng.choices(vocab, k=30))) for i in range(1, 200)]
        index = build_index(docs)
        assert sizes == [8 * self.SLOTS]  # one chunk, doubled three times
        _assert_reference_index(index, docs, TokenizerConfig())

    def test_grows_across_chunks(self, monkeypatch):
        sizes = _read_sizes(monkeypatch)
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", 512)
        rng = random.Random(9)
        vocab = _alpha_words(2 * self.SLOTS, rng)
        # new words arrive a few per document, among words seen in earlier chunks
        docs = [Document(f"d{i:03d}", " ".join(vocab[8 * i:8 * i + 8] + rng.choices(vocab[:8 * i + 8], k=40)))
                for i in range(len(vocab) // 8)]
        index = build_index(docs)
        grew = [i for i in range(1, len(sizes)) if sizes[i] > sizes[i - 1]]
        assert sizes[0] == self.SLOTS and sizes[-1] == 4 * self.SLOTS and len(grew) == 2
        assert len(sizes) > 100
        _assert_reference_index(index, docs, TokenizerConfig())

    @pytest.mark.parametrize("text", ["a", "abcdefgh", "abcdefghi", "a a a", "Z9"])
    def test_one_word_corpus(self, text):
        docs = _docs(text)
        _assert_reference_index(build_index(docs), docs, TokenizerConfig())

    @pytest.mark.parametrize("chunk", [1, 24, 1 << 16])
    def test_chunks_of_stopwords_only(self, monkeypatch, chunk):
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", chunk)
        config = TokenizerConfig(stopwords=frozenset({"the", "a", "ofabcdefgh"}), stem=True)
        docs = _docs("the a the", "ofabcdefgh the", "", "a a a a", "cats the dogs", "the", "x a")
        index = build_index(docs, config)
        assert index.terms == ("cat", "dog", "x")
        _assert_reference_index(index, docs, config)

    @pytest.mark.parametrize("config", [TokenizerConfig(), TokenizerConfig(split_non_alnum=False,
                                                                          lowercase=False)],
                             ids=["split", "whitespace"])
    def test_words_of_eight_and_nine_bytes(self, monkeypatch, config):
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", 40)
        rng = random.Random(89)
        eight = _alpha_words(40, rng, (8, 8))
        vocab = eight + [w + "s" for w in eight[:20]] + [w + "z" for w in eight[20:]] + ["éééé"]
        docs = [Document(f"d{i:02d}", " ".join(rng.choices(vocab, k=rng.randint(1, 20)))) for i in range(60)]
        index = build_index(docs, config)
        assert sum(len(t.encode()) == 9 for t in index.terms) > 30
        _assert_reference_index(index, docs, config)

    def test_word_rule_runs_once_per_distinct_word_across_growths(self, monkeypatch):
        calls = Counter()
        word_rule = corpus._word_rule

        def counted(word, config):
            calls[word] += 1
            return word_rule(word, config)

        monkeypatch.setattr(corpus, "_word_rule", counted)
        sizes = _read_sizes(monkeypatch)
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", 2048)
        rng = random.Random(10)
        vocab = _alpha_words(3 * self.SLOTS, rng, (2, 12))
        docs = [Document(f"d{i:03d}", " ".join(rng.choices(vocab[:16 * i + 16], k=30)))
                for i in range(len(vocab) // 16)]
        config = TokenizerConfig(stopwords=frozenset(vocab[:5]), stem=True)
        index = build_index(docs, config)
        assert len(set(sizes)) >= 3  # grew at least twice
        seen = {w for d in docs for w in d.text.split()}
        assert calls == Counter(w.encode() for w in seen)
        _assert_reference_index(index, docs, config)


class TestChunkPaths:
    """build_index against the reference build on chunks that take each path of
    _Vocabulary.read: words all of at most 8 bytes without a NUL (no dict lookup),
    long or NUL words (the dict beside the table), chunks of stopwords only (the
    kept-word count) and chunks without one, alone and in one build."""

    SHORT = ["a", "ab", "Cats", "cat", "abcdefgh", "Zz9", "x1y2", "\u00e9t\u00e9"]
    LONG = ["abcdefghi", "a\0", "\0", "abcdefgh\0", "qwertyuiopasdf", "\u00e9" * 5]
    STOP = ["the", "of", "abcdefghij"]
    CONFIG = TokenizerConfig(split_non_alnum=False, stopwords=frozenset(STOP), stem=True)
    GROUPS = {"short": [SHORT], "long": [LONG, SHORT + LONG], "stopwords": [STOP, SHORT],
              "mixed": [SHORT, LONG, STOP, SHORT + STOP, SHORT]}

    @staticmethod
    def _kinds(monkeypatch):
        """Patches _Vocabulary.read to record each chunk's (has a long or NUL word,
        has a stopword)."""
        kinds, read = Counter(), corpus._Vocabulary.read

        def recorded(self, parts, tokens):
            words = b" ".join(parts).split()
            kinds[any(len(w) > 8 or b"\0" in w for w in words),
                  any(corpus._word_rule(w, self.config) is None for w in words)] += 1
            return read(self, parts, tokens)

        monkeypatch.setattr(corpus._Vocabulary, "read", recorded)
        return kinds

    @pytest.mark.parametrize("chunk", [1, 64, corpus.TOKEN_CHUNK])
    @pytest.mark.parametrize("kind", GROUPS)
    def test_matches_reference(self, monkeypatch, kind, chunk):
        rng = random.Random(f"{kind}{chunk}")
        n = 30 if chunk < 1024 else 3000  # a group of 3,000 documents fills whole chunks
        docs = [Document(f"g{g}-{i:04d}", " ".join(rng.choices(vocab, k=rng.randint(0, 12))))
                for g, vocab in enumerate(self.GROUPS[kind]) for i in range(n)]
        kinds = self._kinds(monkeypatch)
        monkeypatch.setattr(corpus, "TOKEN_CHUNK", chunk)
        index = build_index(docs, self.CONFIG)
        _assert_reference_index(index, docs, self.CONFIG)
        monkeypatch.undo()
        _assert_identical(build_index(docs, self.CONFIG), index)
        long, stop = {k[0] for k in kinds}, {k[1] for k in kinds}
        ran = {"short": set(kinds) == {(False, False)}, "long": True in long,
               "stopwords": stop == {True, False},
               "mixed": (False, False) in kinds and True in long and True in stop}[kind]
        assert ran, kinds  # the chunks took the paths the group is for


def test_build_and_toy_experiment_leave_numpy_ma_unimported(toy_dir, tmp_path):
    # np.unique on uint64 without return_inverse takes a hash path that imports numpy.ma,
    # 1.5-1.9 MB of peak RSS in a run that never needs it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from qppfuse.corpus import build_index, ingest; from qppfuse.cli import main; "
            "build_index(ingest(sys.argv[2] + '/docs.jsonl', 'jsonl')); "
            "print('numpy.ma' in sys.modules); "
            "main(['experiment', '--config', sys.argv[2] + '/experiment.cfg', '--out', sys.argv[3]]); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(toy_dir), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[0] == "False" and out.split("\n")[-2] == "False", out


def test_streamed_build_holds_no_document_while_sorting(monkeypatch, tmp_path):
    # build_index(ingest(...)) reads the documents as the file is read: none is alive,
    # in a list or a loop variable, when the rows are sorted
    path = tmp_path / "docs.jsonl"
    path.write_text("".join(f'{{"id": "stream{i}", "text": "w{i % 7} x"}}\n' for i in range(200)))
    live, from_tokens = [], corpus._from_tokens

    def counted(*args):
        gc.collect()
        live.append(sum(isinstance(o, Document) and o.doc_id.startswith("stream")
                        for o in gc.get_objects()))
        return from_tokens(*args)

    monkeypatch.setattr(corpus, "_from_tokens", counted)
    index = build_index(ingest(path, "jsonl"))
    assert live == [0] and index.n_docs == 200


class TestPersistence:
    def test_stats_dump_round_trip(self, toy_docs, toy_index, tmp_path):
        path = tmp_path / "stats.txt"
        dump_stats(toy_index, path)
        assert path.read_bytes() == _reference_dump(toy_docs)
        assert brute_force_reference.read_stats_dump(path) == (
            toy_index.n_docs, toy_index.total_tokens, dict(toy_index.doc_len),
            brute_force_reference.postings(toy_index))

    @pytest.mark.parametrize("clone", [lambda index: pickle.loads(pickle.dumps(index)),
                                       copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copy_after_the_caches_fill(self, toy_docs, toy_queries, clone):
        index = build_index(toy_docs)  # not the shared fixture: its caches stay as they are
        ranked = retrieve(index, toy_queries[0])  # fills zero_tf_logs and the classes
        index.df, index.cf, index.doc_len, index.term_row, index.doc_row, index.total_tokens
        copied = clone(index)
        assert copied == index and copied.terms == index.terms
        for side in ("by_term", "by_doc"):
            for name in ("ptr", "cols", "tfs", "sums"):
                a, b = getattr(getattr(index, side), name), getattr(getattr(copied, side), name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (side, name)
                assert not b.flags.writeable, (side, name)
        assert not {"df", "cf", "doc_len", "term_row", "zero_tf_logs"} & set(vars(copied))
        assert (copied.df, copied.cf, copied.doc_len) == (index.df, index.cf, index.doc_len)
        assert retrieve(copied, toy_queries[0]) == ranked

    def test_stats_dump_is_text(self, toy_index, tmp_path):
        path = tmp_path / "stats.txt"
        dump_stats(toy_index, path)
        lines = path.read_text().splitlines()
        assert lines[1] == f"N\t{toy_index.n_docs}"
        assert lines[2] == f"C\t{toy_index.total_tokens}"

    # The reference reader is a strict check of the dump: each broken dump below fails it.

    @pytest.mark.parametrize("first_line", [
        None,
        "# other-index stats v1",
        "# qppfuse-index stats v2",
    ], ids=["missing", "wrong-magic", "wrong-version"])
    def test_stats_dump_rejects_bad_header(self, toy_index, tmp_path, first_line):
        path = tmp_path / "stats.txt"
        dump_stats(toy_index, path)
        lines = path.read_text().splitlines()
        lines = lines[1:] if first_line is None else [first_line] + lines[1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not an index stats dump"):
            brute_force_reference.read_stats_dump(path)

    @pytest.mark.parametrize("record", [
        "doc\td1",
        "doc\td1\tmany",
        "term",
        "term\tdog\td1",
        "term\tdog\td1:x",
        "term\tdog\td1:0",
        "N\tfifty",
        "term\tdog\td1:1\td1:1",
    ], ids=["doc-short", "doc-length", "term-bare", "term-no-tf", "term-tf-text",
            "term-tf-zero", "n-text", "term-repeated-doc"])
    def test_stats_dump_rejects_malformed_record(self, toy_index, tmp_path, record):
        path = tmp_path / "stats.txt"
        dump_stats(toy_index, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [record]) + "\n")
        with pytest.raises(ValueError, match=f":{len(lines) + 1}: malformed"):
            brute_force_reference.read_stats_dump(path)

    @staticmethod
    def _broken_dumps(index, path):
        """(message, dump text) of each statistic that breaks an index invariant."""
        dump_stats(index, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("N\t") and lines[2].startswith("C\t")
        first_doc = next(i for i, line in enumerate(lines) if line.startswith("doc\t"))
        _, doc_id, length = lines[first_doc].split("\t")
        first_term = next(i for i, line in enumerate(lines) if line.startswith("term\t"))
        broken = {
            "total_tokens": {2: f"C\t{index.total_tokens + 1}"},
            # IDF would use the wrong N
            "documents": {1: f"N\t{index.n_docs + 1}"},
            # retrieve would hit a bare KeyError on the unknown doc
            "unknown documents": {first_term: lines[first_term] + "\tzz9:1"},
            # a term with no postings: df = 0
            "df out of range": {len(lines) - 1: lines[-1] + "\nterm\tzzz"},
            "sum of tf != doc length": {
                first_doc: f"doc\t{doc_id}\t{int(length) + 1}",
                2: f"C\t{index.total_tokens + 1}",
            },
        }
        for message, edits in broken.items():
            yield message, "\n".join(edits.get(i, line) for i, line in enumerate(lines)) + "\n"

    def test_stats_dump_rejects_broken_invariant(self, toy_index, tmp_path):
        path = tmp_path / "stats.txt"
        for message, text in self._broken_dumps(toy_index, path):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                brute_force_reference.read_stats_dump(path)

    def test_broken_dump_error_names_the_file(self, toy_index, tmp_path):
        path = tmp_path / "stats.txt"
        for message, text in self._broken_dumps(toy_index, path):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                brute_force_reference.read_stats_dump(path)
            assert str(err.value).startswith(f"{path}: "), message


class TestFileLoaders:
    def test_queries(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tThe Dog ran\nq2\t...\n")
        queries = load_queries(path)
        assert queries[0].query_id == "q1"
        assert queries[0].terms == ("the", "dog", "ran")
        assert queries[1].is_empty

    @pytest.mark.parametrize("qid", ["", "q 2", "q\x1c2"], ids=["empty", "space", "separator"])
    def test_queries_id_empty_or_with_whitespace(self, tmp_path, qid):
        path = tmp_path / "q.tsv"
        path.write_text(f"q1\ta\n{qid}\tb\n")
        with pytest.raises(CorpusError) as err:
            load_queries(path)
        assert str(err.value) == f"{path}:2: query_id {qid!r} is empty or has whitespace"

    def test_queries_duplicate_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_queries(path)

    def test_qrels(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n")
        qrels = load_qrels(path)
        assert qrels.grade("q1", "d1") == 2
        assert qrels.grade("q1", "d2") == 0
        assert qrels.grade("q1", "dX") == 0  # absent pair
        assert qrels.relevant_docs("q1") == {"d1"}
        assert qrels.num_relevant("q2") == 1

    def test_qrels_bad_columns(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 d1 2\n")
        with pytest.raises(CorpusError, match="4 columns"):
            load_qrels(path)

    @pytest.mark.parametrize("grade", [0, 1])
    def test_qrels_repeated_pair_rejected_at_its_line(self, tmp_path, grade):
        # a later line silently winning would leave q1 with no relevant document
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d1 1\nq1 0 d2 0\n\nq1 0 d1 {grade}\n")
        with pytest.raises(CorpusError) as err:
            load_qrels(path)
        assert str(err.value) == f"{path}:4: repeated judgement of 'd1' for 'q1'"

    def test_qrels_negative_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(CorpusError, match="negative"):
            load_qrels(path)

    def test_lexicon(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\t8\t7\ncat\t3\t1\n")
        lexicon = load_lexicon(path)
        assert lexicon.get("dog") == (8, 7)
        assert "cat" in lexicon and "fish" not in lexicon

    @pytest.mark.parametrize("total, noun", [(-1, 0), (2, 5), (3, -1)])
    def test_lexicon_bad_counts_rejected_at_their_line(self, tmp_path, total, noun):
        path = tmp_path / "lex.tsv"
        path.write_text(f"cat\t3\t1\n\ndog\t{total}\t{noun}\n")
        with pytest.raises(CorpusError, match=rf"lex\.tsv:3: bad sense counts for 'dog': \({total}, {noun}\)$"):
            load_lexicon(path)

    def test_lexicon_repeated_term_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\t3\t1\ncat\t3\t1\ndog\t5\t2\n")
        with pytest.raises(CorpusError, match=r"lex\.tsv:3: duplicate term 'dog'$"):
            load_lexicon(path)

    def test_lexicon_invariant(self):
        with pytest.raises(CorpusError, match="sense"):
            SenseLexicon({"dog": (2, 5)})

    def test_qrels_type_invariant(self):
        with pytest.raises(CorpusError):
            Qrels({("q1", "d1"): -2})
