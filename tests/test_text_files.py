"""The one text-file format: ``seeding.read_lines`` and ``seeding.write_lines``.

Every loader reads UTF-8 through ``read_lines``, which skips a leading
byte-order mark and removes LF, CRLF or CR line ends, so a file re-saved with
a BOM and CRLF line ends (Excel's "CSV UTF-8" export) loads as the plain file
does, with the same line numbers in its errors. Every artifact writer writes
UTF-8 with an LF after each line through ``write_lines``.
"""

import shutil

import pytest

from qppfuse.cli import main
from qppfuse.corpus import (
    CorpusError,
    Document,
    ingest,
    load_lexicon,
    load_qrels,
    load_queries,
)
from qppfuse.experiment import ExperimentConfig, import_external_scores
from qppfuse.fusion import RegressionModel, ScoreTable, read_model, write_model
from qppfuse.seeding import read_lines, write_lines

BOM = "\ufeff"


def resave(path, line_end="\r\n"):
    """Re-save a UTF-8 text file with a byte-order mark and ``line_end`` line ends."""
    text = path.read_bytes().decode("utf-8")
    path.write_bytes((BOM + text.replace("\n", line_end)).encode("utf-8"))


class TestReadLines:
    def test_bom_and_line_ends_removed(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xef\xbb\xbfa\tb\r\nc\n\r\nlast")
        assert list(read_lines(path)) == [(1, "a\tb"), (2, "c"), (3, ""), (4, "last")]

    def test_carriage_return_ends_a_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\rb\r")
        assert list(read_lines(path)) == [(1, "a"), (2, "b")]

    def test_only_a_leading_bom_is_skipped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n\xef\xbb\xbfb\n")
        assert list(read_lines(path)) == [(1, BOM + "a"), (2, BOM + "b")]

    def test_other_whitespace_is_kept(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(" a \t\n\x0cb\x1c\n".encode("utf-8"))
        assert list(read_lines(path)) == [(1, " a \t"), (2, "\x0cb\x1c")]

    @pytest.mark.parametrize("raw", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom-only"])
    def test_empty_file_has_no_lines(self, tmp_path, raw):
        path = tmp_path / "f.txt"
        path.write_bytes(raw)
        assert list(read_lines(path)) == []

    def test_invalid_utf8_raises(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(UnicodeDecodeError):
            list(read_lines(path))


class TestWriteLines:
    def test_utf8_with_lf_and_no_bom(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, (s for s in ["a\tb", "", "é\U0001f600"]))
        assert path.read_bytes() == b"a\tb\n\n" + "é\U0001f600".encode("utf-8") + b"\n"

    def test_no_lines_make_an_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, [])
        assert path.read_bytes() == b""

    def test_read_lines_inverts_it(self, tmp_path):
        path = tmp_path / "f.txt"
        lines = ["x", "", " y\t", BOM + "z"]
        write_lines(path, lines)
        assert [line for _, line in read_lines(path)] == lines

    @staticmethod
    def _raising_lines():
        yield "first"
        yield "second"
        raise RuntimeError("generator failed")

    @pytest.mark.parametrize("lines, error", [
        (_raising_lines, RuntimeError),
        (lambda: ["ok", "lone \ud800 surrogate", "never"], UnicodeEncodeError),
    ], ids=["raising-generator", "surrogate"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, lines, error, existing):
        path = tmp_path / "f.txt"
        if existing:
            write_lines(path, ["earlier", "file"])
        with pytest.raises(error):
            write_lines(path, lines())
        assert [p.name for p in tmp_path.iterdir()] == (["f.txt"] if existing else [])
        if existing:
            assert path.read_bytes() == b"earlier\nfile\n"

    def test_replaces_an_existing_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, ["a", "b", "c"])
        write_lines(str(path), ["d"])
        assert path.read_bytes() == b"d\n" and [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("target", ["missing-dir/f.txt", "is-a-dir"])
    def test_os_error_names_the_target(self, tmp_path, target):
        (tmp_path / "is-a-dir").mkdir()
        path = tmp_path / target
        with pytest.raises(OSError) as err:
            write_lines(path, ["a"])
        assert err.value.filename == str(path) and str(path) in str(err.value)
        assert not list(tmp_path.glob("**/*.tmp"))


def _table_bytes(path):
    table = ScoreTable.read_tsv(path)
    return table.query_ids, table.column_names, table.matrix().tobytes(), table.target.tobytes()


def _model(path):
    m = read_model(path)
    return m.method, m.intercept, m.coefficients, m.hyperparameters, m.normalization


_TREC_DOC = "<DOC>\n<DOCNO>{}</DOCNO>\n<TEXT>{}</TEXT>\n</DOC>\n"
_MODEL = RegressionModel("LASSO", 0.25, {"a": 0.5, "b": -1.0}, {"lam": 0.1, "folds": 2},
                         {"a": (0.0, 1.0), "b": (-2.0, 3.0)})

# (file name, plain text, loader returning a comparable value)
_LOADERS = [
    ("docs.jsonl", '{"id": "d1", "text": "a b"}\n\n{"id": 2, "text": "c"}\n',
     lambda p: list(ingest(p, "jsonl"))),
    ("docs.tsv", "d1\ta b\nd2\tc\n", lambda p: list(ingest(p, "tsv"))),
    ("docs.trec", _TREC_DOC.format("d1", "a\nb") + _TREC_DOC.format("d2", "c"),
     lambda p: list(ingest(p, "trec"))),
    ("queries.tsv", "q1\tThe dog\nq2\tcats\n", load_queries),
    ("qrels.txt", "q1 0 d1 1\nq1 0 d2 0\nq2 0 d2 2\n",
     lambda p: (load_qrels(p).relevant_docs("q1"), load_qrels(p).grade("q2", "d2"))),
    ("lexicon.tsv", "dog\t3\t1\ncat\t2\t2\n", lambda p: load_lexicon(p).get("dog")),
    ("scores.tsv", "q1\t0.5\nq2\t0.25\n", lambda p: import_external_scores(p, ["q1", "q2"])),
    ("table.tsv", "query_id\ta\tb\tAP\nq1\t1.0\t2.0\t0.5\nq2\t3.0\t5.0\t0.25\n", _table_bytes),
    ("stop.txt", "the\n  a \n\n", lambda p: ExperimentConfig(stopwords_path=str(p))
     .tokenizer_config().stopwords),
    ("run.cfg", "# a comment\nseed = 9\nretrieval.mu = 500  # inline\n",
     lambda p: ExperimentConfig.from_file(p).resolved_items()),
]


@pytest.mark.parametrize("name, text, load", _LOADERS, ids=[row[0] for row in _LOADERS])
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_loader_reads_a_bom_and_any_line_end_as_the_plain_file(tmp_path, name, text, load,
                                                               line_end):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    plain = load(path)
    resave(path, line_end)
    assert load(path) == plain


def test_model_dump_reads_with_a_bom_and_crlf(tmp_path):
    model_path = tmp_path / "model.txt"
    write_model(_MODEL, model_path)
    plain_model = _model(model_path)
    resave(model_path)
    assert _model(model_path) == plain_model


def test_jsonl_with_a_bom_loads(tmp_path):
    # read with a BOM, json.loads rejects the record: "Unexpected UTF-8 BOM"
    path = tmp_path / "docs.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"id": "d1", "text": "a"}\n')
    assert list(ingest(path, "jsonl")) == [Document("d1", "a")]


@pytest.mark.parametrize("name, text, load, message", [
    ("docs.jsonl", '{"id": "d1", "text": "a"}\n\n{"id": "d1", "text": "b"}\n',
     lambda p: list(ingest(p, "jsonl")), ":3: duplicate doc_id 'd1'"),
    ("docs.trec", _TREC_DOC.format("d1", "a\nb") + _TREC_DOC.format("d1", "c"),
     lambda p: list(ingest(p, "trec")), ":6: duplicate doc_id 'd1'"),
    ("queries.tsv", "q1\ta\n\nq1\tb\n", load_queries, ":3: duplicate query_id 'q1'"),
    ("qrels.txt", "q1 0 d1 1\nq1 d1 1\n", load_qrels, ":2: expected 4 columns, got 3"),
], ids=["jsonl", "trec", "queries", "qrels"])
def test_error_line_numbers_survive_a_bom_and_crlf(tmp_path, name, text, load, message):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    resave(path)
    with pytest.raises(CorpusError) as err:
        load(path)
    assert str(err.value) == f"{path}{message}"


def test_toy_score_table_is_the_same_from_a_bom_and_crlf_bundle(tmp_path, toy_dir):
    # a BOM read as text would rename the first query id, and its AP would read 0.0;
    # every artifact is compared, so a misread key that only the reports read shows too
    bundle = tmp_path / "toy"
    shutil.copytree(toy_dir, bundle)
    for name in ("experiment.cfg", "docs.jsonl", "queries.tsv", "qrels.txt", "lexicon.tsv"):
        resave(bundle / name)
    artifacts = []
    for cfg, out in ((toy_dir / "experiment.cfg", tmp_path / "plain"),
                     (bundle / "experiment.cfg", tmp_path / "resaved")):
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if p.name != "config_used.txt"})
    assert len(artifacts[0]) >= 7
    assert artifacts[0] == artifacts[1]
