"""Corpus ingestion, tokenization, and the immutable inverted index.

The index stores every statistic the predictors need: document count N,
total token count |C|, per-document lengths, postings with term frequencies,
document frequencies df and collection frequencies cf.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CorpusError",
    "Document",
    "Query",
    "Qrels",
    "SenseLexicon",
    "TokenizerConfig",
    "Index",
    "tokenize",
    "ingest",
    "build_index",
    "dump_stats",
    "load_stats",
    "load_queries",
    "load_qrels",
    "load_lexicon",
]

SNAPSHOT_MAGIC = "qppfuse-index"
SNAPSHOT_VERSION = 1


class CorpusError(Exception):
    """Malformed input file, duplicate identifier, or empty corpus."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class Query:
    """A query after tokenization; ``terms`` may be empty (degenerate)."""

    query_id: str
    terms: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return len(self.terms) == 0


class Qrels:
    """Relevance judgments: (query_id, doc_id) -> grade, absent pairs grade 0."""

    def __init__(self, grades: dict[tuple[str, str], int]):
        for (qid, did), g in grades.items():
            if g < 0:
                raise CorpusError(f"negative grade {g} for ({qid}, {did})")
        self._grades = dict(grades)
        self._by_query: dict[str, set[str]] = {}
        for (qid, did), g in self._grades.items():
            if g > 0:
                self._by_query.setdefault(qid, set()).add(did)

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades.get((query_id, doc_id), 0)

    def relevant_docs(self, query_id: str) -> set[str]:
        """Doc ids judged with grade > 0 for the query."""
        return set(self._by_query.get(query_id, ()))

    def num_relevant(self, query_id: str) -> int:
        return len(self._by_query.get(query_id, ()))

    def __len__(self) -> int:
        return len(self._grades)


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    split_non_alnum: bool = True
    stopwords: frozenset[str] = frozenset()
    stem: bool = False


DEFAULT_TOKENIZER = TokenizerConfig()

_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def _s_stem(token: str) -> str:
    # Conservative plural stripper ("s-stemmer"): ies -> y, drop es/s,
    # keeping short tokens and -ss words intact.
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("es") and not token.endswith("ses"):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Deterministic tokenization; identical input and config give identical output."""
    if config.lowercase:
        text = text.lower()
    if config.split_non_alnum:
        tokens = [t for t in _NON_ALNUM.split(text) if t]
    else:
        tokens = text.split()
    if config.stopwords:
        tokens = [t for t in tokens if t not in config.stopwords]
    if config.stem:
        tokens = [_s_stem(t) for t in tokens]
    return tokens


def _ingest_jsonl(path: Path) -> list[Document]:
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if "id" not in record or "text" not in record:
                raise CorpusError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
            docs.append(Document(str(record["id"]), str(record["text"])))
    return docs


_TREC_DOC = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL)
_TREC_DOCNO = re.compile(r"<DOCNO>\s*(.*?)\s*</DOCNO>", re.DOTALL)
_TREC_TEXT = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)


def _ingest_trec(path: Path) -> list[Document]:
    raw = path.read_text(encoding="utf-8")
    docs = []
    for m in _TREC_DOC.finditer(raw):
        block = m.group(1)
        lineno = raw.count("\n", 0, m.start()) + 1
        docno = _TREC_DOCNO.search(block)
        if docno is None:
            raise CorpusError(f"{path}:{lineno}: <DOC> without <DOCNO>")
        text = _TREC_TEXT.search(block)
        if text is None:
            raise CorpusError(f"{path}:{lineno}: <DOC> without <TEXT>")
        docs.append(Document(docno.group(1), text.group(1).strip()))
    return docs


def _ingest_tsv(path: Path) -> list[Document]:
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusError(f"{path}:{lineno}: expected 'doc_id<TAB>text'")
            docs.append(Document(parts[0], parts[1]))
    return docs


def ingest(path, format: str) -> list[Document]:
    """Read documents from ``path`` in one of: jsonl, trec, tsv.

    Order is preserved; a duplicate doc_id is an error.
    """
    path = Path(path)
    readers = {"jsonl": _ingest_jsonl, "trec": _ingest_trec, "tsv": _ingest_tsv}
    if format not in readers:
        raise CorpusError(f"unknown corpus format: {format!r}")
    docs = readers[format](path)
    seen = set()
    for doc in docs:
        if not doc.doc_id:
            raise CorpusError(f"{path}: empty doc_id")
        if doc.doc_id in seen:
            raise CorpusError(f"{path}: duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
    return docs


@dataclass(frozen=True)
class Index:
    """Immutable inverted index with collection statistics.

    Mapping fields are plain dicts for speed; they must be treated as
    read-only. ``postings[term]`` maps doc_id -> tf with keys in ascending
    doc_id order; read a term frequency as ``postings[term].get(doc_id, 0)``.
    """

    n_docs: int
    total_tokens: int
    doc_len: dict[str, int] = field(repr=False)
    postings: dict[str, dict[str, int]] = field(repr=False)
    df: dict[str, int] = field(repr=False)
    cf: dict[str, int] = field(repr=False)

    @classmethod
    def from_postings(cls, n_docs: int, total_tokens: int, doc_len: dict[str, int],
                      postings: dict[str, dict[str, int]]) -> "Index":
        """An Index whose df and cf are derived from ``postings``."""
        return cls(n_docs=n_docs, total_tokens=total_tokens, doc_len=doc_len, postings=postings,
                   df={t: len(p) for t, p in postings.items()},
                   cf={t: sum(p.values()) for t, p in postings.items()})

    def validate(self) -> None:
        """Check the structural invariants; raises CorpusError on violation."""
        if self.n_docs != len(self.doc_len):
            raise CorpusError(f"N = {self.n_docs} but {len(self.doc_len)} documents")
        if sum(self.doc_len.values()) != self.total_tokens:
            raise CorpusError("sum of doc lengths != total_tokens")
        tf_sums = dict.fromkeys(self.doc_len, 0)
        for term, plist in self.postings.items():
            if not 1 <= self.df[term] <= self.n_docs:
                raise CorpusError(f"df out of range for {term!r}")
            if self.df[term] != len(plist):
                raise CorpusError(f"df != |postings| for {term!r}")
            if self.cf[term] != sum(plist.values()):
                raise CorpusError(f"cf != sum tf for {term!r}")
            if self.cf[term] < self.df[term]:
                raise CorpusError(f"cf < df for {term!r}")
            if not plist.keys() <= tf_sums.keys():
                unknown = sorted(plist.keys() - tf_sums.keys())
                raise CorpusError(f"postings of {term!r} name unknown documents {unknown}")
            if list(plist) != sorted(plist):
                raise CorpusError(f"postings not ascending for {term!r}")
            for doc_id, tf in plist.items():
                tf_sums[doc_id] += tf
        if tf_sums != self.doc_len:
            bad = sorted(d for d, n in self.doc_len.items() if tf_sums[d] != n)
            raise CorpusError(f"sum of tf != doc length for documents {bad}")


def build_index(docs: list[Document], config: TokenizerConfig = DEFAULT_TOKENIZER) -> Index:
    """Tokenize ``docs`` and build the index; errors if every doc tokenizes empty."""
    if not docs:
        raise CorpusError("cannot index an empty corpus")
    doc_len: dict[str, int] = {}
    postings: dict[str, dict[str, int]] = {}
    total = 0
    # documents in doc_id order fill every postings dict in ascending order
    for doc in sorted(docs, key=lambda d: d.doc_id):
        if doc.doc_id in doc_len:
            raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
        tokens = tokenize(doc.text, config)
        doc_len[doc.doc_id] = len(tokens)
        total += len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, {})[doc.doc_id] = tf
    if total == 0:
        raise CorpusError("all documents tokenized to empty")
    postings = {term: postings[term] for term in sorted(postings)}
    return Index.from_postings(len(docs), total, doc_len, postings)


def dump_stats(index: Index, path) -> None:
    """Plain-text dump of every statistic the predictors consume.

    Format: a header line, one `doc` line per document, and one `term`
    line per term carrying its full postings list.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {SNAPSHOT_MAGIC} stats v{SNAPSHOT_VERSION}\n")
        fh.write(f"N\t{index.n_docs}\n")
        fh.write(f"C\t{index.total_tokens}\n")
        for doc_id in sorted(index.doc_len):
            fh.write(f"doc\t{doc_id}\t{index.doc_len[doc_id]}\n")
        for term in sorted(index.postings):
            cells = "\t".join(f"{d}:{tf}" for d, tf in index.postings[term].items())
            fh.write(f"term\t{term}\t{cells}\n")


def load_stats(path) -> Index:
    """Rebuild an Index from a stats dump written by :func:`dump_stats`.

    The dump is the index snapshot format. A wrong header, a malformed
    record or statistics that break an index invariant raise CorpusError.
    """
    header = f"# {SNAPSHOT_MAGIC} stats v{SNAPSHOT_VERSION}"
    n_docs = total = None
    doc_len: dict[str, int] = {}
    postings: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != header:
            raise CorpusError(f"{path}: not an index stats dump (expected header {header!r})")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            kind = parts[0]
            try:
                if kind == "N":
                    _, value = parts
                    n_docs = int(value)
                elif kind == "C":
                    _, value = parts
                    total = int(value)
                elif kind == "doc":
                    _, doc_id, length = parts
                    doc_len[doc_id] = int(length)
                elif kind == "term":
                    plist = {}
                    for cell in parts[2:]:
                        doc_id, _, tf = cell.rpartition(":")
                        if not doc_id or int(tf) < 1:
                            raise ValueError(f"bad posting {cell!r}")
                        if doc_id in plist:
                            raise ValueError(f"repeated doc {doc_id!r}")
                        plist[doc_id] = int(tf)
                    postings[parts[1]] = plist
                else:
                    raise CorpusError(f"{path}:{lineno}: unknown record {kind!r}")
            except (IndexError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed {kind!r} record: {exc}") from exc
    if n_docs is None or total is None:
        raise CorpusError(f"{path}: missing N or C header")
    index = Index.from_postings(n_docs, total, doc_len, postings)
    index.validate()
    return index


def load_queries(path, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[Query]:
    """Read a queries file: ``query_id<TAB>text``, one query per line."""
    queries = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusError(f"{path}:{lineno}: expected 'query_id<TAB>text'")
            qid, text = parts
            if qid in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate query_id {qid!r}")
            seen.add(qid)
            queries.append(Query(qid, tuple(tokenize(text, config))))
    return queries


def load_qrels(path) -> Qrels:
    """Read TREC 4-column qrels: ``qid 0 docid grade``, whitespace-separated."""
    grades: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise CorpusError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            qid, _, did, grade = parts
            try:
                g = int(grade)
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: non-integer grade {grade!r}") from exc
            if g < 0:
                raise CorpusError(f"{path}:{lineno}: negative grade {g}")
            grades[(qid, did)] = g
    return Qrels(grades)


class SenseLexicon:
    """term -> (total_senses, noun_senses); noun_senses never exceeds total."""

    def __init__(self, senses: dict[str, tuple[int, int]]):
        for term, (total, noun) in senses.items():
            if total < 0 or noun < 0 or noun > total:
                raise CorpusError(f"bad sense counts for {term!r}: ({total}, {noun})")
        self._senses = dict(senses)

    def __contains__(self, term: str) -> bool:
        return term in self._senses

    def __len__(self) -> int:
        return len(self._senses)

    def get(self, term: str) -> tuple[int, int] | None:
        return self._senses.get(term)


def load_lexicon(path) -> SenseLexicon:
    """Read a sense lexicon: ``term<TAB>total_senses<TAB>noun_senses``."""
    senses: dict[str, tuple[int, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"{path}:{lineno}: expected 3 columns")
            term, total, noun = parts
            try:
                senses[term] = (int(total), int(noun))
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: non-integer sense count") from exc
    return SenseLexicon(senses)
