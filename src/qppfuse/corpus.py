"""Corpus ingestion, tokenization, and the immutable inverted index.

The index stores the term frequencies as int32 compressed rows in both
directions (term -> documents, document -> terms), built by sorting integer
token keys. Every statistic the predictors need is derived from those rows:
document count N, total token count |C|, per-document lengths, document
frequencies df and collection frequencies cf.
"""

import json
import logging
import re
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .seeding import read_lines, write_lines

__all__ = [
    "CorpusError",
    "Document",
    "Query",
    "Qrels",
    "SenseLexicon",
    "TokenizerConfig",
    "Rows",
    "Index",
    "key_dtype",
    "tokenize",
    "ingest",
    "build_index",
    "dump_stats",
    "load_stats",
    "load_queries",
    "load_qrels",
    "load_lexicon",
]

logger = logging.getLogger(__name__)

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
        self._by_query: dict[str, set[str]] = defaultdict(set)
        for (qid, did), g in self._grades.items():
            if g > 0:
                self._by_query[qid].add(did)

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
    """Stopword entries are lowercased here when ``lowercase`` is set."""

    lowercase: bool = True
    split_non_alnum: bool = True
    stopwords: frozenset[str] = frozenset()
    stem: bool = False

    def __post_init__(self):
        if self.lowercase:
            object.__setattr__(self, "stopwords", frozenset(w.lower() for w in self.stopwords))
        unmatchable = sum(not (w.isascii() and w.isalnum()) if self.split_non_alnum
                          else w.split() != [w] for w in self.stopwords)
        if unmatchable:
            logger.warning("%d stopword entries are not single tokens and can never match",
                           unmatchable)


DEFAULT_TOKENIZER = TokenizerConfig()

_ALNUM_BYTES = bytes(b if chr(b).isascii() and chr(b).isalnum() else ord(" ") for b in range(256))
_LOWER_ALNUM_BYTES = _ALNUM_BYTES.lower()


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


def _encode(text: str, config: TokenizerConfig) -> bytes:
    """``text`` as the bytes that ``_byte_table(config)`` translates to its normalised form,
    whose words are its runs of bytes other than b" "; under ``split_non_alnum`` an ASCII
    text is only encoded, as the table lowercases it."""
    if config.split_non_alnum:
        if text.isascii():
            return text.encode("ascii")
        if config.lowercase:
            text = text.lower()  # Unicode's rule: the Kelvin sign lowercases to "k"
        # a non-ASCII code point encodes as "?", which the table makes a space
        return text.encode("ascii", "replace")
    if config.lowercase:
        text = text.lower()
    return " ".join(text.split()).encode("utf-8", "surrogatepass")


def _byte_table(config: TokenizerConfig) -> bytes | None:
    """Under ``split_non_alnum``, the table taking every byte but ASCII letters and digits to
    b" " and, with ``lowercase``, A-Z to a-z; else None, which translates nothing."""
    if not config.split_non_alnum:
        return None
    return _LOWER_ALNUM_BYTES if config.lowercase else _ALNUM_BYTES


def _word_rule(word: bytes, config: TokenizerConfig) -> str | None:
    """The term of a normalised word; None for a stopword."""
    word = word.decode("utf-8", "surrogatepass")
    if word in config.stopwords:
        return None
    return _s_stem(word) if config.stem else word


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Deterministic tokenization, the rule ``build_index`` applies too: lowercase
    (``lowercase``), split on every character but ASCII letters and digits
    (``split_non_alnum``) or else on ``str.split`` whitespace, drop stopwords, and
    s-stem (``stem``)."""
    words = _encode(text, config).translate(_byte_table(config)).split()
    terms = (_word_rule(word, config) for word in words)
    return [term for term in terms if term is not None]


def _add_doc(seen, path, lineno, doc_id, text) -> Document:
    if not doc_id.isalnum():  # an alphanumeric doc_id is neither empty nor holds whitespace
        if not doc_id:
            raise CorpusError(f"{path}:{lineno}: empty doc_id")
        if doc_id.split() != [doc_id]:  # a run line is split on whitespace
            raise CorpusError(f"{path}:{lineno}: doc_id {doc_id!r} contains whitespace")
    if doc_id in seen:
        raise CorpusError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
    seen.add(doc_id)
    return Document(doc_id, text)


_SURROGATE = re.compile("[\ud800-\udfff]")  # a lone one: a JSON escape can decode to it
_RAW_DECODE = json.JSONDecoder().raw_decode


def _ingest_jsonl(path: Path) -> Iterator[Document]:
    """The documents of a JSON Lines file: per non-blank line, stripped, one object with
    an "id" (string or integer) and a "text" string, neither holding a lone surrogate.

    A line is decoded by one ``raw_decode`` call whose value must end the line; a line
    that fails it is decoded again by ``json.loads``, so an invalid line raises with
    ``json.loads``'s words and its own line number. Lines are never joined: a record
    that spills onto the next line is invalid."""
    seen = set()
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = _RAW_DECODE(line)
        except json.JSONDecodeError:
            end = None
        if end != len(line):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            doc_id, text = record["id"], record["text"]
        except (KeyError, TypeError):  # not an object, or an object without the fields
            raise CorpusError(f"{path}:{lineno}: record needs 'id' and 'text' fields") from None
        if type(doc_id) is not str:
            if type(doc_id) is not int:  # nor a bool
                raise CorpusError(f"{path}:{lineno}: 'id' must be a string or an integer")
            doc_id = str(doc_id)
        if type(text) is not str:
            raise CorpusError(f"{path}:{lineno}: 'text' must be a string")
        if not (doc_id.isascii() and text.isascii()) and (_SURROGATE.search(doc_id)
                                                          or _SURROGATE.search(text)):
            raise CorpusError(f"{path}:{lineno}: 'id' or 'text' holds a lone surrogate")
        yield _add_doc(seen, path, lineno, doc_id, text)


_TREC_DOC = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL)
_TREC_DOCNO = re.compile(r"<DOCNO>\s*(.*?)\s*</DOCNO>", re.DOTALL)
_TREC_TEXT = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)


def _ingest_trec(path: Path) -> Iterator[Document]:
    raw = "\n".join(line for _, line in read_lines(path))  # <DOC> line numbers count its LFs
    seen = set()
    lineno, counted_to = 1, 0  # newlines are counted once, from the previous <DOC> on
    for m in _TREC_DOC.finditer(raw):
        block = m.group(1)
        lineno += raw.count("\n", counted_to, m.start())
        counted_to = m.start()
        docno = _TREC_DOCNO.search(block)
        if docno is None:
            raise CorpusError(f"{path}:{lineno}: <DOC> without <DOCNO>")
        text = _TREC_TEXT.search(block)
        if text is None:
            raise CorpusError(f"{path}:{lineno}: <DOC> without <TEXT>")
        yield _add_doc(seen, path, lineno, docno.group(1), text.group(1).strip())


def _ingest_tsv(path: Path) -> Iterator[Document]:
    seen = set()
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected 'doc_id<TAB>text'")
        yield _add_doc(seen, path, lineno, parts[0], parts[1])


def ingest(path, format: str) -> Iterator[Document]:
    """Yield the documents of ``path``, in one of: jsonl, trec, tsv, as they are read.

    Order is preserved. An unknown format raises here; a missing file, and an empty,
    duplicate or whitespace-holding doc_id or any other malformed record, raise while
    the documents are iterated, the latter naming its line after the documents before
    it. jsonl and tsv are read a line at a time; trec reads its file whole.
    """
    readers = {"jsonl": _ingest_jsonl, "trec": _ingest_trec, "tsv": _ingest_tsv}
    if format not in readers:
        raise CorpusError(f"unknown corpus format: {format!r}")
    return readers[format](Path(path))


def key_dtype(n_rows: int, width: int):
    """The type of ``row * width + col`` sort keys: int32 while n_rows * width,
    their bound, is below 2^31; int64 beyond (10^5 documents x 21,475 terms)."""
    return np.int32 if n_rows * width < 2**31 else np.int64


@dataclass(frozen=True, eq=False)
class Rows:
    """Compressed sparse rows: row r holds the columns ``cols[ptr[r]:ptr[r + 1]]``
    (int32, strictly ascending), their tfs (int32) and, in ``sums[r]``, their tf
    sum: cf for a term row, the length for a document row. Arrays are read-only."""

    ptr: np.ndarray
    cols: np.ndarray
    tfs: np.ndarray
    sums: np.ndarray

    def __post_init__(self):
        for values in (self.ptr, self.cols, self.tfs, self.sums):
            values.flags.writeable = False

    def __eq__(self, other):
        return isinstance(other, Rows) and all(map(np.array_equal, (self.ptr, self.cols, self.tfs),
                                                   (other.ptr, other.cols, other.tfs)))

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns and tfs of row ``r``."""
        return self.cols[self.ptr[r]:self.ptr[r + 1]], self.tfs[self.ptr[r]:self.ptr[r + 1]]

    def take(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of ``rows``, row after row: the position in ``rows`` of
        each cell's row, the cell's column and its tf."""
        rows = np.asarray(rows, dtype=np.intp)
        starts, sizes = self.ptr[rows], self.ptr[rows + 1] - self.ptr[rows]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        at = np.arange(len(owner)) + (starts - np.cumsum(sizes) + sizes)[owner]
        return owner, self.cols[at], self.tfs[at]


RUN_CHUNK = 1 << 18  # tokens per step of the passes over the keys


def _run_starts(keys: np.ndarray, count: bool = False):
    """Yields, RUN_CHUNK sorted ``keys`` at a time, the positions past 0 where they change,
    or with ``count`` how many they are. A chunk's mask dies before the yield: one held
    across it raised the build's VmHWM by 1.6 MB at 10^4 documents."""
    for lo in range(0, keys.size, RUN_CHUNK):
        at, hi = max(lo, 1), min(lo + RUN_CHUNK, keys.size)
        if count:
            yield np.count_nonzero(keys[at:hi] != keys[at - 1:hi - 1])
        else:
            yield np.flatnonzero(keys[at:hi] != keys[at - 1:hi - 1]) + at


def _split_keys(keys: np.ndarray, width: int, new_width: int = 0) -> None:
    """Turns each ``row * width + col`` of ``keys`` in place into its col or, given
    ``new_width``, into ``col * new_width + row``, RUN_CHUNK keys at a time (numpy
    divides by a scalar several times faster than it takes a remainder)."""
    for lo in range(0, keys.size, RUN_CHUNK):
        cols = keys[lo:lo + RUN_CHUNK]
        rows = cols // width
        rows *= width
        cols -= rows
        if new_width:
            rows //= width
            cols *= new_width
            cols += rows


def _rows(keys: np.ndarray, n_rows: int, width: int) -> Rows:
    """Sorts the token keys ``row * width + col`` in place; returns their rows,
    a key's repeats being its tf and a row's token count its sum."""
    keys.sort()
    # one pass counts the runs, one copies their keys and starts: no mask or int64
    # positions as long as the keys; tfs holds the starts, then their differences
    size = min(keys.size, 1) + sum(_run_starts(keys, count=True))  # position 0 starts a run
    cells, tfs = np.empty(size, dtype=keys.dtype), np.empty(size + 1, dtype=np.int32)
    n = min(size, 1)
    cells[:n], tfs[:n], tfs[-1] = keys[:n], 0, keys.size
    for starts in _run_starts(keys):
        np.take(keys, starts, out=cells[n:n + starts.size], mode="clip")  # valid: unbuffered
        tfs[n:n + starts.size] = starts
        n += starts.size
    bounds = np.arange(n_rows + 1, dtype=keys.dtype) * keys.dtype.type(width)
    ptr = np.searchsorted(cells, bounds)
    sums = np.diff(tfs[ptr].astype(np.intp))  # a row's tokens start at its first run
    for lo in range(0, size, RUN_CHUNK):
        hi = min(lo + RUN_CHUNK, size)
        tfs[lo:hi] = tfs[lo + 1:hi + 1] - tfs[lo:hi]
    _split_keys(cells, width)
    return Rows(ptr, cells.astype(np.int32, copy=False), tfs[:-1], sums)


def _from_tokens(terms, doc_ids, term_of, docs, counts) -> "Index":
    """The Index of the tokens numbered ``term_of`` in the sorted ``terms``, whose
    numbers in the sorted ``doc_ids`` are ``docs`` repeated ``counts`` times: the one
    builder of the arrays. That document column lives only while it is added to the
    keys. ``term_of`` becomes the keys in place when it has their type; the caller's
    reference keeps it alive (``build_index``'s ``tokens`` buffer, which the sorts
    reuse while keys are int32, and which stays next to int64 keys at 10^5 documents)."""
    n_terms, n = len(terms), len(doc_ids)
    keys = term_of.astype(key_dtype(n_terms, n), copy=False)
    del term_of
    keys *= n
    keys += np.repeat(docs, counts)
    by_term = _rows(keys, n_terms, n)
    _split_keys(keys, n, n_terms)  # to doc * n_terms + term
    by_doc = _rows(keys, n, n_terms)
    del keys
    return Index(tuple(terms), tuple(doc_ids), by_term, by_doc)


class _PostingsView(Mapping):
    """term -> {doc_id: tf} in ascending doc_id order, a new dict on each access."""

    def __init__(self, index: "Index"):
        self._index = index

    def __getitem__(self, term: str) -> dict[str, int]:
        docs, tfs = self._index.by_term.row(self._index.term_row[term])
        return dict(zip(map(self._index.doc_ids.__getitem__, docs.tolist()), tfs.tolist()))

    def __iter__(self):
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)


@dataclass(frozen=True, repr=False)
class Index:
    """Immutable inverted index; its rows are its only stored state.

    Term numbers follow the sorted ``terms``, document numbers the sorted
    ``doc_ids``. ``by_term`` has a row per term of document numbers and tfs
    (retrieval, VAR); ``by_doc``, its transpose, a row per document of term
    numbers and tfs (RM1, the RM re-ranking). N, |C| and the read-only
    mappings ``doc_len``, ``df`` and ``cf`` (in those orders) are derived from
    the rows, and so are the classes of the distinct cfs and lengths that key
    the per-mu tf = 0 log tables ``zero_tf_logs``, a cache that scoring fills.
    ``postings`` is a mapping view for checks, not for scoring.
    """

    terms: tuple[str, ...]
    doc_ids: tuple[str, ...]
    by_term: Rows
    by_doc: Rows

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def total_tokens(self) -> int:
        return int(self.by_doc.sums.sum())

    @cached_property
    def doc_len(self) -> Mapping[str, int]:
        """doc_id -> length, the tf sum of its ``by_doc`` row."""
        return MappingProxyType(dict(zip(self.doc_ids, self.by_doc.sums.tolist())))

    @cached_property
    def df(self) -> Mapping[str, int]:
        """term -> document frequency, the size of its ``by_term`` row."""
        return MappingProxyType(dict(zip(self.terms, np.diff(self.by_term.ptr).tolist())))

    @cached_property
    def cf(self) -> Mapping[str, int]:
        """term -> collection frequency, the tf sum of its ``by_term`` row."""
        return MappingProxyType(dict(zip(self.terms, self.by_term.sums.tolist())))

    @cached_property
    def cf_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct cfs, ascending, and each term's class: its cf's place among them."""
        return np.unique(self.by_term.sums, return_inverse=True)

    @cached_property
    def length_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct document lengths, ascending, and each document's class."""
        return np.unique(self.by_doc.sums, return_inverse=True)

    @cached_property
    def zero_tf_logs(self) -> dict[float, np.ndarray]:
        """mu -> tf = 0 cell logs by (cf class, length class); 0.0 is not yet filled."""
        return {}

    @cached_property
    def term_row(self) -> dict[str, int]:
        """term -> its number, the row of ``by_term``."""
        return dict(zip(self.terms, range(len(self.terms))))

    @cached_property
    def doc_row(self) -> dict[str, int]:
        """doc_id -> its number, the row of ``by_doc``."""
        return dict(zip(self.doc_ids, range(len(self.doc_ids))))

    @property
    def postings(self) -> Mapping[str, dict[str, int]]:
        """term -> {doc_id: tf}, ascending doc_id; each access builds a new dict."""
        return _PostingsView(self)


TOKEN_CHUNK = 1 << 15  # bytes of normalised text per step; 64 KB builds faster but peaks higher
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd, ~2^64 / golden ratio (Knuth, TAOCP 6.4)
_SLOTS = 1 << 10  # the word table's starting size; it doubles to keep its load at most 1/2


class _Vocabulary(dict):
    """Normalised word -> term number, -1 for a stopword, numbered in ``terms``
    as first seen; the word rule runs once per distinct word. A word of at most 8
    bytes without a NUL is its bytes zero-padded to a little-endian uint64 key, never 0,
    kept with its id in the open-addressing table ``slot_keys`` (0: empty) and
    ``slot_ids``; the dict holds the other words. ``read`` normalises a chunk of
    ``_encode``d documents with the config's byte ``table``."""

    def __init__(self, config: TokenizerConfig):
        super().__init__()
        self.config, self.table, self.terms, self.filled = config, _byte_table(config), {}, 0
        self.slot_keys, self.slot_ids = np.zeros(_SLOTS, np.uint64), np.empty(_SLOTS, np.intc)

    def numbers(self, words: list[bytes]) -> list[int]:
        """The term numbers of new ``words``, -1 for a stopword; a new term takes the next."""
        terms, numbers = self.terms, []
        for term in map(_word_rule, words, repeat(self.config)):
            number = -1 if term is None else terms.get(term)
            if number is None:
                number = terms[term] = len(terms)
            numbers.append(number)
        return numbers

    def __missing__(self, word: bytes) -> int:
        self[word] = number = self.numbers([word])[0]
        return number

    def slots(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's slot: the one holding it, else the empty one ending its linear probe
        from its home, the top bits of key * _HASH mod 2^64; and the positions of the keys
        the table does not hold. The keys not at their home slot probe on together, a step
        a round, until the last one stops."""
        at = keys * _HASH
        at >>= np.uint64(65 - len(self.slot_keys).bit_length())
        at = at.view(np.int64)
        probing = np.flatnonzero(self.slot_keys.take(at) != keys)  # held further on, or absent
        slot, key = at[probing], keys[probing]
        while True:
            held = self.slot_keys.take(slot, mode="wrap")  # past the end: from slot 0 on
            on = np.logical_and(held != key, held)  # another key: step on; 0 or the key: stop
            if not on.any():
                break
            slot += on
        at[probing] = slot & (len(self.slot_keys) - 1)
        return at, probing[held == 0]

    def put(self, new: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Puts the distinct keys ``new``, none in the table yet, in it with their ``ids``;
        returns their slots."""
        slots, waiting = np.empty(new.size, np.int64), np.arange(new.size)
        while waiting.size:  # of the keys probing to one empty slot one takes it, the rest probe on
            keys = new[waiting]
            slot = self.slots(keys)[0]
            self.slot_keys[slot] = keys
            won = self.slot_keys[slot] == keys
            slots[waiting[won]] = slot[won]
            self.slot_ids[slot[won]] = ids[waiting[won]]
            waiting = waiting[~won]
        return slots

    def read(self, parts: list[bytes], tokens: array) -> np.ndarray:
        """Appends the term numbers of the kept words of the documents ``parts``, as
        ``_encode`` gives them, to ``tokens``; returns each document's kept word count."""
        buf = b" ".join([b"", *parts, b" " * 7])  # documents between spaces, 8 after the last
        buf = buf.translate(self.table)  # normalised: a space stays a space
        space = np.frombuffer(buf, dtype=np.uint8) == 32
        edges = np.flatnonzero(space[1:] != space[:-1])
        edges += 1
        starts, ends = edges[0::2], edges[1::2]
        sizes = ends - starts
        short = slice(None)  # the words in the table: all, unless a chunk has a long word or a NUL
        if sizes.size and (sizes.max() > 8 or b"\0" in buf):
            short = sizes <= 8
            if b"\0" in buf:  # zero padding tells "a" from "a\0" only in words without a NUL
                nul = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == 0)
                short[np.searchsorted(starts, nul, side="right") - 1] = False
        eight = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))  # buf[i:i + 8]
        keys = eight.take(starts[short]) & _KEY_MASKS.take(sizes[short])
        at, absent = self.slots(keys)
        if absent.size:
            new = np.sort(keys[absent])  # np.unique's uint64 hash path imports numpy.ma
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]
            words = new.astype("<u8", copy=False).view("S8").tolist()  # "S8" drops the padding
            ids = np.array(self.numbers(words), dtype=np.intc)
            self.filled += new.size
            if 2 * self.filled > len(self.slot_keys):  # double and rehash: load at most 1/2
                full, size = np.flatnonzero(self.slot_keys), 1 << (2 * self.filled - 1).bit_length()
                held = self.slot_keys[full], self.slot_ids[full]
                self.slot_keys, self.slot_ids = np.zeros(size, np.uint64), np.empty(size, np.intc)
                self.put(*held)
                self.put(new, ids)
                at = self.slots(keys)[0]  # every slot moved
            else:
                at[absent] = self.put(new, ids)[np.searchsorted(new, keys[absent])]
        ids = self.slot_ids.take(at)
        if isinstance(short, np.ndarray):  # the other words go through the dict
            ids, short_ids = np.empty(starts.size, dtype=np.intc), ids
            ids[short] = short_ids
            long = np.flatnonzero(~short)
            ids[long] = [self[buf[s:e]] for s, e in zip(starts[long].tolist(), ends[long].tolist())]
        doc_ends = np.cumsum(np.fromiter(map(len, parts), np.intp, len(parts)) + 1)  # in buf
        last = np.searchsorted(starts, doc_ends)  # the words up to each document's end
        if ids.size and ids.min() < 0:  # stopwords: count the kept words
            keep = ids >= 0
            ids = ids[keep]
            kept = np.zeros(keep.size + 1, dtype=np.intp)  # kept words before each word
            np.cumsum(keep, out=kept[1:])
            last = kept[last]
        tokens.frombytes(memoryview(ids).cast("B"))
        return np.diff(last, prepend=0)


def build_index(docs: Iterable[Document], config: TokenizerConfig = DEFAULT_TOKENIZER) -> Index:
    """Tokenize ``docs``, any iterable, in its order, and build the index; errors on
    no documents, a repeated doc_id, every document tokenizing empty, or a lone
    surrogate (which UTF-8 cannot write) in a doc_id or, under ``split_non_alnum=False``,
    in a text (a split text turns it into a separator).

    numpy finds the words of the normalised documents, TOKEN_CHUNK bytes at a
    time; only a word not seen before goes through the word rule of ``tokenize``.
    A chunk whose words are all of at most 8 bytes without a NUL skips the dict
    lookups, and one without a stopword the kept-word count. A document's text is
    held only until its chunk is read."""
    vocabulary = _Vocabulary(config)
    tokens = array("i")  # C int: 32 bits on every supported platform
    doc_ids, lengths, parts, size = [], [], [], 0
    for doc in docs:
        doc_id, text = doc.doc_id, doc.text
        if not doc_id.isascii() and _SURROGATE.search(doc_id) or (
                not config.split_non_alnum and not text.isascii() and _SURROGATE.search(text)):
            raise CorpusError(f"document {doc_id!r}: doc_id or text holds a lone surrogate")
        doc_ids.append(doc_id)
        part = _encode(text, config)
        parts.append(part)
        size += len(part) + 1
        if size >= TOKEN_CHUNK:
            lengths.append(vocabulary.read(parts, tokens))
            parts, size = [], 0
    if parts:
        lengths.append(vocabulary.read(parts, tokens))
    doc = text = part = parts = None  # the last document and chunk are not held through the sorts
    if not doc_ids:
        raise CorpusError("cannot index an empty corpus")
    order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    doc_ids = [doc_ids[i] for i in order]
    for a, b in zip(doc_ids, doc_ids[1:]):
        if a == b:
            raise CorpusError(f"duplicate doc_id {a!r}")
    if not tokens:
        raise CorpusError("all documents tokenized to empty")
    doc_of = np.empty(len(order), dtype=np.int32)  # input position -> sorted number
    doc_of[order] = np.arange(len(order), dtype=np.int32)
    del order
    terms = sorted(vocabulary.terms)
    rank = np.empty(len(terms), dtype=np.intc)  # first-seen number -> sorted number
    rank[list(map(vocabulary.terms.__getitem__, terms))] = np.arange(len(terms))
    del vocabulary
    term_of = np.frombuffer(tokens, dtype=np.intc)
    for lo in range(0, term_of.size, RUN_CHUNK):  # indices are valid; "clip" writes out unbuffered
        np.take(rank, term_of[lo:lo + RUN_CHUNK], out=term_of[lo:lo + RUN_CHUNK], mode="clip")
    return _from_tokens(terms, doc_ids, term_of, doc_of, np.concatenate(lengths))


def dump_stats(index: Index, path) -> None:
    """Plain-text dump of every statistic the predictors consume.

    Format: a header line, one `doc` line per document, and one `term`
    line per term carrying its full postings list.
    """
    def lines():
        yield f"# {SNAPSHOT_MAGIC} stats v{SNAPSHOT_VERSION}"
        yield f"N\t{index.n_docs}"
        yield f"C\t{index.total_tokens}"
        for doc_id, length in index.doc_len.items():
            yield f"doc\t{doc_id}\t{length}"
        for r, term in enumerate(index.terms):
            docs, tfs = (a.tolist() for a in index.by_term.row(r))
            cells = "\t".join(f"{index.doc_ids[d]}:{tf}" for d, tf in zip(docs, tfs))
            yield f"term\t{term}\t{cells}"
    write_lines(path, lines())


def load_stats(path) -> Index:
    """Rebuild an Index from a stats dump written by :func:`dump_stats`.

    The dump is the index snapshot format. A wrong header, a malformed
    record or statistics that break an index invariant raise CorpusError.
    """
    header = f"# {SNAPSHOT_MAGIC} stats v{SNAPSHOT_VERSION}"
    n_docs = total = None
    doc_len: dict[str, int] = {}
    postings: dict[str, dict[str, int]] = {}
    lines = read_lines(path)
    if next(lines, (1, None))[1] != header:
        raise CorpusError(f"{path}: not an index stats dump (expected header {header!r})")
    for lineno, line in lines:
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
    if n_docs != len(doc_len):
        raise CorpusError(f"{path}: N = {n_docs} but {len(doc_len)} documents")
    if sum(doc_len.values()) != total:
        raise CorpusError(f"{path}: sum of doc lengths != total_tokens")
    tf_sums = Counter()
    for term, plist in postings.items():
        if not plist:
            raise CorpusError(f"{path}: df out of range for {term!r}")
        unknown = [d for d in plist if d not in doc_len]
        if unknown:
            raise CorpusError(f"{path}: postings of {term!r} name unknown documents {unknown}")
        tf_sums.update(plist)
    bad = sorted(d for d, n in doc_len.items() if tf_sums[d] != n)
    if bad:
        raise CorpusError(f"{path}: sum of tf != doc length for documents {bad}")
    terms, doc_ids = sorted(postings), sorted(doc_len)
    doc_row = dict(zip(doc_ids, range(len(doc_ids))))
    sizes = [len(postings[t]) for t in terms]
    tfs = np.fromiter((tf for t in terms for tf in postings[t].values()), np.int64, sum(sizes))
    docs = np.fromiter((doc_row[d] for t in terms for d in postings[t]), np.int64, sum(sizes))
    return _from_tokens(terms, doc_ids, np.repeat(np.repeat(np.arange(len(terms)), sizes), tfs),
                        docs, tfs)


def load_queries(path, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[Query]:
    """Read a queries file: ``query_id<TAB>text``, one query per line."""
    queries = []
    seen = set()
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected 'query_id<TAB>text'")
        qid, text = parts
        if qid.split() != [qid]:  # a run line is split on whitespace
            raise CorpusError(f"{path}:{lineno}: query_id {qid!r} is empty or has whitespace")
        if qid in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate query_id {qid!r}")
        seen.add(qid)
        queries.append(Query(qid, tuple(tokenize(text, config))))
    return queries


def load_qrels(path) -> Qrels:
    """Read TREC 4-column qrels: ``qid 0 docid grade``, whitespace-separated."""
    grades: dict[tuple[str, str], int] = {}
    for lineno, line in read_lines(path):
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
        if (qid, did) in grades:
            raise CorpusError(f"{path}:{lineno}: repeated judgement of {did!r} for {qid!r}")
        grades[(qid, did)] = g
    return Qrels(grades)


def _sense_counts(term: str, total: int, noun: int) -> tuple[int, int]:
    if total < 0 or noun < 0 or noun > total:
        raise CorpusError(f"bad sense counts for {term!r}: ({total}, {noun})")
    return total, noun


class SenseLexicon:
    """term -> (total_senses, noun_senses); noun_senses never exceeds total."""

    def __init__(self, senses: dict[str, tuple[int, int]]):
        self._senses = {term: _sense_counts(term, *counts) for term, counts in senses.items()}

    def __contains__(self, term: str) -> bool:
        return term in self._senses

    def __len__(self) -> int:
        return len(self._senses)

    def get(self, term: str) -> tuple[int, int] | None:
        return self._senses.get(term)


def load_lexicon(path) -> SenseLexicon:
    """Read a sense lexicon: ``term<TAB>total_senses<TAB>noun_senses``."""
    senses: dict[str, tuple[int, int]] = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusError(f"{path}:{lineno}: expected 3 columns")
        term, total, noun = parts
        if term in senses:
            raise CorpusError(f"{path}:{lineno}: duplicate term {term!r}")
        try:
            senses[term] = _sense_counts(term, int(total), int(noun))
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: non-integer sense count") from exc
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
    return SenseLexicon(senses)
