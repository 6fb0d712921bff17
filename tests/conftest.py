import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOY_DIR = REPO_ROOT / "data" / "toy"

sys.path.insert(0, str(REPO_ROOT))  # for tests.brute_force_reference

from qppfuse.corpus import (Document, Query, build_index, ingest, load_lexicon, load_qrels,
                            load_queries)


@pytest.fixture(scope="session")
def toy_dir():
    return TOY_DIR


@pytest.fixture(scope="session")
def toy_docs():
    return ingest(TOY_DIR / "docs.jsonl", "jsonl")


@pytest.fixture(scope="session")
def toy_index(toy_docs):
    return build_index(toy_docs)


@pytest.fixture(scope="session")
def toy_queries():
    return load_queries(TOY_DIR / "queries.tsv")


@pytest.fixture(scope="session")
def toy_qrels():
    return load_qrels(TOY_DIR / "qrels.txt")


@pytest.fixture(scope="session")
def toy_lexicon():
    return load_lexicon(TOY_DIR / "lexicon.tsv")


@pytest.fixture(scope="session")
def random_corpus():
    """Seeded Zipf-like corpus of 120 docs over 400 terms, plus 6 queries."""
    rng = np.random.default_rng(20251018)
    vocab = [f"w{i}" for i in range(400)]
    weights = 1.0 / np.arange(1, 401) ** 1.1
    weights /= weights.sum()
    docs = []
    for i in range(120):
        length = int(rng.integers(20, 80))
        docs.append(Document(f"r{i:03d}", " ".join(rng.choice(vocab, size=length, p=weights))))
    queries = [Query(f"rq{j}", tuple(rng.choice(vocab[:20], size=int(rng.integers(1, 4)))))
               for j in range(6)]
    return build_index(docs), queries
