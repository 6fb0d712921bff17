"""Pre-retrieval predictors computed from index statistics and a sense lexicon.

Ten predictors in four families:
  specificity   AvgIDF, MaxIDF with idf(t) = ln(N/df)
  similarity    SumSCQ, AvgSCQ, MaxSCQ with SCQ(t) = (1 + ln cf) * ln(1 + N/df)
  variability   SumVAR, AvgVAR, MaxVAR with VAR(t) = population std of
                (1 + ln tf(t,d)) * ln(N/df) over the documents containing t
  ambiguity     AvP, AvNP — mean (noun) sense counts over lexicon terms

All logs natural. Duplicate query terms are scored once per distinct term
by default; terms missing from the index (or lexicon) are excluded, so the
averages run over scored terms only. A family with no scored terms yields
zeros and counts as degenerate (n_terms == 0).
"""

import math
from typing import NamedTuple

import numpy as np

from .corpus import Index, Query, SenseLexicon
from .evaluation import write_scores_long, write_scores_wide
from .experiment import PRE_PREDICTORS
from .retrieval import scoreable_terms
from .seeding import seq_sum

__all__ = [
    "PRE_PREDICTORS",
    "IdfFamily",
    "ScqFamily",
    "VarFamily",
    "PolysemyScores",
    "idf_family",
    "scq_family",
    "var_family",
    "polysemy",
    "compute_pre_scores",
    "write_scores_long",
    "write_scores_wide",
]


class IdfFamily(NamedTuple):
    avg: float
    max: float
    n_terms: int


class ScqFamily(NamedTuple):
    sum: float
    avg: float
    max: float
    n_terms: int


class VarFamily(NamedTuple):
    sum: float
    avg: float
    max: float
    n_terms: int


class PolysemyScores(NamedTuple):
    avg_senses: float
    avg_noun_senses: float
    n_terms: int


def _query_terms(query, distinct: bool) -> list[str]:
    terms = query.terms if isinstance(query, Query) else tuple(query)
    # sorted so that scores are exactly invariant to query-term order
    return sorted(set(terms)) if distinct else list(terms)


def _scored_terms(index: Index, query, distinct: bool) -> list[str]:
    return scoreable_terms(index, _query_terms(query, distinct))


def _summary(values: list[float]) -> tuple[float, float, float, int]:
    """Sum, mean, max and count of the scored terms' values; zeros for none."""
    if not values:
        return 0.0, 0.0, 0.0, 0
    total = seq_sum(values)
    return total, total / len(values), max(values), len(values)


def idf_family(index: Index, query, distinct: bool = True) -> IdfFamily:
    _, avg, top, n = _summary([math.log(index.n_docs / index.df[t])
                               for t in _scored_terms(index, query, distinct)])
    return IdfFamily(avg, top, n)


def scq_family(index: Index, query, distinct: bool = True) -> ScqFamily:
    return ScqFamily(*_summary([
        (1.0 + math.log(index.cf[t])) * math.log(1.0 + index.n_docs / index.df[t])
        for t in _scored_terms(index, query, distinct)]))


def _exact_pstdev(values, counts) -> float:
    """Population std of ``values``, each repeated ``counts`` times: exact and
    correctly rounded, the bits of ``statistics.pstdev`` from Python 3.11 on.

    The values are integers over their largest denominator D (floats' are powers
    of two); the variance is (n * S2 - S1**2) / (n * D)**2 in integers, and its
    root is an isqrt of at least 56 bits, rounded to odd, then divided once.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    nums = [p * (scale // d) for p, d in ratios]
    n = seq_sum(counts, 0)
    s1 = seq_sum((c * p for c, p in zip(counts, nums)), 0)
    s2 = seq_sum((c * p * p for c, p in zip(counts, nums)), 0)
    num, den = n * s2 - s1 * s1, (n * scale) ** 2
    shift = max(0, 112 - num.bit_length() + den.bit_length()) // 2
    root = math.isqrt((num << 2 * shift) // den)
    root |= root * root * den != num << 2 * shift  # a sticky bit for an inexact root
    return root / (1 << shift)


def term_weight_std(index: Index, term: str) -> float:
    """Population std of (1 + ln tf) * idf over the postings of ``term``, one
    weight per distinct tf: the runs of the sorted row, so memory follows the row."""
    idf = math.log(index.n_docs / index.df[term])
    found, counts = np.unique(index.by_term.row(index.term_row[term])[1], return_counts=True)
    return _exact_pstdev([(1.0 + math.log(tf)) * idf for tf in found.tolist()], counts.tolist())


def var_family(index: Index, query, distinct: bool = True) -> VarFamily:
    return VarFamily(*_summary([term_weight_std(index, t) for t in _scored_terms(index, query, distinct)]))


def polysemy(query, lexicon: SenseLexicon, distinct: bool = True) -> PolysemyScores:
    counts = [lexicon.get(t) for t in _query_terms(query, distinct) if t in lexicon]
    if not counts:
        return PolysemyScores(0.0, 0.0, 0)
    senses, nouns = (seq_sum(column, 0) / len(counts) for column in zip(*counts))
    return PolysemyScores(senses, nouns, len(counts))


def compute_pre_scores(
    index: Index,
    query,
    lexicon: SenseLexicon | None = None,
    distinct: bool = True,
) -> dict[str, float]:
    """All ten pre-retrieval values for one query, keyed by canonical name."""
    idf = idf_family(index, query, distinct)
    scq = scq_family(index, query, distinct)
    var = var_family(index, query, distinct)
    pol = PolysemyScores(0.0, 0.0, 0) if lexicon is None else polysemy(query, lexicon, distinct)
    return {
        "AvgIDF": idf.avg,
        "MaxIDF": idf.max,
        "SumSCQ": scq.sum,
        "AvgSCQ": scq.avg,
        "MaxSCQ": scq.max,
        "SumVAR": var.sum,
        "AvgVAR": var.avg,
        "MaxVAR": var.max,
        "AvP": pol.avg_senses,
        "AvNP": pol.avg_noun_senses,
    }
