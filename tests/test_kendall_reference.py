"""Evaluation-layer equivalence: Kendall tau-b, average ranks and the t-test p-value.

``_reference_kendall_tau_b`` is the earlier n x n sign-matrix implementation,
copied unchanged; the O(n log n) ``kendall_tau_b`` must return the same float
(``==``) or raise the same exception type. The rank helper and the paired
t-test must equal the ``scipy.stats`` calls they replaced, bit for bit.
"""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qppfuse.evaluation import (
    CorrelationResult,
    UndefinedMetricError,
    _average_ranks,
    kendall_tau_b,
    paired_t_one_sided,
    predictor_correlation_matrix,
    smare,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _reference_kendall_tau_b(a, b) -> CorrelationResult:
    """Tie-aware Kendall's tau from exact integer pair counts.

    tau_b = (C - D) / sqrt((C + D + Ta) * (C + D + Tb)) where Ta / Tb count
    pairs tied only in a / only in b; pairs tied in both count nowhere.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = a.size
    if n < 2:
        raise UndefinedMetricError(f"need n >= 2, got {n}")
    iu = np.triu_indices(n, k=1)
    da = np.sign(a[:, None] - a[None, :])[iu]
    db = np.sign(b[:, None] - b[None, :])[iu]
    prod = da * db
    c = int(np.count_nonzero(prod > 0))
    d = int(np.count_nonzero(prod < 0))
    t_a = int(np.count_nonzero((da == 0) & (db != 0)))
    t_b = int(np.count_nonzero((db == 0) & (da != 0)))
    denom_sq = (c + d + t_a) * (c + d + t_b)
    if denom_sq == 0:
        raise UndefinedMetricError("all pairs tied in one vector")
    return CorrelationResult((c - d) / math.sqrt(denom_sq), n)


def _outcome(fn, a, b):
    try:
        return fn(a, b).coefficient
    except (UndefinedMetricError, ValueError) as exc:
        return type(exc)


def _with_inversions(n, k, rng):
    """A permutation of range(n) with exactly k inversions (Lehmer code, shuffled digits)."""
    digits = [0] * n
    for i in rng.permutation(n - 1):
        digits[i] = min(k, n - 1 - i)
        k -= digits[i]
    assert k == 0
    remaining = list(range(n))
    return np.array([remaining.pop(c) for c in digits], dtype=float)


def _continuous(n, rng):
    return rng.standard_normal(n), rng.standard_normal(n)


def _heavy_ties(n, rng):
    return rng.integers(0, 3, n).astype(float), rng.integers(0, 4, n).astype(float)


def _mixed(n, rng):  # one continuous vector, one tied; signed zeros tie with zeros
    a = rng.standard_normal(n)
    b = rng.integers(-1, 2, n).astype(float)
    b[b == 0] = np.where(rng.random(int((b == 0).sum())) < 0.5, -0.0, 0.0)
    return a, b


def _all_tied(n, rng):
    a = np.full(n, float(rng.integers(0, 5)))
    return (a, rng.standard_normal(n)) if rng.random() < 0.5 else (rng.standard_normal(n), a)


def _reversal(n, rng):
    a = rng.integers(0, max(2, n // 3), n).astype(float) if rng.random() < 0.5 \
        else rng.standard_normal(n)
    return a, 5.0 - 2.0 * a


def _balanced(n, rng):
    """C == D: a permutation with half of all pairs inverted, or a full tie grid."""
    if rng.random() < 0.5:
        n = max(4, n - n % 4)  # n(n-1)/2 is even
        return np.arange(n, dtype=float), _with_inversions(n, n * (n - 1) // 4, rng)
    side = max(2, math.isqrt(n))
    cells = rng.permutation(side * side)
    return (cells // side).astype(float), (cells % side).astype(float)


KINDS = {f.__name__.lstrip("_"): f for f in
         (_continuous, _heavy_ties, _mixed, _all_tied, _reversal, _balanced)}


def _sizes(rng):
    """50 sizes per kind: 2..2,000, mostly small, always 2, 3, 1,000 and 2,000."""
    drawn = np.exp(rng.uniform(np.log(2), np.log(400), 46)).astype(int)
    return [2, 3, 1000, 2000] + drawn.tolist()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_matches_reference(kind):
    rng = np.random.default_rng([20261018, sorted(KINDS).index(kind)])
    for n in _sizes(rng):
        a, b = KINDS[kind](n, rng)
        expected = _outcome(_reference_kendall_tau_b, a, b)
        got = _outcome(kendall_tau_b, a, b)
        assert got == expected, f"{kind} n={len(a)}: {got!r} != reference {expected!r}"


def test_case_kinds_reach_their_regimes():
    rng = np.random.default_rng(1)
    assert kendall_tau_b(*_reversal(50, rng)).coefficient == -1.0
    assert kendall_tau_b(*_balanced(40, rng)).coefficient == 0.0
    with pytest.raises(UndefinedMetricError, match="all pairs tied"):
        kendall_tau_b(*_all_tied(20, rng))


@pytest.mark.parametrize("a, b", [
    ([1, 1, 2, 3], [math.nan, 2, 3, 1]),
    ([math.nan] * 4, [1, 2, 3, 4]),
    ([1, 2, 3, 4], [1, math.inf, 3, 4]),
    ([-math.inf, 2, 3, 4], [1, 2, 3, 4]),
])
def test_non_finite_input_is_undefined(a, b):
    with pytest.raises(UndefinedMetricError, match="non-finite input"):
        kendall_tau_b(a, b)


def test_non_finite_becomes_nan_cell():
    columns = {"x": [1.0, 2.0, 3.0, 4.0], "y": [1.0, math.nan, 2.0, 3.0], "z": [4.0, 3.0, 2.0, 1.0]}
    corr = predictor_correlation_matrix(columns, metric="kendall")
    assert math.isnan(corr.value("x", "y")) and corr.missing[("x", "y")] == "non-finite input"
    assert corr.value("x", "z") == -1.0


def test_kendall_matrix_memory_is_linear():
    rng = np.random.default_rng(7)
    columns = {name: rng.standard_normal(7000) for name in ("a", "b", "c")}
    columns["c"] = np.round(columns["c"], 1)  # ties too
    tracemalloc.start()
    try:
        predictor_correlation_matrix(columns, metric="kendall")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_average_ranks_equal_scipy_rankdata():
    rng = np.random.default_rng(11)
    vectors = [np.array([3.0, -0.0, 0.0, math.inf, -math.inf, math.inf]),
               np.array([1.0, math.nan, 2.0])]
    for k in range(200):
        n = int(rng.integers(1, 300))
        vectors.append(rng.integers(0, 1 + k % 10, n).astype(float) if k % 2
                       else rng.standard_normal(n))
    for x in vectors:
        assert np.array_equal(_average_ranks(x), stats.rankdata(x, method="average"),
                              equal_nan=True)


def test_smare_equals_scipy_formula():
    rng = np.random.default_rng(12)
    for k in range(100):
        n = int(rng.integers(2, 200))
        pred = rng.integers(0, 6, n).astype(float) if k % 2 else rng.standard_normal(n)
        ap = rng.integers(0, 4, n).astype(float)
        sare = np.abs(stats.rankdata(pred, method="average")
                      - stats.rankdata(ap, method="average")) / n
        value, per_query = smare(pred, ap)
        assert value == float(sare.mean()) and np.array_equal(per_query, sare)


def test_paired_t_equals_scipy_t_cdf():
    rng = np.random.default_rng(13)
    for k in range(300):
        n = int(rng.integers(2, 300))
        err_a = rng.random(n)
        err_b = err_a + rng.normal(0.02 * (k % 5 - 2), 0.1, n)
        d = err_a - err_b
        t = float(d.mean()) / (float(d.std(ddof=1)) / math.sqrt(n))
        assert paired_t_one_sided(err_a, err_b) == float(stats.t.cdf(t, df=n - 1))


def test_import_leaves_scipy_stats_out():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qppfuse, qppfuse.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
