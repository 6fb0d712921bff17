"""The one Pearson core: ``pearson``, ``pearson_r``, the Pearson matrix and NQC.

``_parent_pearson_r`` is the sequential-sum formula the package used before
the core, with its sums written as ``+=`` loops (builtin ``sum`` adds the
same way on 3.10 and 3.11). Wherever it is defined and its sums stay in the
float range, the core must give its bits (``float.hex``), and the matrix
must equal the per-pair calls cell by cell, reason by reason, however its
blocks split the pairs. Sums outside the float range are undefined.
"""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from qppfuse import evaluation
from qppfuse.evaluation import (
    UndefinedMetricError,
    kendall_tau_b,
    mean_ssd,
    pearson,
    pearson_r,
    predictor_correlation_matrix,
)
from qppfuse.post_retrieval import nqc
from qppfuse.retrieval import RankedList, collection_likelihood, retrieve
from tests.brute_force_reference import pop_std


def _parent_pearson_r(a, b):
    """None on an exactly constant input or a zero denominator, else Sab / sqrt(Saa * Sbb)."""
    if all(x == a[0] for x in a) or all(y == b[0] for y in b):
        return None
    n = len(a)
    ma = mb = 0.0
    for x, y in zip(a, b):
        ma += x
        mb += y
    ma, mb = ma / n, mb / n
    sab = saa = sbb = 0.0
    for x, y in zip(a, b):
        sab += (x - ma) * (y - mb)
        saa += (x - ma) ** 2
        sbb += (y - mb) ** 2
    denom = math.sqrt(saa * sbb)
    return None if denom == 0.0 else sab / denom


def _bits(x):
    return None if x is None else float(x).hex()


def _outcome(a, b):
    """pearson's coefficient, or its exception type and message."""
    try:
        return pearson(a, b).coefficient
    except (UndefinedMetricError, ValueError) as exc:
        return type(exc), str(exc)


def _pairs(rng, count):
    """Seeded pairs with n from 2 to 999: continuous, tied, signed-zero and wide-range."""
    for k in range(count):
        n = int(rng.integers(2, 1000))
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-60, 61)
        b = rng.uniform(-2, 2) * a + rng.standard_normal(n) * abs(a).max()
        if k % 4 == 1:
            a, b = np.round(a / abs(a).max() * 3), np.round(b / abs(b).max() * 2)
        elif k % 4 == 2:
            a = rng.choice([-0.0, 0.0, 1.0, -2.0], n)
        yield a, b


def test_pearson_r_and_pearson_keep_the_parent_bits():
    rng = np.random.default_rng(33)
    defined = 0
    for a, b in _pairs(rng, 400):
        expected = _parent_pearson_r(a.tolist(), b.tolist())
        assert _bits(pearson_r(a.tolist(), b.tolist())) == _bits(expected)
        if a.size >= 3 and expected is not None:
            clamped = max(-1.0, min(1.0, expected))
            assert _bits(pearson(a, b).coefficient) == _bits(clamped)
            defined += 1
    assert defined > 300


def test_signed_zero_cross_sum_is_positive_zero():
    # every centred product is -0.0: Python's sum starts at 0 and gives 0.0, a bare cumsum -0.0
    a, b = [-0.0, 0.0, 1.0, -1.0], [1.0, -1.0, -0.0, 0.0]
    assert np.cumsum(np.multiply(a, b))[-1].hex() == "-0x0.0p+0"
    assert _bits(pearson_r(a, b)) == _bits(_parent_pearson_r(a, b)) == "0x0.0p+0"
    assert _bits(pearson(a, b).coefficient) == "0x0.0p+0"


def test_small_n():
    for n in (0, 1):
        assert pearson_r([1.0] * n, [2.0] * n) is None
    a, b = [1.0, 3.0], [7.0, -2.0]
    assert _bits(pearson_r(a, b)) == _bits(_parent_pearson_r(a, b))
    assert pearson_r([1.0, 1.0], b) is None
    for n in (0, 1, 2):
        with pytest.raises(UndefinedMetricError, match=f"^need n >= 3, got {n}$"):
            pearson(np.arange(n, dtype=float), np.arange(n, dtype=float) ** 2)
    with pytest.raises(ValueError, match="equal length"):
        pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])


def test_python_squares_not_numpy_products():
    """``(x - m) ** 2`` calls libm pow, which can round differently from ``xc * xc``.

    A column of +-d pairs has mean exactly 0, so its deviations are the d themselves."""
    sample = np.random.default_rng(0).standard_normal(200_000).tolist()
    hazards = [d for d in sample if d ** 2 != d * d]
    if len(hazards) < 8:
        pytest.skip("this platform's pow squares every sampled double like a product")
    for k in range(0, len(hazards) - 3, 4):
        col = [v for d in hazards[k:k + 4] for v in (d, -d)]
        python_ss = numpy_ss = 0.0
        for d in col:
            python_ss += d ** 2
            numpy_ss += d * d
        if python_ss != numpy_ss:
            break
    else:
        pytest.skip("no sampled column's sum of squares depends on pow")
    mean, ss = mean_ssd(col)
    assert mean == 0.0 and ss.hex() == python_ss.hex() != numpy_ss.hex()
    other = np.random.default_rng(1).standard_normal(len(col))
    expected = _bits(_parent_pearson_r(col, other.tolist()))
    assert _bits(pearson_r(col, other.tolist())) == expected
    assert _bits(pearson(col, other).coefficient) == expected
    corr = predictor_correlation_matrix({"col": col, "other": other})
    assert _bits(corr.value("col", "other")) == expected


def _matrix_columns(n, rng):
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    with_nan, with_inf = x.copy(), y.copy()
    with_nan[: n // 2 + 1] = math.nan
    with_inf[n - 1:] = math.inf
    return {"x": x, "y": y, "tied": rng.integers(0, 3, n).astype(float),
            "zeros": rng.choice([-0.0, 0.0, 1.0], n), "constant": np.full(n, 0.4),
            "nan": with_nan, "inf": with_inf, "reversed": -x, "copy": x.copy(),
            "wide": x * 1e100, "near 1e110": 1e110 * (3.0 + y), "near 1e-170": 1e-170 * (3.0 + x),
            "1e160 spread": 1e160 * y}


@pytest.mark.parametrize("block_cells", [1, 7, 64, None])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 300])
def test_matrix_equals_pairwise_pearson(n, block_cells, monkeypatch):
    if block_cells is not None:
        monkeypatch.setattr(evaluation, "BLOCK_CELLS", block_cells)
    calls = []
    monkeypatch.setattr(evaluation, "mean_ssd", lambda values: calls.append(1) or mean_ssd(values))
    columns = _matrix_columns(n, np.random.default_rng(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = predictor_correlation_matrix(columns, metric="pearson")
    names = list(columns)
    assert len(calls) == (len(names) if n >= 3 else 0)  # each column centred and squared once
    for i, j in combinations(range(len(names)), 2):
        a, b = columns[names[i]], columns[names[j]]
        outcome = _outcome(a, b)
        cell, reason = corr.matrix[i, j], corr.missing.get((names[i], names[j]))
        assert _bits(cell) == _bits(corr.matrix[j, i])
        if isinstance(outcome, float):
            assert (_bits(cell), reason) == (_bits(outcome), None), (names[i], names[j])
            expected = _parent_pearson_r(a.tolist(), b.tolist())
            assert _bits(cell) == _bits(max(-1.0, min(1.0, expected))), (names[i], names[j])
        else:
            assert math.isnan(cell), (names[i], names[j])
            assert outcome == (UndefinedMetricError, reason), (names[i], names[j])


def test_matrix_reasons_cover_every_rule():
    for n, expected in ((300, {"non-finite input", "zero variance input", "outside the float range"}),
                        (2, {"need n >= 3, got 2"})):
        columns = _matrix_columns(n, np.random.default_rng(n))
        assert set(predictor_correlation_matrix(columns).missing.values()) == expected
    # exactly constant, though the rounded mean of six 0.4s is one ulp off 0.4
    with pytest.raises(UndefinedMetricError, match="^zero variance input$"):
        pearson([0.4] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def _near(scale, rng, n=20):
    x = rng.standard_normal(n)
    return scale * (3.0 + x), scale * (3.0 + x + 0.03 * rng.standard_normal(n))


@pytest.mark.parametrize("case", ["products overflow", "products underflow", "squares overflow"])
def test_sums_outside_the_float_range_are_undefined(case):
    rng = np.random.default_rng(5)
    if case == "products overflow":  # Saa * Sbb is inf: sqrt(inf) read as r = 0
        a, b = _near(1e110, rng)
    elif case == "products underflow":  # Saa * Sbb is 0: read as zero variance
        a, b = _near(1e-170, rng)
    else:  # a deviation above sqrt(max float): (x - m) ** 2 raised OverflowError
        a, b = 1e160 * rng.standard_normal(20), rng.standard_normal(20)
    if case != "squares overflow":  # the true r is defined: rescaled, and by rank
        assert pearson(a / a.max(), b / b.max()).coefficient > 0.99
        assert kendall_tau_b(a, b).coefficient > 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UndefinedMetricError, match="^outside the float range$"):
            pearson(a, b)
        assert pearson_r(a.tolist(), b.tolist()) is None
        corr = predictor_correlation_matrix({"a": a, "b": b, "c": b + 1.0})
    assert math.isnan(corr.value("a", "b")) and corr.missing[("a", "b")] == "outside the float range"


def test_nqc_is_the_population_std(toy_index, toy_queries):
    for query in toy_queries:
        ranked = retrieve(toy_index, query, k=1000, mu=1000.0)
        cl = collection_likelihood(toy_index, query.terms)
        for k in (2, 10, 1000):
            expected = pop_std(ranked.scores[:k]) / abs(cl) if len(ranked) >= 2 else 0.0
            assert nqc(toy_index, query, ranked, k=k).hex() == expected.hex()
    query = toy_queries[0]
    cl = collection_likelihood(toy_index, query.terms)
    rng = np.random.default_rng(8)
    for n in (2, 3, 50, 400):
        scores = sorted((rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) - 20.0).tolist())[::-1]
        ranked = RankedList("seeded", tuple((f"d{i}", s) for i, s in enumerate(scores)))
        assert nqc(toy_index, query, ranked, k=n).hex() == (pop_std(scores) / abs(cl)).hex()
