"""The Student-t CDF behind the paired t-test, against a 40-digit oracle.

``_t_cdf(k, t)`` is Cephes' finite series for integer degrees of freedom.
The oracle is mpmath's regularized incomplete beta function: for t < 0 the
lower tail is I_{k/(k+t^2)}(k/2, 1/2) / 2, and the CDF is symmetric about 0.
The absolute error grows with the length of the series, so the bounds are
set per range of k.
"""

import math

import mpmath
import numpy as np
import pytest

from qppfuse.evaluation import _t_cdf

FIXED_T = (1e-300, 40.0, 1e6)


def _oracle(k: int, t: float) -> float:
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        tail = mpmath.betainc(mpmath.mpf(k) / 2, mpmath.mpf(1) / 2, 0, k / (k + t * t),
                              regularized=True) / 2
        return tail if t < 0 else 1 - tail


def _bound(k: int) -> float:
    return 5e-16 if k <= 30 else 1e-15 if k <= 100 else 4e-15


def test_matches_mpmath_for_every_df_up_to_300():
    rng = np.random.default_rng(17)
    for k in range(1, 301):
        scales = 10.0 ** rng.uniform(-1.0, 2.0, 4)  # |t| from 0.1 to 100
        for t in [*scales.tolist(), *FIXED_T]:
            for signed in (t, -t):
                error = abs(float(_t_cdf(k, signed) - _oracle(k, signed)))
                assert error <= _bound(k), (k, signed, error)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 29, 30, 99, 100, 299, 300])
def test_edge_values(k):
    assert _t_cdf(k, 0.0) == 0.5 and _t_cdf(k, -0.0) == 0.5
    assert _t_cdf(k, math.inf) == 1.0
    assert _t_cdf(k, -math.inf) == 0.0
    assert math.isnan(_t_cdf(k, math.nan))
    assert _t_cdf(k, 1e200) == 1.0 and _t_cdf(k, -1e200) == 0.0


@pytest.mark.parametrize("k", [0, -1])
def test_rejects_fewer_than_one_degree_of_freedom(k):
    with pytest.raises(ValueError):
        _t_cdf(k, 1.0)


def test_symmetric_about_zero():
    rng = np.random.default_rng(23)
    for k in range(1, 301):
        for t in (10.0 ** rng.uniform(-3.0, 3.0, 5)).tolist():
            assert abs(_t_cdf(k, t) + _t_cdf(k, -t) - 1.0) <= 4e-16, (k, t)
