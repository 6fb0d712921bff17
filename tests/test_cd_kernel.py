"""The E-Net kernel against its references, cold and warm.

The kernel is ``fusion._enet_beta``: the LASSO path on gram + l2*I, stopped at
the first knot at or below l1 and read there. Its bits must equal the full
path's read at l1, and the plain coordinate-descent loop, started from zeros
(cold) or from a mixed-sign point (warm) and run to a tight tolerance, must
reach the same coefficients.
"""

import numpy as np
import pytest

from qppfuse import fusion
from tests.test_enet_path import _reference_cd_sweeps

CD_TOL = 1e-13
CD_MAX_SWEEPS = 100_000


def _problem(seed, m, zero_column=False):
    """Centered Gram matrix and correlation vector of a seeded correlated design."""
    rng = np.random.default_rng(seed)
    n = 3 * m + 5
    x = rng.standard_normal((n, m)) + 0.8 * rng.standard_normal((n, 1))
    if zero_column:
        x[:, 0] = 0.0
    x -= x.mean(axis=0)
    y = x @ rng.standard_normal(m) + 0.5 * rng.standard_normal(n)
    y -= y.mean()
    return x.T @ x, x.T @ y


def _mixed_sign_start(seed, m):
    rng = np.random.default_rng(seed + 1000)
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    return signs * rng.uniform(0.1, 2.0, m)


def _assert_matches_reference(gram, corr, lam, alpha, beta0):
    got = fusion._enet_beta(gram, corr, lam, alpha)
    l1, l2 = lam * alpha, lam * (1.0 - alpha)
    g = gram + l2 * np.eye(corr.size) if l2 else gram
    assert got.tobytes() == fusion._lasso_at(*fusion._lasso_path(g, corr), [l1])[0].tobytes()
    want = beta0.copy()
    sweeps = _reference_cd_sweeps(gram, corr, l1, l2, want, CD_MAX_SWEEPS, CD_TOL)
    assert sweeps > 0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * max(1.0, np.max(np.abs(want), initial=0.0)))
    return got


@pytest.mark.parametrize("m", [1, 4, 16])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_bit_identical_to_reference(m, alpha, warm):
    for seed in range(4):
        gram, corr = _problem(seed, m)
        lam_max = float(np.max(np.abs(corr)))
        beta0 = _mixed_sign_start(seed, m) if warm else np.zeros(m)
        for frac in (0.0, 0.01, 0.2, 0.9):
            _assert_matches_reference(gram, corr, frac * lam_max, alpha, beta0)


@pytest.mark.parametrize("m", [0, 2, 3, 5, 24])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_bit_identical_at_more_widths(m, alpha, warm):
    # m = 0 is reachable through cv_select on a zero-column table with a user grid
    gram, corr = _problem(m, m)
    lam_max = float(np.max(np.abs(corr), initial=0.0))
    beta0 = _mixed_sign_start(m, m) if warm else np.zeros(m)
    for frac in (0.0, 0.01, 0.2, 0.9):
        got = _assert_matches_reference(gram, corr, frac * lam_max, alpha, beta0)
        assert got.shape == (m,)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_zero_column_without_ridge(warm):
    # an all-zero column with l2 = 0 has a zero Gram diagonal: it stays at 0
    gram, corr = _problem(3, 4, zero_column=True)
    assert gram[0, 0] == 0.0
    beta0 = _mixed_sign_start(3, 4) if warm else np.zeros(4)
    lam = 0.1 * float(np.max(np.abs(corr)))
    assert _assert_matches_reference(gram, corr, lam, 1.0, beta0)[0] == 0.0
