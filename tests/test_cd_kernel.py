"""The coordinate-descent kernel against a numpy-scalar reference, and its failure path."""

import numpy as np
import pytest

from qppfuse import fusion
from qppfuse.fusion import CD_TOL, ConvergenceError, ScoreTable, enet_fit


def _reference_cd_sweeps(gram, corr, l1, l2, beta, max_sweeps, tol) -> int:
    """Cyclic soft-threshold sweeps in place; -1 when the budget runs out."""
    m = corr.size
    q = np.zeros(m)
    for j in range(m):
        if beta[j] != 0.0:
            for k in range(m):
                q[k] += gram[k, j] * beta[j]
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for j in range(m):
            g_jj = gram[j, j]
            denom = g_jj + l2
            if denom <= 0.0:
                new = 0.0
            else:
                z = corr[j] - q[j] + g_jj * beta[j]
                if z > l1:
                    new = (z - l1) / denom
                elif z < -l1:
                    new = (z + l1) / denom
                else:
                    new = 0.0
            delta = new - beta[j]
            if delta != 0.0:
                for k in range(m):
                    q[k] += gram[k, j] * delta
                beta[j] = new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        if max_delta < tol:
            return sweep + 1
    return -1


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


def _assert_matches_reference(gram, corr, l1, l2, beta0, max_sweeps=fusion.CD_MAX_SWEEPS):
    got, want = beta0.copy(), beta0.copy()
    got_sweeps = fusion._cd_sweeps(gram, corr, l1, l2, got, max_sweeps, CD_TOL)
    want_sweeps = _reference_cd_sweeps(gram, corr, l1, l2, want, max_sweeps, CD_TOL)
    assert got_sweeps == want_sweeps
    assert got.tobytes() == want.tobytes()
    return got_sweeps


@pytest.mark.parametrize("m", [1, 4, 16])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_bit_identical_to_reference(m, alpha, warm):
    for seed in range(4):
        gram, corr = _problem(seed, m)
        lam_max = float(np.max(np.abs(corr)))
        beta0 = _mixed_sign_start(seed, m) if warm else np.zeros(m)
        for frac in (0.0, 0.01, 0.2, 0.9):
            lam = frac * lam_max
            sweeps = _assert_matches_reference(gram, corr, lam * alpha, lam * (1.0 - alpha), beta0)
            assert sweeps > 0


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_zero_column_without_ridge(warm):
    # an all-zero column with l2 = 0 has a zero diagonal: the kernel pins it at 0
    gram, corr = _problem(3, 4, zero_column=True)
    assert gram[0, 0] == 0.0
    beta0 = _mixed_sign_start(3, 4) if warm else np.zeros(4)
    lam = 0.1 * float(np.max(np.abs(corr)))
    _assert_matches_reference(gram, corr, lam, 0.0, beta0)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_budget_exhausted_matches_partial_state(warm):
    gram, corr = _problem(5, 16)
    beta0 = _mixed_sign_start(5, 16) if warm else np.zeros(16)
    assert _assert_matches_reference(gram, corr, 1e-3, 0.0, beta0, max_sweeps=3) == -1


def _slow_table():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20, 6)) + 2.0 * rng.standard_normal((20, 1))
    y = x @ rng.standard_normal(6) + 0.1 * rng.standard_normal(20)
    return ScoreTable(query_ids=[f"q{i}" for i in range(20)],
                      columns={f"x{j}": x[:, j] for j in range(6)}, target=y)


def test_enet_fit_raises_when_sweep_budget_runs_out(monkeypatch):
    table = _slow_table()
    enet_fit(table, 1e-3, alpha=0.5)
    monkeypatch.setattr(fusion, "CD_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        enet_fit(table, 1e-3, alpha=0.5)


def test_cd_solve_leaves_warm_start_untouched(monkeypatch):
    gram, corr = _problem(7, 6)
    start = _mixed_sign_start(7, 6)
    beta0 = start.copy()
    beta = fusion._cd_solve(gram, corr, 1e-3, 0.5, beta0=beta0)
    assert beta is not beta0
    assert beta.tobytes() != start.tobytes()
    assert beta0.tobytes() == start.tobytes()
    monkeypatch.setattr(fusion, "CD_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        fusion._cd_solve(gram, corr, 1e-3, 0.5, beta0=beta0)
    assert beta0.tobytes() == start.tobytes()
