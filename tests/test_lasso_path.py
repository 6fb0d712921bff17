"""The exact LASSO path: KKT at every grid lambda, closed-form knots, and every E-Net solve on it."""

import numpy as np
import pytest

from qppfuse import fusion
from qppfuse.seeding import derive_seed
from qppfuse.fusion import (
    ScoreTable,
    bolasso,
    cv_select,
    enet_fit,
    lambda_grid,
    lambda_max,
    lasso_fit,
    lasso_kkt_residual,
    predict,
)

KKT_TOL = 1e-9


def make_table(x, y):
    return ScoreTable(query_ids=[f"q{i}" for i in range(len(y))],
                      columns={f"x{j}": x[:, j] for j in range(x.shape[1])},
                      target=np.asarray(y, dtype=float))


def seeded_table(seed, n, m):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m)) + 0.5 * rng.standard_normal((n, 1))
    y = x @ rng.standard_normal(m) + 0.3 * rng.standard_normal(n)
    return make_table(x, y)


def duplicate_rows():
    table = seeded_table(41, 10, 5)
    return table.subset(np.concatenate([np.arange(10), np.arange(10)]))


def duplicated_column():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((25, 4))
    x = np.column_stack([x, x[:, 1]])
    y = x[:, 1] - 0.5 * x[:, 3] + 0.2 * rng.standard_normal(25)
    return make_table(x, y)


def bootstrap_resample():
    # a 6-query half with four min-max columns, as in the toy experiment
    rng = np.random.default_rng(43)
    half = make_table(rng.uniform(0.0, 1.0, (6, 4)), rng.uniform(0.0, 1.0, 6))
    sample = half.subset([0, 0, 2, 3, 3, 5])
    assert len(set(sample.query_ids)) < sample.n_rows
    return sample


def quantized(seed, n, m):
    # predictors in thirds and a target in halves: many exactly tied correlations
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0.0, 1.0, (n, m)) * 3) / 3
    return make_table(x, np.round(rng.uniform(0.0, 1.0, n) * 2) / 2)


DESIGNS = {
    "m4": lambda: seeded_table(44, 30, 4),
    "m16": lambda: seeded_table(45, 60, 16),
    "more-columns-than-rows": lambda: seeded_table(46, 5, 8),
    "duplicate-rows": duplicate_rows,
    "duplicated-column": duplicated_column,
    "bootstrap-6x4": bootstrap_resample,
    "tied-correlations": lambda: quantized(23, 7, 12),
    "tie-that-never-enters": lambda: quantized(743, 5, 10),
}


@pytest.mark.parametrize("design", list(DESIGNS))
def test_kkt_at_every_grid_lambda(design):
    table = DESIGNS[design]()
    bound = KKT_TOL * max(1.0, lambda_max(table))
    for lam in lambda_grid(table).tolist():
        model = lasso_fit(table, lam)
        assert lasso_kkt_residual(table, model, lam) <= bound, lam


@pytest.mark.parametrize("design", list(DESIGNS))
def test_cv_select_matches_a_fit_per_fold_and_lambda(design):
    # cv_select reads each fold's path at every lam in one step; the
    # reference refits every (fold, lam) pair and predicts the fold
    table = DESIGNS[design]()
    grid = lambda_grid(table, num=20)
    mse = np.zeros(grid.size)
    for val_idx, train_idx in fusion._make_folds(table.n_rows, 2, 3):
        train, val = table.subset(train_idx), table.subset(val_idx)
        for i, lam in enumerate(grid.tolist()):
            mse[i] += np.mean((predict(lasso_fit(train, lam), val) - val.target) ** 2)
    best_lam, model = cv_select(table, "lasso", lam_grid=grid, k_folds=2, seed=3)
    assert best_lam == grid[int(np.argmin(mse))]
    assert model.coefficients == lasso_fit(table, best_lam).coefficients


def test_flat_target_gives_all_zero_model():
    rng = np.random.default_rng(47)
    table = make_table(rng.standard_normal((8, 3)), np.full(8, 0.25))
    assert lambda_max(table) == 0.0
    for lam in (1.0, 1e-3, 0.0):
        model = lasso_fit(table, lam)
        assert model.support == set()
        assert model.intercept == 0.25
    _, model = cv_select(table, "lasso", lam_grid=[1.0, 1e-3], k_folds=2, seed=0)
    assert model.support == set()


def test_knots_match_orthonormal_soft_threshold():
    rng = np.random.default_rng(48)
    base = np.column_stack([np.ones(40), rng.standard_normal((40, 6))])
    x = np.linalg.qr(base)[0][:, 1:]
    corr = x.T @ rng.standard_normal(40)
    lams, betas = fusion._lasso_path(x.T @ x, corr)
    np.testing.assert_allclose(lams, np.append(np.sort(np.abs(corr))[::-1], 0.0), atol=1e-12)
    for lam, beta in zip(lams, betas):
        soft = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
        np.testing.assert_allclose(beta, soft, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_every_enet_fold_solve_and_refit_reads_the_path(monkeypatch, alpha):
    calls, steps = [], []
    path, warm_step = fusion._lasso_path, fusion._enet_warm_step

    def counting_path(*args, **kwargs):
        calls.append(kwargs.get("stop", 0.0))
        return path(*args, **kwargs)

    def counting_warm_step(*args):
        beta = warm_step(*args)
        steps.append(beta is not None)
        return beta

    def no_solve(*args, **kwargs):
        raise AssertionError("a ridge solve ran")

    monkeypatch.setattr(fusion, "_lasso_path", counting_path)
    monkeypatch.setattr(fusion, "_enet_warm_step", counting_warm_step)
    monkeypatch.setattr(fusion, "_ridge_beta", no_solve)
    monkeypatch.setattr(fusion, "ridge_fit", no_solve)
    table = DESIGNS["m16"]()
    grid = lambda_grid(table, num=10)
    k_folds = 5
    best_lam, model = cv_select(table, "enet", lam_grid=grid, k_folds=k_folds, seed=0, alpha=alpha)
    if alpha == 1.0:
        # one path per fold covers the grid
        assert steps == []
        assert len(calls) == k_folds + 1
    else:
        # a warm step at every lam after a fold's first; the first lam and
        # every rejected step read the path, and so does the refit
        assert len(steps) == k_folds * (grid.size - 1)
        assert len(calls) == steps.count(False) + k_folds + 1
        assert steps.count(True) > 0
    assert calls[-1] == best_lam * alpha
    assert model.coefficients == enet_fit(table, best_lam, alpha).coefficients


def test_step_guard_raises_instead_of_looping(monkeypatch):
    monkeypatch.setattr(fusion, "PATH_MAX_STEPS_PER_COLUMN", 0)
    with pytest.raises(fusion.FusionError, match="did not reach lam = 0"):
        lasso_fit(seeded_table(44, 30, 4), 0.0)


def quarter_design_with_constant(seed):
    # n rows of a constant c next to predictors and a target in quarters; the
    # generator also draws n, m and c, so each seed is one fixed small design
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 8)), int(rng.integers(1, 6))
    c = float(rng.choice([0.7, 0.1, 0.4, 0.9, 0.6]))
    x = np.column_stack([np.full(n, c), np.round(rng.uniform(0.0, 1.0, (n, m)) * 4) / 4])
    y = np.round(rng.uniform(0.0, 1.0, n) * 4) / 4
    return make_table(x, y)


def test_constant_target_whose_mean_rounds_is_flat():
    # the mean of six 0.4s is one ulp above 0.4; centring must still give zeros
    y = np.full(6, 0.4)
    assert (y - y.mean()).any()
    rng = np.random.default_rng(49)
    table = make_table(rng.uniform(0.0, 1.0, (6, 4)), y)
    assert lambda_max(table) == 0.0
    with pytest.raises(fusion.FusionError):
        lambda_grid(table)
    for lam in (1e-3, 1e-35, 0.0):
        assert lasso_fit(table, lam).support == set()
    assert enet_fit(table, 1e-3, alpha=0.5).support == set()
    assert all(b == 0.0 for b in fusion.ridge_fit(table, 1e-3).coefficients.values())


def test_flat_bootstrap_of_a_rounding_mean_counts_as_empty_support():
    # target 0.4 on five of six rows: a resample without the sixth row is six
    # 0.4s, flat although its mean rounds off 0.4. x0 equals the target, so
    # every other resample selects it and, at threshold (b - flat)/b, is decided
    # only at its last non-flat one; the flat ones stay in b as empty supports
    rng = np.random.default_rng(50)
    y = np.array([0.4, 0.4, 0.4, 0.4, 0.4, 1.0])
    table = make_table(np.column_stack([y, rng.uniform(0.0, 1.0, (6, 2))]), y)
    b, seed = 10, 4
    flat = 0
    for i in range(b):
        draw = np.random.default_rng(derive_seed(seed, "bootstrap", i))
        flat += lambda_max(table.subset(draw.integers(0, 6, size=6))) == 0.0
    assert flat >= 1
    model = bolasso(table, b=b, threshold=(b - flat) / b, k_folds=2, seed=seed)
    counts = model.hyperparameters["support_counts"]
    assert counts["x0"] == b - flat
    assert "x0" in model.support
    assert bolasso(table, b=b, threshold=1.0, k_folds=2, seed=seed).support == set()


@pytest.mark.parametrize("seed", [27, 47, 74, 97, 117])
def test_constant_column_never_enters(seed):
    # each seed's constant column centres to a ~1e-17 residue that used to
    # enter the LASSO path at lam = 0 (27, 47, 74, 97) or the LARS path (117)
    table = quarter_design_with_constant(seed)
    for lam in list(lambda_grid(table)) + [0.0]:
        assert lasso_fit(table, lam).coefficients["x0"] == 0.0
    assert "x0" not in [knot.column for knot in fusion.lars_path(table)]


def test_lar_is_the_lasso_path_up_to_its_first_drop():
    # Efron et al. 2004, Theorem 1: with the drop rule off the engine is LAR,
    # whose knots are the lasso's until a lasso coefficient first reaches zero
    rng = np.random.default_rng(51)
    drops = 0
    for _ in range(200):
        n, m = int(rng.integers(5, 41)), int(rng.integers(2, 13))
        x = rng.standard_normal((n, m)) + rng.standard_normal((n, 1))
        x -= x.mean(axis=0)
        g, c = x.T @ x, x.T @ (x @ rng.standard_normal(m) + rng.standard_normal(n))
        lams, betas = fusion._lasso_path(g, c)
        lar_lams, lar_betas = fusion._lasso_path(g, c, drop=False)
        supports = [set(np.flatnonzero(b).tolist()) for b in betas]
        shrinks = [k for k in range(1, len(supports)) if not supports[k] >= supports[k - 1]]
        first = shrinks[0] if shrinks else len(lams)
        drops += bool(shrinks)
        assert lar_lams[:first].tobytes() == lams[:first].tobytes()
        assert lar_betas[:first].tobytes() == betas[:first].tobytes()
        if not shrinks:
            assert lar_lams.size == lams.size
        lar_supports = [set(np.flatnonzero(b).tolist()) for b in lar_betas]
        assert all(b >= a for a, b in zip(lar_supports, lar_supports[1:]))
    assert drops > 0
