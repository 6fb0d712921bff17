"""E-Net on the exact LASSO path: KKT, ridge and lasso limits, grouping, and a CD oracle.

For fixed l2 = lam*(1-alpha) the elastic net is the lasso with penalty
lam*alpha on the Gram matrix G + l2*I (Zou & Hastie 2005, Lemma 1), so
``enet_fit`` reads the exact path of that matrix. The plain cyclic
coordinate-descent loop below, run to a tight tolerance, is an independent
oracle for it.
"""

import numpy as np
import pytest

from qppfuse import fusion
from qppfuse.experiment import ExperimentConfig, build_score_table, make_split_plan, split_predictions
from qppfuse.fusion import (
    ScoreTable,
    cv_select,
    enet_fit,
    lambda_grid,
    lambda_max,
    lasso_fit,
    lasso_kkt_residual,
    ridge_fit,
)
from qppfuse.seeding import derive_seed

KKT_TOL = 1e-12
ALPHAS = [0.0, 0.25, 0.5, 0.9]


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


def make_table(x, y):
    return ScoreTable(query_ids=[f"q{i}" for i in range(len(y))],
                      columns={f"x{j}": x[:, j] for j in range(x.shape[1])},
                      target=np.asarray(y, dtype=float))


def toy_half(seed):
    # a 6-query half with four min-max columns, as in the toy experiment
    rng = np.random.default_rng(seed)
    return make_table(rng.uniform(0.0, 1.0, (6, 4)), rng.uniform(0.0, 1.0, 6))


def paper_half(seed):
    # 100 queries and 16 correlated predictors in [0, 1], as at the paper's scale
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((100, 16)) + 0.8 * rng.standard_normal((100, 1))
    y = x @ rng.standard_normal(16) + rng.standard_normal(100)
    x = (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
    return make_table(x, (y - y.min()) / (y.max() - y.min()))


DESIGNS = {
    "toy-6x4": lambda: toy_half(60),
    "toy-resample": lambda: toy_half(61).subset([0, 0, 2, 3, 3, 5]),
    "paper-100x16": lambda: paper_half(62),
}


def _grid(table):
    return lambda_grid(table, num=12).tolist() + [0.0]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("design", list(DESIGNS))
def test_kkt_at_every_grid_lambda(design, alpha):
    table = DESIGNS[design]()
    bound = KKT_TOL * max(1.0, lambda_max(table))
    for lam in _grid(table):
        model = enet_fit(table, lam, alpha)
        assert lasso_kkt_residual(table, model, lam, alpha) <= bound, lam


@pytest.mark.parametrize("design", list(DESIGNS))
def test_alpha_zero_is_ridge(design):
    # lam > 0 only: at lam = 0 a rank-deficient design has many least-squares solutions
    table = DESIGNS[design]()
    for lam in lambda_grid(table, num=12).tolist():
        got = enet_fit(table, lam, 0.0)
        want = ridge_fit(table, lam)
        for name in table.column_names:
            assert got.coefficients[name] == pytest.approx(want.coefficients[name], abs=1e-9)
        assert got.intercept == pytest.approx(want.intercept, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("design", list(DESIGNS))
def test_l1_penalty_at_or_above_lambda_max_gives_zeros(design, alpha):
    table = DESIGNS[design]()
    lam_hi = lambda_max(table) / alpha
    for lam in (lam_hi, 1.5 * lam_hi):
        assert enet_fit(table, lam, alpha).support == set()
    assert enet_fit(table, 0.9 * lam_hi, alpha).support != set()


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
@pytest.mark.parametrize("width", [4, 16])
def test_duplicated_columns_share_their_weight(width, alpha):
    # the grouping effect (Zou & Hastie 2005, Theorem 1): with l2 > 0 two
    # identical columns get equal coefficients, where the lasso picks one
    rng = np.random.default_rng(63 + width)
    x = rng.uniform(0.0, 1.0, (3 * width, width))
    x[:, 1] = x[:, 0]
    y = x[:, 0] - 0.5 * x[:, 2] + 0.1 * rng.standard_normal(3 * width)
    table = make_table(x, y)
    for lam in lambda_grid(table, num=8).tolist():
        model = enet_fit(table, lam, alpha)
        assert model.coefficients["x0"] == pytest.approx(model.coefficients["x1"], abs=1e-9)
    assert enet_fit(table, 0.01 * lambda_max(table), alpha).coefficients["x0"] != 0.0


def _centred_problem(table):
    x = table.matrix()
    xc = x - x.mean(axis=0)
    yc = table.target - table.target.mean()
    return xc.T @ xc, xc.T @ yc


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("design", ["toy-6x4", "paper-100x16"])
def test_matches_coordinate_descent_oracle(design, alpha):
    # at alpha = 0 and a small lam the oracle crawls, so its grid stops at 1e-2
    table = DESIGNS[design]()
    gram, corr = _centred_problem(table)
    lam_hi = lambda_max(table)
    for frac in (0.9, 0.3, 0.1, 0.03, 0.01):
        lam = frac * lam_hi
        want = np.zeros(corr.size)
        sweeps = _reference_cd_sweeps(gram, corr, lam * alpha, lam * (1.0 - alpha), want,
                                      200_000, 1e-14)
        assert sweeps > 0
        got = np.array(list(enet_fit(table, lam, alpha).coefficients.values()))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("design", list(DESIGNS))
def test_alpha_one_reads_the_full_lasso_path(design):
    # the path stopped at lam is a prefix of the full one, so the bits agree
    table = DESIGNS[design]()
    xc, yc, _, _ = fusion._centered(table.matrix(), table.target)
    gram, corr = xc.T @ xc, xc.T @ yc
    full = fusion._lasso_path(gram, corr)
    for lam in _grid(table):
        got = enet_fit(table, lam, 1.0)
        want = fusion._lasso_at(*full, [lam])[0]
        assert np.array(list(got.coefficients.values())).tobytes() == want.tobytes()
        assert got.coefficients == lasso_fit(table, lam).coefficients


def test_stopped_path_is_a_prefix_of_the_full_path():
    table = DESIGNS["paper-100x16"]()
    gram, corr = _centred_problem(table)
    g = gram + 0.05 * np.eye(corr.size)
    lams, betas = fusion._lasso_path(g, corr)
    for stop in (lams[3], 0.5 * (lams[5] + lams[6]), 0.0):
        part_lams, part_betas = fusion._lasso_path(g, corr, stop=stop)
        k = part_lams.size
        assert part_lams[-1] <= stop < (part_lams[-2] if k > 1 else np.inf)
        assert part_lams.tobytes() == lams[:k].tobytes()
        assert part_betas.tobytes() == betas[:k].tobytes()


def test_all_zero_column_stays_at_zero():
    # an all-zero column has a zero Gram diagonal without a ridge part
    rng = np.random.default_rng(64)
    x = rng.uniform(0.0, 1.0, (12, 4))
    x[:, 0] = 0.0
    table = make_table(x, rng.uniform(0.0, 1.0, 12))
    for alpha in (1.0, 0.5, 0.0):
        for lam in _grid(table):
            model = enet_fit(table, lam, alpha)
            assert model.coefficients["x0"] == 0.0
            assert lasso_kkt_residual(table, model, lam, alpha) <= KKT_TOL


def test_toy_bootstrap_shape_that_coordinate_descent_could_not_solve():
    # a 6-row bootstrap resample with duplicated rows, 4 columns and
    # lam = 1e-4 * lambda_max: CD ran out of its sweep budget here
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0.0, 1.0, (6, 4)), rng.uniform(0.0, 1.0, 6)
    rows = rng.integers(0, 6, 6)
    assert len(set(rows.tolist())) < 6
    table = make_table(x[rows], y[rows])
    gram, corr = _centred_problem(table)
    lam = 1e-4 * lambda_max(table)
    assert _reference_cd_sweeps(gram, corr, lam, 0.0, np.zeros(4), 10_000, 1e-7) == -1
    for alpha in (1.0, 0.5):
        model = enet_fit(table, lam, alpha)
        assert lasso_kkt_residual(table, model, lam, alpha) <= KKT_TOL * max(1.0, lambda_max(table))


def test_toy_run_enet_models_solve_their_problems(toy_dir, monkeypatch):
    # every E-Net model that cv_select picks on the 30 toy splits
    config = ExperimentConfig.from_file(toy_dir / "experiment.cfg")
    config.out = ""
    config.combiners = ("E-Net",)
    table, _, _, _ = build_score_table(config)
    plan = make_split_plan(config, table.query_ids)
    chosen = []
    cv_select_orig = fusion.cv_select

    def capturing_cv_select(tbl, method, *args, **kwargs):
        lam, model = cv_select_orig(tbl, method, *args, **kwargs)
        chosen.append((tbl, kwargs["alpha"], lam, model))
        return lam, model

    monkeypatch.setattr(fusion, "cv_select", capturing_cv_select)
    for s, (train_ids, test_ids) in enumerate(plan.pairs):
        split_predictions(table, train_ids, test_ids, config,
                          derive_seed(config.seed, config.protocol, s, "fit"))
    assert len(chosen) == len(plan.pairs) == 30
    for tbl, alpha, lam, model in chosen:
        assert alpha == config.enet_alpha
        assert lasso_kkt_residual(tbl, model, lam, alpha) <= KKT_TOL


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("design", list(DESIGNS))
def test_cv_select_matches_a_fit_per_fold_and_lambda(design, alpha):
    # cv_select scores every grid lam of a fold in one step; the reference
    # refits every (fold, lam) pair and predicts the fold
    table = DESIGNS[design]()
    grid = lambda_grid(table, num=12)
    mse = np.zeros(grid.size)
    for val_idx, train_idx in fusion._make_folds(table.n_rows, 2, 5):
        train, val = table.subset(train_idx), table.subset(val_idx)
        for i, lam in enumerate(grid.tolist()):
            mse[i] += np.mean((fusion.predict(enet_fit(train, lam, alpha), val) - val.target) ** 2)
    best_lam, model = cv_select(table, "enet", lam_grid=grid, k_folds=2, seed=5, alpha=alpha)
    assert best_lam == grid[int(np.argmin(mse))]
    assert model.coefficients == enet_fit(table, best_lam, alpha).coefficients
