import copy
import logging
import math
import pickle

import numpy as np
import pytest

from qppfuse import fusion
from qppfuse.fusion import (
    FusionError,
    RegressionModel,
    ScoreTable,
    bolasso,
    cv_select,
    enet_fit,
    lambda_grid,
    lambda_max,
    lars_cv,
    lars_path,
    lars_traps,
    lasso_fit,
    lasso_kkt_residual,
    minmax_apply,
    minmax_fit,
    ols_fit,
    predict,
    read_model,
    ridge_fit,
    write_model,
)
from qppfuse.seeding import derive_seed
from tests.brute_force_reference import bolasso_full_b


def make_table(x, y, names=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != len(y):
        x = x.T
    names = names or [f"x{j}" for j in range(x.shape[1])]
    return ScoreTable(
        query_ids=[f"q{i}" for i in range(len(y))],
        columns={n: x[:, j] for j, n in enumerate(names)},
        target=np.asarray(y, dtype=float),
    )


def random_table(rng, n=30, m=5, noise=0.1):
    x = rng.standard_normal((n, m))
    beta = rng.standard_normal(m)
    y = x @ beta + noise * rng.standard_normal(n)
    return make_table(x, y)


def orthonormal_table(rng, n=40, m=5):
    """Columns orthonormal and exactly mean-zero (orthogonal to the intercept)."""
    base = np.column_stack([np.ones(n), rng.standard_normal((n, m))])
    q, _ = np.linalg.qr(base)
    x = q[:, 1:]
    y = rng.standard_normal(n)
    return make_table(x, y)


def coefs(model, table):
    return np.array([model.coefficients[n] for n in table.column_names])


def ols_normal_equations(table):
    """Independent oracle: solve [1 X]' [1 X] b = [1 X]' y directly."""
    a = np.column_stack([np.ones(table.n_rows), table.matrix()])
    ata = a.T @ a
    beta = np.linalg.solve(ata, a.T @ table.target)
    return beta[0], beta[1:]


class TestMinMax:
    def test_train_mapped_to_unit_interval(self):
        train = make_table([[1.0], [3.0], [5.0]], [0, 0, 0])
        params, constant = minmax_fit(train)
        scaled = minmax_apply(train, params)
        assert list(scaled.columns["x0"]) == [0.0, 0.5, 1.0]
        assert constant == []

    def test_test_values_clamped(self):
        train = make_table([[1.0], [5.0]], [0, 0])
        test = make_table([[7.0], [-1.0]], [0, 0])
        params, _ = minmax_fit(train)
        assert list(minmax_apply(test, params).columns["x0"]) == [1.0, 0.0]

    def test_constant_column_zeroed_and_flagged(self):
        train = make_table([[2.0], [2.0]], [0, 1])
        params, constant = minmax_fit(train)
        assert constant == ["x0"]
        assert list(minmax_apply(train, params).columns["x0"]) == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_column_loop(self, seed):
        """Bit for bit the per-column reference, constant column and out-of-range rows included."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 5)) * rng.uniform(0.1, 50.0, 5)
        x[:, 2] = x[0, 2]
        table = make_table(x, rng.uniform(0.0, 1.0, 12))
        params, _ = minmax_fit(table.subset(np.arange(6)))
        scaled = minmax_apply(table, params)
        for name, v in table.columns.items():
            lo, hi = params[name]
            expected = np.zeros_like(v) if hi == lo else np.clip((v - lo) / (hi - lo), 0.0, 1.0)
            assert scaled.columns[name].tobytes() == expected.tobytes()
        assert scaled.matrix().tobytes() == np.column_stack(list(scaled.columns.values())).tobytes()

    def test_overflowing_span_rejected(self):
        train = make_table([[-1e308], [1e308]], [0, 1])
        params, _ = minmax_fit(train)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FusionError, match="overflowed"):
            minmax_apply(train, params)


class TestOls:
    def test_exact_line(self):
        table = make_table([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
        model = ols_fit(table)
        assert model.intercept == pytest.approx(1.0, abs=1e-10)
        assert model.coefficients["x0"] == pytest.approx(2.0, abs=1e-10)

    def test_constant_target(self):
        table = make_table([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0])
        model = ols_fit(table)
        assert model.coefficients["x0"] == pytest.approx(0.0, abs=1e-10)
        assert model.intercept == pytest.approx(4.0, abs=1e-10)

    def test_correlated_columns_match_normal_equations(self):
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(5)
        x2 = 0.9 * x1 + 0.1 * rng.standard_normal(5)
        y = rng.standard_normal(5)
        table = make_table(np.column_stack([x1, x2]), y)
        model = ols_fit(table)
        intercept, beta = ols_normal_equations(table)
        assert model.intercept == pytest.approx(intercept, abs=1e-8)
        np.testing.assert_allclose(coefs(model, table), beta, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        table = random_table(rng)
        model = ols_fit(table)
        residual = table.target - predict(model, table)
        scale = float(np.abs(table.target).max())
        assert abs(residual.sum()) <= 1e-8 * scale
        for name in table.column_names:
            assert abs(table.columns[name] @ residual) <= 1e-8 * scale * table.n_rows

    def test_too_few_rows(self):
        table = make_table(np.eye(3), [1.0, 2.0, 3.0])
        with pytest.raises(FusionError, match="rows"):
            ols_fit(table)

    def test_rank_deficient_warns(self, caplog):
        x = np.arange(6.0)
        table = make_table(np.column_stack([x, 2 * x]), np.arange(6.0))
        with caplog.at_level(logging.WARNING):
            ols_fit(table)
        assert any("rank" in r.message for r in caplog.records)


class TestRidge:
    def test_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            table = random_table(rng)
            a = ols_fit(table)
            b = ridge_fit(table, 0.0)
            np.testing.assert_allclose(coefs(a, table), coefs(b, table), atol=1e-8)
            assert a.intercept == pytest.approx(b.intercept, abs=1e-8)

    def test_huge_lambda_collapses_to_mean(self):
        rng = np.random.default_rng(3)
        table = random_table(rng)
        model = ridge_fit(table, 1e9)
        assert np.all(np.abs(coefs(model, table)) < 1e-5)
        assert model.intercept == pytest.approx(float(table.target.mean()), abs=1e-4)

    def test_one_column_closed_form(self):
        # centered single column: beta = sum(xy) / (sum(x^2) + lam)
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 2.5, 3.5, 5.0])
        table = make_table(x, y)
        model = ridge_fit(table, 1.0)
        yc = y - y.mean()
        expected = float(x @ yc) / (float(x @ x) + 1.0)
        assert model.coefficients["x0"] == pytest.approx(expected, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(FusionError):
            ridge_fit(make_table([[1.0], [2.0]], [0.0, 1.0]), -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # without the check, nan and inf give NaN coefficients
        with pytest.raises(FusionError, match="finite"):
            ridge_fit(make_table([[1.0], [2.0], [4.0]], [0.0, 1.0, 0.5]), lam)


class TestLasso:
    def test_lambda_max_kills_everything(self):
        rng = np.random.default_rng(4)
        table = random_table(rng)
        model = lasso_fit(table, lambda_max(table))
        assert model.support == set()
        assert model.intercept == pytest.approx(float(table.target.mean()), abs=1e-9)

    def test_orthonormal_soft_threshold(self):
        rng = np.random.default_rng(5)
        table = orthonormal_table(rng)
        x = table.matrix()
        yc = table.target - table.target.mean()
        beta_ols = x.T @ yc
        lam = 0.5 * float(np.abs(beta_ols).mean())
        model = lasso_fit(table, lam)
        expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam, 0.0)
        np.testing.assert_allclose(coefs(model, table), expected, atol=1e-6)

    def test_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(6)
        table = random_table(rng)
        a = lasso_fit(table, 0.0)
        b = ols_fit(table)
        np.testing.assert_allclose(coefs(a, table), coefs(b, table), atol=1e-6)

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            table = random_table(rng)
            lam = float(rng.uniform(0.05, 0.8)) * lambda_max(table)
            model = lasso_fit(table, lam)
            assert lasso_kkt_residual(table, model, lam) <= 1e-5

    def test_nan_lambda_rejected(self):
        # nan < 0 is False: a sign check alone lets nan through to an all-zero model
        rng = np.random.default_rng(4)
        with pytest.raises(FusionError, match="finite"):
            lasso_fit(random_table(rng), math.nan)


class TestElasticNet:
    def test_alpha_one_equals_lasso(self):
        rng = np.random.default_rng(8)
        table = random_table(rng, n=5, m=3)
        lam = 0.3 * lambda_max(table)
        a = enet_fit(table, lam, alpha=1.0)
        b = lasso_fit(table, lam)
        np.testing.assert_allclose(coefs(a, table), coefs(b, table), atol=1e-6)

    def test_alpha_zero_equals_ridge(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, n=5, m=3)
        lam = 0.7
        a = enet_fit(table, lam, alpha=0.0)
        b = ridge_fit(table, lam)
        np.testing.assert_allclose(coefs(a, table), coefs(b, table), atol=1e-6)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-6)

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(10)
        table = orthonormal_table(rng)
        x = table.matrix()
        yc = table.target - table.target.mean()
        beta_ols = x.T @ yc
        lam = 0.4 * float(np.abs(beta_ols).mean())
        model = enet_fit(table, lam, alpha=0.5)
        soft = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam / 2, 0.0)
        np.testing.assert_allclose(coefs(model, table), soft / (1 + lam / 2), atol=1e-6)

    def test_bad_alpha_rejected(self):
        with pytest.raises(FusionError):
            enet_fit(make_table([[1.0], [2.0]], [0.0, 1.0]), 1.0, alpha=1.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_bad_lambda_rejected(self, lam):
        rng = np.random.default_rng(8)
        with pytest.raises(FusionError, match="finite"):
            enet_fit(random_table(rng, n=5, m=3), lam, alpha=0.5)


class TestLarsPath:
    def test_single_column_one_knot_equals_ols(self):
        table = make_table([[0.0], [1.0], [2.0], [4.0]], [1.0, 2.0, 2.0, 5.0])
        path = lars_path(table)
        assert len(path) == 1
        ols = ols_fit(table)
        assert path[0].coefficients["x0"] == pytest.approx(ols.coefficients["x0"], abs=1e-10)
        assert path[0].intercept == pytest.approx(ols.intercept, abs=1e-10)

    def test_orthonormal_entry_order(self):
        rng = np.random.default_rng(11)
        table = orthonormal_table(rng, m=4)
        x = table.matrix()
        yc = table.target - table.target.mean()
        ranking = np.argsort(-np.abs(x.T @ yc))
        path = lars_path(table)
        expected = [table.column_names[j] for j in ranking]
        assert [knot.column for knot in path] == expected

    def test_final_knot_equals_ols(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            table = random_table(rng)
            path = lars_path(table)
            ols = ols_fit(table)
            np.testing.assert_allclose(
                [path[-1].coefficients[n] for n in table.column_names],
                coefs(ols, table), atol=1e-6)
            assert path[-1].intercept == pytest.approx(ols.intercept, abs=1e-6)

    def test_equal_correlation_at_every_knot(self):
        rng = np.random.default_rng(13)
        table = random_table(rng)
        x = table.matrix()
        xc = x - x.mean(axis=0)
        norms = np.sqrt((xc**2).sum(axis=0))
        xs = xc / norms
        active = []
        for knot in lars_path(table):
            active.append(table.column_names.index(knot.column))
            beta = np.array([knot.coefficients[n] for n in table.column_names])
            residual = table.target - knot.intercept - x @ beta
            corr = np.abs(xs.T @ residual)
            if len(active) < len(table.column_names):
                spread = corr[active].max() - corr[active].min()
                assert spread <= 1e-6

    def test_near_collinear_design_stays_exact(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            n, m = 40, 6
            base = rng.standard_normal((n, 3))
            mix = base @ rng.standard_normal((3, m)) + 0.01 * rng.standard_normal((n, m))
            y = mix @ rng.standard_normal(m) + 0.1 * rng.standard_normal(n)
            table = make_table(mix, y)
            path = lars_path(table)
            assert len(path) == m
            ols = ols_fit(table)
            np.testing.assert_allclose(
                [path[-1].coefficients[nm] for nm in table.column_names],
                coefs(ols, table), atol=1e-6)

    def test_y_orthogonal_gives_empty_path(self):
        rng = np.random.default_rng(14)
        table = orthonormal_table(rng, m=3)
        # make y exactly orthogonal to the columns (and centered)
        x = table.matrix()
        y = table.target - table.target.mean()
        y -= x @ (x.T @ y)
        assert np.allclose(x.T @ y, 0.0, atol=1e-12)
        table2 = make_table(x, y)
        assert lars_path(table2) == []

    def test_collinear_column_excluded_with_warning(self, caplog):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(20)
        table = make_table(np.column_stack([x, x]), x + 0.1 * rng.standard_normal(20),
                           names=["a", "b"])
        with caplog.at_level(logging.WARNING):
            path = lars_path(table)
        assert [k.column for k in path] == ["a"]  # ties break by column order
        assert any("collinear" in r.message for r in caplog.records)

    def test_exhausted_centred_design_is_info_not_warning(self, caplog):
        # 3 rows centre to 2 dimensions, which the first two active columns span
        rng = np.random.default_rng(16)
        table = make_table(rng.standard_normal((3, 4)), rng.standard_normal(3))
        with caplog.at_level(logging.INFO, logger="qppfuse.fusion"):
            path = lars_path(table)
        assert len(path) == 2
        assert [r.levelno for r in caplog.records] == [logging.INFO]
        assert "exhausted by 2 columns" in caplog.records[0].message

    def test_collinear_below_full_rank_still_warns(self, caplog):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(20)
        table = make_table(np.column_stack([x, x]), x + 0.1 * rng.standard_normal(20),
                           names=["a", "b"])
        with caplog.at_level(logging.INFO, logger="qppfuse.fusion"):
            lars_path(table)
        assert [(r.levelno, r.message) for r in caplog.records] == [
            (logging.WARNING, "collinear columns never entered (ties break by column order): b")]


    @staticmethod
    def duplicate_design(seed):
        # x1 is an exact copy of x0, as AvgIDF and MaxIDF are on one-term queries
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 4))
        x[:, 1] = x[:, 0]
        return rng, x

    def test_duplicate_column_never_enters(self):
        for seed in range(400):
            rng, x = self.duplicate_design(seed)
            y = x @ rng.standard_normal(4) + 0.3 * rng.standard_normal(20)
            assert "x1" not in [k.column for k in lars_path(make_table(x, y))], seed

    def test_duplicate_column_noiseless_final_knot_equals_ols(self):
        for seed in range(400):
            _, x = self.duplicate_design(seed)
            table = make_table(x, 0.7 * x[:, 0] - 0.4 * x[:, 2])
            last = lars_path(table)[-1]
            fitted = predict(RegressionModel("LARS", last.intercept, last.coefficients), table)
            np.testing.assert_allclose(fitted, predict(ols_fit(table), table), rtol=0,
                                       atol=1e-9, err_msg=f"seed {seed}")


    def test_knot_rows_follow_the_engine_rows(self, monkeypatch):
        """A row with no new column moves the last knot; columns new in one row share it."""
        rows = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1.5, 0, 0, 0], [2, 1, 3, 0]], dtype=float)
        monkeypatch.setattr(fusion, "_lasso_path", lambda *args, **kwargs: (np.zeros(4), rows))
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((10, 4)), rng.standard_normal(10)
        entered, betas, *_ = fusion._lars(x, y)
        xc = x - x.mean(axis=0)
        assert entered == [0, 1, 2]
        np.testing.assert_allclose(betas, rows[[0, 2, 3, 3, 3]] / np.sqrt((xc**2).sum(axis=0)),
                                   rtol=1e-12)


class TestLarsTraps:
    def test_noiseless_signal_selected_before_traps(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((50, 3))
        y = 2.0 * x[:, 0] + 1.0
        table = make_table(x, y)
        model = lars_traps(table, n_traps=3, seed=99)
        assert "x0" in model.support
        assert not model.hyperparameters["trap_entered_first"]
        assert model.coefficients["x0"] == pytest.approx(2.0, abs=1e-6)

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(17)
        table = random_table(rng, n=40, m=4)
        a = lars_traps(table, n_traps=4, seed=5)
        b = lars_traps(table, n_traps=4, seed=5)
        assert a == b

    def test_selection_bounded_by_column_count(self):
        rng = np.random.default_rng(18)
        for seed in range(5):
            table = random_table(rng, n=30, m=4, noise=5.0)
            model = lars_traps(table, n_traps=4, seed=seed)
            assert len(model.support) <= 4

    def test_pure_noise_can_go_intercept_only(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)  # independent of every column
        table = make_table(x, y)
        flagged = [
            lars_traps(table, n_traps=6, seed=s).hyperparameters["trap_entered_first"]
            for s in range(10)
        ]
        assert any(flagged)  # with 6 traps, at least one run loses the race

    @pytest.mark.parametrize("name", ["__trap_0", "__trap_x"])
    def test_probe_like_column_name_is_an_ordinary_column(self, name):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((50, 3))
        y = 2.0 * x[:, 0] + 1.0
        plain = lars_traps(make_table(x, y), n_traps=3, seed=99)
        model = lars_traps(make_table(x, y, names=[name, "x1", "x2"]), n_traps=3, seed=99)
        assert model.coefficients[name] == pytest.approx(2.0, abs=1e-6)
        assert (model.intercept, list(model.coefficients.values()), model.hyperparameters) == (
            plain.intercept, list(plain.coefficients.values()), plain.hyperparameters)


class TestCvSelect:
    def test_grid_of_one(self):
        rng = np.random.default_rng(20)
        table = random_table(rng, n=20, m=3)
        best_lam, _ = cv_select(table, "lasso", lam_grid=[0.25], k_folds=2, seed=0)
        assert best_lam == 0.25

    def test_noiseless_prefers_smallest_lambda(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((24, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 3.0
        table = make_table(x, y)
        grid = [1e-6, 0.1, 1.0]
        best_lam, model = cv_select(table, "lasso", lam_grid=grid, k_folds=3, seed=1)
        assert best_lam == 1e-6

    def test_tie_takes_larger_lambda(self):
        rng = np.random.default_rng(22)
        table = random_table(rng, n=12, m=2)
        lam_hi = 2 * lambda_max(table)  # both grid points kill every coefficient
        best_lam, _ = cv_select(table, "lasso", lam_grid=[lam_hi, 4 * lam_hi],
                                k_folds=2, seed=0)
        assert best_lam == 4 * lam_hi

    def test_small_fold_rejected(self):
        rng = np.random.default_rng(23)
        table = random_table(rng, n=6, m=2)
        with pytest.raises(FusionError, match="fold"):
            cv_select(table, "lasso", lam_grid=[0.1], k_folds=5, seed=0)

    def test_nan_in_grid_rejected(self):
        # unchecked, a nan grid point is selected and refits to an all-zero model
        rng = np.random.default_rng(20)
        table = random_table(rng, n=20, m=3)
        with pytest.raises(FusionError, match="finite"):
            cv_select(table, "lasso", lam_grid=[math.nan, 0.1], k_folds=2, seed=0)

    @pytest.mark.parametrize("method", ["lasso", "ridge", "enet"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_grid_rejected_before_any_fold(self, monkeypatch, method, bad):
        # checked up front: unchecked, lasso runs every fold with l1 = -1
        def no_folds(*args, **kwargs):
            raise AssertionError("folds were made")
        monkeypatch.setattr(fusion, "_make_folds", no_folds)
        rng = np.random.default_rng(20)
        table = random_table(rng, n=20, m=3)
        with pytest.raises(FusionError, match="finite"):
            cv_select(table, method, lam_grid=[0.1, bad], k_folds=2, seed=0)

    @pytest.mark.parametrize("method", ["lasso", "ridge", "enet"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_grid_rejected_before_any_path(self, monkeypatch, method, bad):
        # no solver runs on a bad grid, whichever method reads it
        def no_fit(*args, **kwargs):
            raise AssertionError("a fold was fitted")
        monkeypatch.setattr(fusion, "_lasso_path", no_fit)
        monkeypatch.setattr(fusion, "_ridge_beta", no_fit)
        monkeypatch.setattr(fusion, "ridge_fit", no_fit)
        rng = np.random.default_rng(20)
        table = random_table(rng, n=20, m=3)
        with pytest.raises(FusionError, match="finite"):
            cv_select(table, method, lam_grid=[0.1, bad], k_folds=2, seed=0)

    @pytest.mark.parametrize("grid", [0.1, [[0.1, 0.2]]], ids=["scalar", "2-d"])
    def test_grid_not_1d_rejected_before_any_fold(self, monkeypatch, grid):
        # unchecked, a scalar grid raised TypeError and a 2-d grid compared lists
        def no_folds(*args, **kwargs):
            raise AssertionError("folds were made")
        monkeypatch.setattr(fusion, "_make_folds", no_folds)
        rng = np.random.default_rng(20)
        table = random_table(rng, n=20, m=3)
        with pytest.raises(FusionError, match="1-d sequence"):
            cv_select(table, "lasso", lam_grid=grid, k_folds=2, seed=0)

    def test_lambda_grid_shape(self):
        rng = np.random.default_rng(24)
        table = random_table(rng)
        grid = lambda_grid(table, num=50)
        assert grid.size == 50
        assert grid[0] == pytest.approx(lambda_max(table))
        assert grid[-1] == pytest.approx(1e-4 * lambda_max(table))

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.0, 5.0, math.nan])
    def test_lambda_grid_ratio_outside_unit_interval_rejected(self, ratio):
        # unchecked, ratio 5 gave an ascending grid at or above lambda_max
        rng = np.random.default_rng(24)
        with pytest.raises(FusionError, match=r"ratio must be in \(0, 1\)"):
            lambda_grid(random_table(rng), num=10, ratio=ratio)


class TestBolasso:
    def test_identical_supports_kept(self):
        # one overwhelming signal column: every bootstrap selects exactly it
        rng = np.random.default_rng(25)
        x = np.column_stack([rng.standard_normal(60), 0.01 * rng.standard_normal(60)])
        y = 5.0 * x[:, 0]
        table = make_table(x, y)
        model = bolasso(table, b=10, threshold=1.0, k_folds=3, seed=0)
        assert model.support == {"x0"}
        assert model.method == "BOLASSO"

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(26)
        table = random_table(rng, n=40, m=4, noise=1.0)
        hard = bolasso(table, b=12, threshold=1.0, k_folds=2, seed=3)
        soft = bolasso(table, b=12, threshold=0.9, k_folds=2, seed=3)
        assert hard.support <= soft.support

    def test_kept_within_union_of_supports(self):
        rng = np.random.default_rng(27)
        table = random_table(rng, n=40, m=4, noise=1.0)
        model = bolasso(table, b=8, threshold=0.5, k_folds=2, seed=7)
        counts = model.hyperparameters["support_counts"]
        union = {name for name, c in counts.items() if c > 0}
        assert model.support <= union

    def test_deterministic(self):
        rng = np.random.default_rng(28)
        table = random_table(rng, n=30, m=3)
        assert bolasso(table, b=6, k_folds=2, seed=11) == bolasso(table, b=6, k_folds=2, seed=11)

    def test_flat_resamples_count_as_empty_supports(self):
        # target zero on five of six rows: a resample missing the sixth row is
        # flat. x0 equals the target, so every other resample selects it. At
        # threshold (b - flat)/b, x0 is decided only at its last non-flat
        # resample, so its count is exact; a flat resample still counts in b,
        # so the hard intersection keeps nothing
        rng = np.random.default_rng(31)
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        table = make_table(np.column_stack([y, rng.uniform(0.0, 1.0, (6, 2))]), y)
        b, seed = 10, 4
        flat = 0
        for i in range(b):
            draw = np.random.default_rng(derive_seed(seed, "bootstrap", i))
            flat += lambda_max(table.subset(draw.integers(0, 6, size=6))) == 0.0
        assert flat >= 1
        model = bolasso(table, b=b, threshold=(b - flat) / b, k_folds=2, seed=seed)
        counts = model.hyperparameters["support_counts"]
        assert all(c <= b - flat for c in counts.values())
        assert counts["x0"] == b - flat
        assert "x0" in model.support
        assert bolasso(table, b=b, threshold=1.0, k_folds=2, seed=seed).support == set()

    def test_flat_resamples_count_as_empty_supports_with_a_grid(self, monkeypatch):
        # with a grid given, a flat resample is still not cross-validated
        # (the grid is the full table's, not the resample's): its support is
        # empty and it stays in b. At threshold (b - flat)/b every non-flat
        # resample runs, since x0 needs each of them
        rng = np.random.default_rng(31)
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        table = make_table(np.column_stack([y, rng.uniform(0.0, 1.0, (6, 2))]), y)
        b, seed = 10, 4
        flat = 0
        for i in range(b):
            draw = np.random.default_rng(derive_seed(seed, "bootstrap", i))
            flat += lambda_max(table.subset(draw.integers(0, 6, size=6))) == 0.0
        assert flat >= 1
        supports = []
        select = fusion.cv_select

        def recording_cv_select(*args, **kwargs):
            result = select(*args, **kwargs)
            supports.append(result[1].support)
            return result

        monkeypatch.setattr(fusion, "cv_select", recording_cv_select)
        grid = lambda_grid(table, num=10)
        model = bolasso(table, b=b, threshold=(b - flat) / b, k_folds=2, lam_grid=grid, seed=seed)
        assert len(supports) == b - flat
        counts = model.hyperparameters["support_counts"]
        assert counts["x0"] == b - flat
        assert "x0" in model.support
        assert bolasso(table, b=b, threshold=1.0, k_folds=2, lam_grid=grid, seed=seed).support == set()

    @pytest.mark.parametrize("with_grid", [False, True])
    @pytest.mark.parametrize("threshold", [0.5, 0.8, 0.9, 1.0])
    def test_early_stop_matches_full_b(self, threshold, with_grid):
        # b = 15: threshold*b is an integer at 0.8 and 1.0, a half at 0.5 and 0.9
        b, stopped, refits = 15, 0, 0
        for seed in range(6):
            rng = np.random.default_rng(310 + seed)
            x = rng.standard_normal((24, 4))
            y = 1.5 * x[:, 0] - x[:, 1] + (0.5 + seed / 2) * rng.standard_normal(24)
            table = make_table(x, y)
            grid = lambda_grid(table, num=8) if with_grid else None
            model = bolasso(table, b=b, threshold=threshold, k_folds=2, lam_grid=grid, seed=seed)
            full = bolasso_full_b(table, b=b, threshold=threshold, k_folds=2, lam_grid=grid,
                                  seed=seed)
            assert model.support == full.support
            assert model.intercept == full.intercept
            assert model.coefficients == full.coefficients
            counts = model.hyperparameters["support_counts"]
            assert all(c <= full.hyperparameters["support_counts"][n] for n, c in counts.items())
            assert all(c <= model.hyperparameters["resamples"] for c in counts.values())
            stopped += model.hyperparameters["resamples"] < b
            refits += bool(model.support)
        assert stopped >= 1
        assert refits >= 1

    def test_needs_two_bootstraps(self):
        rng = np.random.default_rng(29)
        with pytest.raises(FusionError):
            bolasso(random_table(rng), b=1)


class TestLarsCv:
    def test_recovers_sparse_signal(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((60, 4))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 0.05 * rng.standard_normal(60)
        table = make_table(x, y)
        model = lars_cv(table, k_folds=3, seed=0)
        assert {"x0", "x1"} <= model.support
        assert model.hyperparameters["n_steps"] >= 2


def reference_cv_lam(table, method, grid, k_folds, seed, alpha=0.5):
    """lam chosen by fold tables, one refit and predict per candidate, first minimum."""
    grid = sorted(grid, reverse=True)
    mse = [0.0] * len(grid)
    for val_idx, train_idx in fusion._make_folds(table.n_rows, k_folds, seed):
        train, val = table.subset(train_idx), table.subset(val_idx)
        for i, lam in enumerate(grid):
            y_hat = predict(fusion.fit_penalized(train, method, lam, alpha), val)
            mse[i] += float(np.mean((y_hat - val.target) ** 2))
    return grid[mse.index(min(mse))]


def reference_lars_steps(table, k_folds, seed):
    """Prefix length chosen the same way; length 0 predicts the train mean."""
    m = len(table.columns)
    mse = [0.0] * (m + 1)
    for val_idx, train_idx in fusion._make_folds(table.n_rows, k_folds, seed):
        train, val = table.subset(train_idx), table.subset(val_idx)
        path = lars_path(train)
        for length in range(m + 1):
            if length == 0 or not path:
                y_hat = np.full(val.n_rows, train.target.mean())
            else:
                knot = path[min(length, len(path)) - 1]
                y_hat = predict(RegressionModel("LARS", knot.intercept, knot.coefficients), val)
            mse[length] += float(np.mean((y_hat - val.target) ** 2))
    return min(mse.index(min(mse)), len(lars_path(table)))


class TestCvMatchesPerCandidateReference:
    """cv_select and lars_cv score every candidate of a fold in one matrix
    expression; they must choose what a per-candidate loop chooses."""

    @staticmethod
    def design(seed):
        rng = np.random.default_rng(derive_seed(seed, "cv-reference"))
        n, m, k_folds = int(rng.integers(20, 61)), int(rng.integers(2, 9)), int(rng.integers(2, 6))
        x = rng.standard_normal((n, m))
        beta, noise = rng.standard_normal(m), rng.standard_normal(n)
        if seed == 1:
            x[:, 1] = x[:, 0]
        if seed == 2:
            x[:, -1] = 0.4
        if seed % 4 == 3:
            # nonzero only where the first fold validates: flat in its train
            # rows, so its path stops a knot short of the other folds' paths
            _, train_idx = fusion._make_folds(n, k_folds, seed)[0]
            x[train_idx, -1] = 0.0
            noise *= 0.1
        return make_table(x, x @ beta + noise), k_folds

    @pytest.mark.parametrize("seed", range(40))
    def test_cv_select_lambda_matches(self, seed):
        table, k_folds = self.design(seed)
        grid = lambda_grid(table, num=20)
        for method in ("ridge", "lasso", "enet"):
            best_lam, _ = cv_select(table, method, lam_grid=grid, k_folds=k_folds, seed=seed)
            assert best_lam == reference_cv_lam(table, method, grid, k_folds, seed), method

    @pytest.mark.parametrize("seed", range(40))
    def test_lars_cv_steps_match(self, seed):
        table, k_folds = self.design(seed)
        model = lars_cv(table, k_folds=k_folds, seed=seed)
        steps = model.hyperparameters["n_steps"]
        assert steps == reference_lars_steps(table, k_folds, seed)
        if steps:
            knot = lars_path(table)[steps - 1]
            expected = (knot.intercept, knot.coefficients)
        else:
            expected = (float(table.target.mean()), dict.fromkeys(table.column_names, 0.0))
        assert (model.intercept, model.coefficients) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_lars_traps_matches_probe_table_reference(self, seed):
        """The probe-augmented table's lars_path, cut at the first probe, then OLS."""
        table, _ = self.design(seed)
        m = len(table.columns)
        traps = np.random.default_rng(seed).standard_normal((table.n_rows, m))
        columns = dict(table.columns)
        columns.update({f"probe{i}": traps[:, i] for i in range(m)})
        augmented = ScoreTable(list(table.query_ids), columns, table.target)
        selected = []
        for knot in lars_path(augmented):
            if knot.column.startswith("probe"):
                break
            selected.append(knot.column)
        hyper = {"n_traps": m, "seed": seed, "trap_entered_first": not selected}
        expected = fusion._ols_on(table, selected, "LARS-Traps", **hyper)
        assert lars_traps(table, seed=seed) == expected

    @staticmethod
    def lars_path_refit(table, k_folds, seed):
        """LARS-CV's refit read off lars_path's knots, as it was before it read _lars's rows."""
        path = lars_path(table)
        steps = min(reference_lars_steps(table, k_folds, seed), len(path))
        knot = (path[steps - 1] if steps else fusion.LarsKnot(
            "", dict.fromkeys(table.column_names, 0.0), float(table.target.mean())))
        hyper = {"n_steps": steps, "k_folds": k_folds, "seed": seed}
        return RegressionModel("LARS-CV", knot.intercept, dict(knot.coefficients), hyper)

    @pytest.mark.parametrize("seed", range(60))
    def test_lars_cv_refit_matches_lars_path_refit(self, seed, caplog):
        """Bit for bit on plain, duplicated-column, constant-column and n - 1-exhausted designs,
        and the refit logs nothing where lars_path warns."""
        rng = np.random.default_rng(derive_seed(seed, "lars-cv-refit"))
        n, m = (int(rng.integers(6, 9)), int(rng.integers(6, 10))) if seed % 4 == 3 else (30, 5)
        x = rng.standard_normal((n, m))
        y = x @ rng.standard_normal(m) + 0.3 * rng.standard_normal(n)
        if seed % 4 == 1:
            x[:, 2] = x[:, 0]
        if seed % 4 == 2:
            x[:, 1] = -1.25
        table = make_table(x, y)
        with caplog.at_level(logging.DEBUG, logger="qppfuse.fusion"):
            model = lars_cv(table, k_folds=2 + seed % 2, seed=seed)
        assert caplog.records == []
        assert repr(model) == repr(self.lars_path_refit(table, 2 + seed % 2, seed))

    def test_lars_cv_fold_paths_log_nothing(self, caplog):
        rng = np.random.default_rng(31)
        table = random_table(rng, n=6, m=4)
        with caplog.at_level(logging.DEBUG, logger="qppfuse.fusion"):
            lars_cv(table, k_folds=2, seed=0)
        assert caplog.records == []


class TestPredict:
    def test_intercept_only(self):
        table = make_table([[1.0], [2.0]], [0.0, 0.0])
        model = RegressionModel("OLS", 0.7, {})
        np.testing.assert_allclose(predict(model, table), [0.7, 0.7])

    def test_linear(self):
        table = make_table([[0.0], [1.0]], [0.0, 0.0], names=["x"])
        model = RegressionModel("OLS", 1.0, {"x": 2.0})
        np.testing.assert_allclose(predict(model, table), [1.0, 3.0])

    def test_clamp(self):
        table = make_table([[1.0]], [0.0], names=["x"])
        model = RegressionModel("OLS", 0.0, {"x": 1.2})
        assert predict(model, table, clamp=True)[0] == 1.0

    def test_missing_column(self):
        table = make_table([[1.0]], [0.0], names=["x"])
        model = RegressionModel("OLS", 0.0, {"y": 1.0})
        with pytest.raises(FusionError, match="y"):
            predict(model, table)

    def test_normalization_applied_first(self):
        raw = make_table([[1.0], [3.0], [5.0]], [0, 0, 0], names=["x"])
        model = RegressionModel("OLS", 0.0, {"x": 1.0}, normalization={"x": (1.0, 5.0)})
        np.testing.assert_allclose(predict(model, raw), [0.0, 0.5, 1.0])


class TestModelIo:
    def test_round_trip(self, tmp_path):
        model = RegressionModel(
            "LASSO", 0.25, {"a": 1.5, "b": 0.0},
            hyperparameters={"lam": 0.3},
            normalization={"a": (0.0, 2.0), "b": (-1.0, 1.0)},
        )
        path = tmp_path / "model.txt"
        write_model(model, path)
        loaded = read_model(path)
        assert loaded == model

    def test_bolasso_support_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(27)
        model = bolasso(random_table(rng, n=40, m=4, noise=1.0), b=8, threshold=0.5,
                        k_folds=2, seed=7)
        path = tmp_path / "model.txt"
        write_model(model, path)
        loaded = read_model(path)
        assert loaded.hyperparameters["support_counts"] == model.hyperparameters["support_counts"]
        assert loaded.hyperparameters["resamples"] == model.hyperparameters["resamples"]
        assert 1 <= loaded.hyperparameters["resamples"] <= 8
        assert loaded == model

    def test_unparseable_hyper_value_kept_as_text(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("# qppfuse model v1\nmethod\tOLS\nhyper\tnote\t{[1]: 2}\n")
        assert read_model(path).hyperparameters == {"note": "{[1]: 2}"}

    def test_dump_is_text(self, tmp_path):
        model = RegressionModel("OLS", 1.0, {"a": 2.0})
        path = tmp_path / "model.txt"
        write_model(model, path)
        text = path.read_text()
        assert "method\tOLS" in text and "coef\ta\t2.0" in text

    @pytest.mark.parametrize("text,message", [
        ("method\tOLS\n", "not a model dump"),
        ("# qppfuse model v2\nmethod\tOLS\n", "not a model dump"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\tX\n", r":3: malformed 'coef'"),
        ("# qppfuse model v1\nmethod\tOLS\nintercept\tabc\n", r":3: malformed 'intercept'"),
        ("# qppfuse model v1\nmethod\tOLS\tLASSO\n", r":2: malformed 'method'"),
        ("# qppfuse model v1\nmethod\tOLS\nnorm\ta\t0.0\n", r":3: malformed 'norm'"),
        ("# qppfuse model v1\nmethod\tOLS\nhyper\tlam\n", r":3: malformed 'hyper'"),
        ("# qppfuse model v1\nmethod\tOLS\nbeta\ta\t1.0\n", r":3: unknown record 'beta'"),
        ("# qppfuse model v1\nintercept\t1.0\n", "missing method"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\ta\t1.0\ncoef\tb\t2.0\nnorm\ta\t0.0\t1.0\n",
         "no norm record for coefficients: b$"),
        ("# qppfuse model v1\nmethod\tOLS\nintercept\tnan\n", r":3: malformed 'intercept'.*non-finite"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\ta\tinf\n", r":3: malformed 'coef'.*non-finite"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\ta\t1.0\nnorm\ta\t-inf\t1.0\n",
         r":4: malformed 'norm'.*non-finite"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\ta\t1.0\ncoef\ta\t5.0\n",
         r":4: malformed 'coef' record: repeated name 'a'"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\ta\t1.0\nnorm\ta\t0.0\t1.0\nnorm\ta\t0.0\t2.0\n",
         r":5: malformed 'norm' record: repeated name 'a'"),
        ("# qppfuse model v1\nmethod\tOLS\ncoef\ta\t1.0\nnorm\ta\t1.0\t0.0\n",
         r":4: malformed 'norm' record: lo 1.0 > hi 0.0"),
        ("# qppfuse model v1\nmethod\tOLS\nintercept\t1.0\nmethod\tLASSO\n",
         r":4: malformed 'method' record: repeated record"),
        ("# qppfuse model v1\nmethod\tOLS\nintercept\t1.0\nintercept\t2.0\n",
         r":4: malformed 'intercept' record: repeated record"),
        ("# qppfuse model v1\nmethod\tOLS\nhyper\tlam\t0.3\nhyper\tfolds\t5\nhyper\tlam\t0.5\n",
         r":5: malformed 'hyper' record: repeated name 'lam'"),
    ], ids=["no-header", "wrong-version", "coef-fields", "intercept-value", "method-fields",
            "norm-fields", "hyper-fields", "unknown-kind", "no-method", "norm-partial",
            "intercept-nan", "coef-inf", "norm-inf", "coef-repeated", "norm-repeated",
            "norm-lo-above-hi", "method-repeated", "intercept-repeated", "hyper-repeated"])
    def test_rejects_bad_file(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(FusionError, match=message):
            read_model(path)


class TestScoreTableIo:
    def test_tsv_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        table = random_table(rng, n=7, m=3)
        path = tmp_path / "design.tsv"
        table.write_tsv(path)
        loaded = ScoreTable.read_tsv(path)
        assert loaded.query_ids == table.query_ids
        np.testing.assert_array_equal(loaded.target, table.target)
        for name in table.column_names:
            np.testing.assert_array_equal(loaded.columns[name], table.columns[name])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "design.tsv"
        path.write_text("query_id\tNQC\tWIG\tAP\n")
        with pytest.raises(FusionError, match="no data rows"):
            ScoreTable.read_tsv(path)

    @pytest.mark.parametrize("header", ["query_id\tNQC\tNQC\tAP", "query_id\tAP\tNQC\tAP"])
    def test_duplicate_column_rejected(self, tmp_path, header):
        path = tmp_path / "design.tsv"
        path.write_text(f"{header}\nq1\t1.0\t2.0\t0.5\n")
        with pytest.raises(FusionError, match="distinct column names"):
            ScoreTable.read_tsv(path)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "design.tsv"
        path.write_text("query_id\tNQC\tAP\nq1\t1.0\t0.5\nq1\t2.0\t0.4\nq2\t3.0\t0.1\n")
        with pytest.raises(FusionError, match=r"design\.tsv:3: duplicate query_id 'q1'"):
            ScoreTable.read_tsv(path)

    @pytest.mark.parametrize("row,column", [
        ("q2\tnan\t0.4", "NQC"), ("q2\t1.0\tinf", "AP"), ("q2\t1e400\t0.4", "NQC")])
    def test_non_finite_rejected_at_its_line(self, tmp_path, row, column):
        path = tmp_path / "design.tsv"
        path.write_text(f"query_id\tNQC\tAP\nq1\t1.0\t0.5\n{row}\nq3\t3.0\t0.1\n")
        with pytest.raises(FusionError,
                           match=rf"design\.tsv:3: non-finite value in column '{column}'"):
            ScoreTable.read_tsv(path)

    def test_rejects_non_finite(self):
        with pytest.raises(FusionError, match="finite"):
            make_table([[np.nan]], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(FusionError):
            ScoreTable(query_ids=["a"], columns={"x": np.array([1.0, 2.0])},
                       target=np.array([0.0]))


class TestStoredMatrix:
    """A table stores one read-only C-ordered matrix; derived tables slice it."""

    @staticmethod
    def assert_stacked(table):
        x = table.matrix()
        assert x.flags.c_contiguous
        assert x.tobytes() == np.column_stack(list(table.columns.values())).tobytes()
        assert list(table.columns) == table.column_names

    def table(self):
        return random_table(np.random.default_rng(41), n=9, m=4)

    def test_constructor(self):
        self.assert_stacked(self.table())

    def test_subset_with_repeated_rows(self):
        table = self.table()
        sample = table.subset([3, 3, 0, 8, 3])
        self.assert_stacked(sample)
        assert sample.query_ids == ["q3", "q3", "q0", "q8", "q3"]
        assert sample.matrix().tobytes() == table.matrix()[[3, 3, 0, 8, 3]].tobytes()

    def test_with_columns_reordered(self):
        table = self.table()
        picked = table.with_columns(["x2", "x0", "x3"])
        self.assert_stacked(picked)
        assert picked.column_names == ["x2", "x0", "x3"]
        for name in picked.column_names:
            assert picked.columns[name].tobytes() == table.columns[name].tobytes()

    def test_minmax_apply(self):
        table = self.table()
        self.assert_stacked(minmax_apply(table, minmax_fit(table)[0]))

    def test_read_tsv(self, tmp_path):
        path = tmp_path / "design.tsv"
        self.table().write_tsv(path)
        self.assert_stacked(ScoreTable.read_tsv(path))

    @pytest.mark.parametrize("clone", [lambda table: pickle.loads(pickle.dumps(table)),
                                       copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_keep_the_bits_and_the_read_only_matrix(self, clone):
        table = self.table().subset([4, 1, 1, 7])
        copied = clone(table)
        self.assert_stacked(copied)
        assert (copied.query_ids, copied.column_names) == (table.query_ids, table.column_names)
        assert copied.matrix().tobytes() == table.matrix().tobytes()
        assert copied.target.tobytes() == table.target.tobytes()
        assert not copied.matrix().flags.writeable
        for values in copied.columns.values():
            assert np.shares_memory(values, copied.matrix()) and not values.flags.writeable

    def test_writes_raise(self):
        table = self.table()
        with pytest.raises(ValueError):
            table.matrix()[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.columns["x1"][0] = 1.0
        with pytest.raises(TypeError):
            table.columns["x9"] = np.zeros(table.n_rows)
