import math

import numpy as np
import pytest

from qppfuse.evaluation import (
    ReportRow,
    UndefinedMetricError,
    fisher_ci,
    kendall_tau_b,
    paired_t_one_sided,
    pearson,
    pearson_r,
    predictor_correlation_matrix,
    rmse_direct,
    rmse_single,
    single_fit_predictions,
    smare,
    write_corr_matrix_tsv,
    write_report_tsv,
)
from qppfuse.evaluation import _average_ranks
from tests.brute_force_reference import loo_rmse_loop


def kendall_brute_force(a, b):
    """O(n^2) pair counter; the final expression mirrors the implementation."""
    n = len(a)
    c = d = t_a = t_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = int(a[i] > a[j]) - int(a[i] < a[j])
            db = int(b[i] > b[j]) - int(b[i] < b[j])
            if da * db > 0:
                c += 1
            elif da * db < 0:
                d += 1
            elif da == 0 and db != 0:
                t_a += 1
            elif db == 0 and da != 0:
                t_b += 1
    return (c - d) / math.sqrt((c + d + t_a) * (c + d + t_b))


def t_cdf_oracle(t, dof):
    """Student-t CDF via the regularized incomplete beta (mpmath)."""
    import mpmath

    x = dof / (dof + t * t)
    half = 0.5 * mpmath.betainc(dof / 2, 0.5, 0, x, regularized=True)
    return float(half if t < 0 else 1 - half)


class TestPearson:
    def test_identity(self):
        a = [1.0, 2.0, 5.0, 3.0]
        result = pearson(a, a)
        assert result.coefficient == pytest.approx(1.0, abs=1e-15)

    def test_reference_confidence_intervals(self):
        # these three intervals are fixed reference points at 2 decimals
        for r, n, lo, hi in [
            (0.5780, 150, 0.46, 0.68),
            (0.6283, 150, 0.52, 0.72),
            (-0.0162, 150, -0.18, 0.14),
        ]:
            ci_lo, ci_hi = fisher_ci(r, n)
            assert round(ci_lo, 2) == lo
            assert round(ci_hi, 2) == hi

    def test_ci_contains_point_and_narrows_with_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = float(rng.uniform(-0.95, 0.95))
            lo_small, hi_small = fisher_ci(r, 10)
            lo_big, hi_big = fisher_ci(r, 1000)
            assert lo_small <= r <= hi_small
            assert (hi_big - lo_big) < (hi_small - lo_small)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        base = pearson(a, b).coefficient
        shifted = pearson(3.7 * a + 11.0, b).coefficient
        assert abs(shifted - base) <= 1e-12

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [6, 7, 12])
    @pytest.mark.parametrize("value", [0.4, 0.1, 0.7])
    def test_constant_whose_mean_rounds_is_undefined(self, value, n):
        # the rounded mean can sit one ulp off the value; the residue is no correlation
        flat = np.full(n, value)
        other = np.random.default_rng(n).uniform(0.0, 1.0, n)
        assert pearson_r(flat.tolist(), other.tolist()) is None
        assert pearson_r(other.tolist(), flat.tolist()) is None
        for a, b in ((flat, other), (other, flat)):
            with pytest.raises(UndefinedMetricError):
                pearson(a, b)

    def test_needs_three_points(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1.0, 2.0], [1.0, 2.0])

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert pearson(a, b).coefficient == pytest.approx(
            pearson(b, a).coefficient, abs=1e-15)

    def test_perfect_correlation_ci(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        result = pearson(a, 2 * a)
        assert result.ci_low == result.ci_high == result.coefficient == 1.0


class TestKendallTauB:
    def test_full_reversal(self):
        result = kendall_tau_b([1, 2, 3], [3, 2, 1])
        assert result.coefficient == -1.0

    def test_tied_example_matches_brute_force(self):
        a, b = [1, 2, 2, 3], [1, 2, 3, 3]
        assert kendall_tau_b(a, b).coefficient == kendall_brute_force(a, b)

    def test_monotone_transform_gives_one(self):
        a = np.array([0.1, 0.5, 0.2, 0.9, 0.4])
        b = np.exp(3 * a) + 7
        assert kendall_tau_b(a, b).coefficient == 1.0

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            a = rng.integers(0, 8, size=n).astype(float)
            b = rng.integers(0, 8, size=n).astype(float)
            if len(set(a)) == 1 or len(set(b)) == 1:
                continue
            assert kendall_tau_b(a, b).coefficient == kendall_brute_force(a, b)

    def test_all_tied_undefined(self):
        with pytest.raises(UndefinedMetricError):
            kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_in_unit_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.integers(0, 5, size=15).astype(float)
            b = rng.integers(0, 5, size=15).astype(float)
            if len(set(a)) == 1 or len(set(b)) == 1:
                continue
            assert -1.0 <= kendall_tau_b(a, b).coefficient <= 1.0


class TestRmse:
    def test_direct_zero_iff_equal(self):
        y = np.array([0.1, 0.5, 0.9])
        assert rmse_direct(y, y) == 0.0
        assert rmse_direct(y + 1e-9, y) > 0.0

    def test_direct_hand_value(self):
        assert rmse_direct([0.1, -0.1], [0.0, 0.0]) == pytest.approx(0.1, abs=1e-15)

    def test_direct_constant_offset(self):
        y = np.array([0.2, 0.4, 0.6])
        assert rmse_direct(y + 0.25, y) == pytest.approx(0.25, abs=1e-12)

    def test_single_exact_linear_gives_zero(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = 0.1 + 0.15 * x
        y_hat = single_fit_predictions(x, y, [0, 2, 4], [1, 3, 5])
        assert rmse_direct(y_hat, y[[1, 3, 5]]) == pytest.approx(0.0, abs=1e-12)

    def test_intercept_only_fallback(self):
        x = np.array([2.0, 2.0, 2.0, 5.0, 7.0])
        y = np.array([0.1, 0.3, 0.5, 0.2, 0.8])
        out = rmse_direct(single_fit_predictions(x, y, [0, 1, 2], [3, 4]), y[[3, 4]])
        train_mean = y[:3].mean()
        expected = math.sqrt(((y[3] - train_mean) ** 2 + (y[4] - train_mean) ** 2) / 2)
        assert out == pytest.approx(expected, abs=1e-12)

    def test_intercept_only_when_train_x_is_exactly_constant(self):
        x = np.array([0.4] * 6 + [0.9])  # the mean of six 0.4s is one ulp off 0.4
        y = np.array([0.1, 0.5, 0.2, 0.7, 0.3, 0.6, 0.9])
        assert single_fit_predictions(x, y, range(6), [6]) == [y[:6].mean()]
        # the left-out 0.9 row leaves six 0.4s: its residual is 0.9 - mean AP
        assert rmse_single(x, y) == pytest.approx(loo_rmse_loop(x, y), rel=1e-15, abs=0.0)

    def test_overlapping_indices_rejected(self):
        x = np.arange(4.0)
        with pytest.raises(ValueError, match="overlap"):
            rmse_direct(single_fit_predictions(x, x, [0, 1], [1, 2]), x[[1, 2]])


def _loo_design(seed, kind, n):
    rng = np.random.default_rng([seed, n])
    y = rng.uniform(0.0, 1.0, n)
    if kind == "continuous":
        x = rng.standard_normal(n)
    elif kind == "ties":  # a few levels, so some rows share a value with many others
        x = rng.integers(0, 3, n) * 0.3
    elif kind == "heavy":  # heavy tails: rows with leverage above 1/2
        x = rng.standard_normal(n) ** 5
    elif kind == "duplicated":  # every value twice or more
        x = np.repeat(rng.uniform(0.0, 1.0, (n + 1) // 2), 2)[:n]
        rng.shuffle(x)
    else:  # min-max scaled, as the CLI passes it: a 0 and a 1 per column
        x = rng.standard_normal(n)
        x = (x - x.min()) / (x.max() - x.min())
    return x, y


class TestRmseSingleLeaveOneOut:
    """The closed form against n train/test fits of ``single_fit_predictions``."""

    @pytest.mark.parametrize("kind", ["continuous", "ties", "heavy", "duplicated", "scaled"])
    @pytest.mark.parametrize("n", [4, 5, 9, 40, 301])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed, kind, n):
        x, y = _loo_design(seed, kind, n)
        assert rmse_single(x, y) == pytest.approx(loo_rmse_loop(x, y), rel=1e-12, abs=0.0)

    def test_constant_column_is_intercept_only(self):
        x = np.full(5, 0.4)  # its rounded mean is one ulp off 0.4
        y = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        # every held-out row is predicted by the mean of the other four
        expected = math.sqrt(np.mean([(y[i] - np.delete(y, i).mean()) ** 2 for i in range(5)]))
        assert rmse_single(x, y) == expected == loo_rmse_loop(x, y)

    def test_constant_except_one_row(self):
        x = np.array([3.0, 3.0, 3.0, 3.0, 7.0])
        y = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        # row 4 left out leaves x constant: the mean of the others, 0.375;
        # a row at x = 3 left out: the mean of the other three at x = 3
        residuals = [y[i] - np.delete(y[:4], i).mean() for i in range(4)] + [1.0 - 0.375]
        expected = math.sqrt(np.mean(np.square(residuals)))
        assert rmse_single(x, y) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert rmse_single(x, y) == pytest.approx(loo_rmse_loop(x, y), rel=1e-15, abs=0.0)

    def test_lone_row_on_either_side(self):
        y = np.array([0.1, 0.7, 0.2, 0.9])
        for x in ([0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [5.0, 5.0, -2.0, 5.0]):
            x = np.array(x)
            assert rmse_single(x, y) == pytest.approx(loo_rmse_loop(x, y), rel=1e-15, abs=0.0)

    def test_two_rows(self):
        # each row left out leaves one row: an intercept-only fit at its AP
        x, y = np.array([1.0, 2.0]), np.array([0.25, 0.75])
        assert rmse_single(x, y) == 0.5 == loo_rmse_loop(x, y)
        assert rmse_single(np.array([0.0, 0.0]), y) == 0.5

    def test_three_rows(self):
        y = np.array([0.25, 0.5, 0.75])
        assert rmse_single(np.array([1.0, 2.0, 3.0]), y) == 0.0
        # row 1 left out: x = 2 twice, mean AP 0.5, residual 0; rows 0 and 2:
        # the line through the other two predicts AP 0.25 away, residual 0.5
        x = np.array([2.0, 1.0, 2.0])
        assert rmse_single(x, y) == pytest.approx(math.sqrt(0.5 / 3), rel=1e-15, abs=0.0)
        assert rmse_single(x, y) == pytest.approx(loo_rmse_loop(x, y), rel=1e-15, abs=0.0)

    def test_perfect_linear_fit(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 0.5 + 0.25 * x
        assert rmse_single(x, y) == 0.0 == loo_rmse_loop(x, y)

    def test_one_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            rmse_single([0.5], [0.5])

    @pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-15, 1e-17])
    def test_nearly_constant_rest(self, eps):
        # the row at 1 has 1 - h_ii near eps^2: it is refit, never divided by
        x = np.r_[np.zeros(8), eps, 1.0]
        y = np.linspace(0.1, 0.9, 10)
        assert rmse_single(x, y) == pytest.approx(loo_rmse_loop(x, y), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x,logs", [
        (np.zeros(50), 1), (np.r_[1.0, np.zeros(49)], 1), (np.arange(50.0), 0),
        (np.array([0.0, 1.0]), 1)], ids=["constant", "lone-row", "varied", "two-rows"])
    def test_intercept_only_logged_at_most_once(self, caplog, x, logs):
        caplog.set_level("INFO", logger="qppfuse.evaluation")
        rmse_single(x, np.linspace(0.0, 1.0, x.size))
        assert sum("intercept-only" in r.getMessage() for r in caplog.records) == logs


class TestSmare:
    def test_identical_orderings(self):
        a = np.array([0.3, 0.9, 0.1, 0.5])
        value, sare = smare(a, 2 * a + 1)
        assert value == 0.0
        assert np.all(sare == 0.0)

    def test_full_reversal_n4(self):
        value, sare = smare([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        assert value == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(sare, [0.75, 0.25, 0.25, 0.75])

    def test_adjacent_swap_n4(self):
        value, _ = smare([2.0, 1.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert value == pytest.approx(0.125, abs=1e-15)

    def test_strictly_increasing_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pred = rng.standard_normal(12)
            ap = rng.uniform(0, 1, 12)
            base, _ = smare(pred, ap)
            transformed, _ = smare(np.exp(pred) * 2 + 5, ap)
            assert transformed == base

    def test_bounded_by_half(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            value, _ = smare(rng.standard_normal(n), rng.standard_normal(n))
            assert 0.0 <= value <= 0.5 + 1e-12

    @staticmethod
    def _run_ranks(x):
        """The earlier rule: average ranks from the runs of equal values in a stable sort."""
        order = np.argsort(x, kind="stable")
        ordered = x[order]
        bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
        ranks = np.empty(x.size)
        ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2, np.diff(bounds))
        return np.full(x.size, math.nan) if np.isnan(x).any() else ranks

    def test_average_ranks_have_the_bits_of_the_run_rule(self):
        rng = np.random.default_rng(35)
        specials = np.array([0.0, -0.0, 1.0, -1.0, math.nan])
        for k in range(20_000):
            n = int(rng.integers(1, 40))
            x = rng.integers(-3, 4, n).astype(float) if k % 2 else rng.standard_normal(n)
            if k % 3 == 0:
                x[rng.integers(0, n, max(1, n // 4))] = rng.choice(specials[:4 + (k % 9 == 0)])
            assert _average_ranks(x).tobytes() == self._run_ranks(x).tobytes(), x


class TestPairedT:
    def test_equal_errors_give_half(self):
        e = np.array([0.1, 0.2, 0.3])
        assert paired_t_one_sided(e, e) == 0.5

    def test_constant_nonzero_difference_undefined(self):
        e = np.array([0.5, 1.0, 1.5])  # exactly representable, d = -0.25 each
        with pytest.raises(UndefinedMetricError):
            paired_t_one_sided(e - 0.25, e)

    def test_matches_t_cdf_oracle(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        d = rng.normal(-0.5, 1.0, size=30)
        err_b = rng.uniform(1.0, 2.0, size=30)
        err_a = err_b + d
        p = paired_t_one_sided(err_a, err_b)
        t = d.mean() / (d.std(ddof=1) / math.sqrt(30))
        assert p == pytest.approx(t_cdf_oracle(t, 29), abs=1e-6)

    def test_improvement_gives_small_p(self):
        rng = np.random.default_rng(8)
        err_b = rng.uniform(0.5, 1.0, size=40)
        err_a = err_b - rng.uniform(0.2, 0.4, size=40)
        assert paired_t_one_sided(err_a, err_b) < 0.01


class TestCorrMatrix:
    def test_diagonal_and_antisymmetric_pair(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(20)
        matrix = predictor_correlation_matrix({"x": x, "neg": -x, "noise": rng.standard_normal(20)})
        assert matrix.value("x", "x") == 1.0
        assert matrix.value("x", "neg") == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(matrix.matrix, matrix.matrix.T)

    def test_cells_match_scalar_recomputation(self):
        rng = np.random.default_rng(10)
        columns = {f"c{i}": rng.standard_normal(15) for i in range(3)}
        for metric, scalar in (("pearson", pearson), ("kendall", kendall_tau_b)):
            matrix = predictor_correlation_matrix(columns, metric=metric)
            for a in columns:
                for b in columns:
                    if a == b:
                        continue
                    expected = scalar(columns[a], columns[b]).coefficient
                    assert matrix.value(a, b) == expected

    def test_undefined_cell_recorded(self):
        columns = {"const": np.ones(5), "x": np.arange(5.0)}
        matrix = predictor_correlation_matrix(columns)
        assert math.isnan(matrix.value("const", "x"))
        assert ("const", "x") in matrix.missing

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            predictor_correlation_matrix({"x": np.arange(5.0)})

    def test_tsv_export(self, tmp_path):
        columns = {"a": np.arange(5.0), "b": np.arange(5.0)[::-1].copy()}
        matrix = predictor_correlation_matrix(columns)
        path = tmp_path / "m.tsv"
        write_corr_matrix_tsv(path, matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == "predictor\ta\tb"
        assert lines[1] == "a\t1.0000\t-1.0000"


class TestReportTsv:
    def test_format(self, tmp_path):
        rows = [
            ReportRow("MaxIDF", tau=0.40852, rho=0.578, ci_low=0.46,
                      ci_high=0.68, smare=0.1937, rmse=0.1766),
            ReportRow("OLS", tau=0.4619, rho=0.6205, ci_low=0.51, ci_high=0.71,
                      smare=0.1905, rmse=0.169, p_value=0.3606),
        ]
        path = tmp_path / "report.tsv"
        write_report_tsv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "predictor\ttau\trho\tci_low\tci_high\tsmare\trmse\tp_value"
        assert lines[1] == "MaxIDF\t0.4085\t0.5780\t0.4600\t0.6800\t0.1937\t0.1766\tnan"
        assert lines[2].startswith("OLS\t0.4619\t0.6205")
