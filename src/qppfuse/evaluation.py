"""Prediction-quality metrics: correlations, RMSE, rank error, significance.

Pearson coefficients carry a 95% confidence interval computed with the
Fisher z transform; Kendall's tau is the tie-aware tau-b. sMARE is the mean
absolute rank difference between the predicted and actual query orderings,
scaled by the number of queries. The one-sided paired t-test compares
per-query prediction errors of two methods; its p-value comes from the
Student-t CDF for integer degrees of freedom, evaluated with the finite
series of Cephes' ``stdtr`` (Moshier 1989, *Methods and Programs for
Mathematical Functions*).
"""

import math
import logging
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UndefinedMetricError",
    "CorrelationResult",
    "CorrMatrix",
    "ReportRow",
    "pearson",
    "pearson_r",
    "kendall_tau_b",
    "rmse_direct",
    "rmse_single",
    "single_fit_predictions",
    "smare",
    "paired_t_one_sided",
    "predictor_correlation_matrix",
    "report_row",
    "format_metric",
    "REPORT_COLUMNS",
    "write_corr_matrix_tsv",
    "write_report_tsv",
    "write_split_report_tsv",
]

logger = logging.getLogger(__name__)

Z_95 = 1.959964


class UndefinedMetricError(Exception):
    """The metric is undefined for this input (zero variance, all ties, ...)."""


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    n: int
    ci_low: float | None = None
    ci_high: float | None = None


def pearson(a, b) -> CorrelationResult:
    """Product-moment correlation with a Fisher-z 95% confidence interval."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = a.size
    if n < 3:
        raise UndefinedMetricError(f"need n >= 3, got {n}")
    r = pearson_r(a.tolist(), b.tolist())
    if r is None:
        raise UndefinedMetricError("zero variance input")
    r = max(-1.0, min(1.0, r))
    low, high = fisher_ci(r, n)
    return CorrelationResult(r, n, low, high)


def pearson_r(a, b) -> float | None:
    """Sample correlation of two equal-length sequences from plain sequential sums.

    No n >= 3 requirement and no clamping; None when sqrt(Saa * Sbb) is zero.
    """
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    sab = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    saa = sum((x - ma) ** 2 for x in a)
    sbb = sum((y - mb) ** 2 for y in b)
    denom = math.sqrt(saa * sbb)
    if denom == 0.0:
        return None
    return sab / denom


def fisher_ci(r: float, n: int, z_quantile: float = Z_95) -> tuple[float, float]:
    """95% interval tanh(atanh(r) +- z/sqrt(n-3)); collapses to [r, r] at |r| = 1."""
    if abs(r) >= 1.0:
        return (r, r)
    z = math.atanh(r)
    if n <= 3:
        return (-1.0, 1.0)
    half = z_quantile / math.sqrt(n - 3)
    return (math.tanh(z - half), math.tanh(z + half))


def kendall_tau_b(a, b) -> CorrelationResult:
    """Tie-aware Kendall's tau from exact integer pair counts.

    tau_b = (C - D) / sqrt((C + D + Ta) * (C + D + Tb)) where Ta / Tb count
    pairs tied only in a / only in b; pairs tied in both count nowhere.
    Knight (1966): sort by (a, b); n1 / n2 / n3 (pairs tied in a / b / both)
    come from runs of equal values, D from the inversions of b in that order.
    O(n log n) time, O(n) memory.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = a.size
    if n < 2:
        raise UndefinedMetricError(f"need n >= 2, got {n}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UndefinedMetricError("non-finite input")
    order = np.lexsort((b, a))  # by a, then b
    a, b = a[order], b[order]
    b_sorted = np.sort(b)
    a_differs = a[1:] != a[:-1]
    n1 = _tied_pairs(a_differs)
    n2 = _tied_pairs(b_sorted[1:] != b_sorted[:-1])
    n3 = _tied_pairs(a_differs | (b[1:] != b[:-1]))
    d = _inversions(np.searchsorted(b_sorted, b).tolist())
    c = n * (n - 1) // 2 - n1 - n2 + n3 - d
    denom_sq = (c + d + n1 - n3) * (c + d + n2 - n3)  # Ta = n1 - n3, Tb = n2 - n3
    if denom_sq == 0:
        raise UndefinedMetricError("all pairs tied in one vector")
    return CorrelationResult((c - d) / math.sqrt(denom_sq), n)


def _run_bounds(differs) -> np.ndarray:
    """Run boundaries of a sorted sequence: 0, each i whose element differs from i - 1, n."""
    return np.flatnonzero(np.concatenate(([True], differs, [True])))


def _tied_pairs(differs) -> int:
    runs = np.diff(_run_bounds(differs))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(ranks: list[int]) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for ranks in [0, n); a Fenwick tree."""
    tree, count = [0] * (len(ranks) + 1), 0
    for seen, rank in enumerate(ranks):
        count += seen
        i = rank + 1
        while i:  # earlier ranks <= rank are not inversions
            count -= tree[i]
            i &= i - 1
        i = rank + 1
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return count


def rmse_direct(y_hat, y) -> float:
    """sqrt(mean squared error); zero iff the vectors are identical."""
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_hat.shape != y.shape:
        raise ValueError("length mismatch")
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def rmse_single(predictor_col, ap_col, train_idx, test_idx) -> float:
    """Test RMSE of a one-variable least-squares fit (AP ~ predictor) on train.

    A constant predictor on the train rows falls back to an intercept-only
    fit (the train AP mean).
    """
    train_idx = np.asarray(train_idx, dtype=int)
    test_idx = np.asarray(test_idx, dtype=int)
    ap_col = np.asarray(ap_col, dtype=float)
    if np.bincount(train_idx, minlength=ap_col.size)[test_idx].any():
        raise ValueError("train and test index sets overlap")
    y_hat = single_fit_predictions(predictor_col, ap_col, train_idx, test_idx)
    return rmse_direct(y_hat, ap_col[test_idx])


def single_fit_predictions(predictor_col, ap_col, train_idx, test_idx) -> np.ndarray:
    """Test-set predictions of the one-variable fit used by :func:`rmse_single`."""
    predictor_col = np.asarray(predictor_col, dtype=float)
    ap_col = np.asarray(ap_col, dtype=float)
    train_idx = np.asarray(train_idx, dtype=int)
    test_idx = np.asarray(test_idx, dtype=int)
    x_tr = predictor_col[train_idx]
    y_tr = ap_col[train_idx]
    x_mean = x_tr.mean()
    var = float(((x_tr - x_mean) ** 2).sum())
    if var == 0.0:
        logger.info("constant predictor on the train rows; intercept-only fit")
        slope = 0.0
    else:
        slope = float((x_tr - x_mean) @ (y_tr - y_tr.mean())) / var
    intercept = float(y_tr.mean()) - slope * float(x_mean)
    return intercept + slope * predictor_col[test_idx]


def smare(pred_scores, ap) -> tuple[float, np.ndarray]:
    """Scaled mean absolute rank error and the per-query values.

    Both vectors are ranked ascending with average ranks on ties; the
    per-query error is |rank difference| / n.
    """
    pred_scores = np.asarray(pred_scores, dtype=float)
    ap = np.asarray(ap, dtype=float)
    if pred_scores.shape != ap.shape or pred_scores.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = pred_scores.size
    if n < 2:
        raise ValueError("need at least 2 queries")
    sare = np.abs(_average_ranks(pred_scores) - _average_ranks(ap)) / n
    return float(sare.mean()), sare


def _average_ranks(x) -> np.ndarray:
    """Ranks from 1, ties sharing the mean of their positions; all NaN if any is NaN."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    bounds = _run_bounds(ordered[1:] != ordered[:-1])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2, np.diff(bounds))
    return np.full(x.size, math.nan) if np.isnan(x).any() else ranks


def paired_t_one_sided(err_a, err_b) -> float:
    """p-value for the alternative "errors of a are smaller than errors of b".

    Identical error vectors give t = 0, p = 0.5; any other zero-variance
    difference vector leaves the statistic undefined.
    """
    err_a = np.asarray(err_a, dtype=float)
    err_b = np.asarray(err_b, dtype=float)
    if err_a.shape != err_b.shape or err_a.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = err_a.size
    if n < 2:
        raise UndefinedMetricError(f"need n >= 2, got {n}")
    d = err_a - err_b
    if np.all(d == 0.0):
        return 0.5
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise UndefinedMetricError("zero-variance differences")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return _t_cdf(n - 1, t)


def _t_cdf(k: int, t: float) -> float:
    """Student-t CDF with k >= 1 degrees of freedom (Cephes ``stdtr``).

    P(-|t| < T < |t|) is arctan plus a finite series for odd k and a finite
    series alone for even k; the series stops once a term falls to 2**-53 of
    the sum. The absolute error is about 1e-16 at small k and grows with the
    number of terms, to about 2e-15 near k = 300. Unlike Cephes there is no
    incomplete-beta branch for t < -2, so far lower tails keep their absolute
    but not their relative accuracy; ``hypot`` keeps sqrt(k + t*t) finite
    for any finite t.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 degrees of freedom, got {k}")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 1.0 if t > 0.0 else 0.0
    x = abs(t)
    z = 1.0 + x * x / k
    f = term = 1.0
    j = 3 if k & 1 else 2
    while j <= k - 2 and term / f > 2.0 ** -53:
        term *= (j - 1) / (z * j)
        f += term
        j += 2
    if k & 1:
        xsqk = x / math.sqrt(k)
        p = (math.atan(xsqk) + (f * xsqk / z if k > 1 else 0.0)) * (2.0 / math.pi)
    else:
        p = f * x / math.hypot(math.sqrt(k), x)
    return 0.5 + 0.5 * math.copysign(p, t)


@dataclass
class CorrMatrix:
    """Symmetric pairwise predictor-correlation matrix with a unit diagonal."""

    names: list[str]
    matrix: np.ndarray
    metric: str
    missing: dict[tuple[str, str], str] = field(default_factory=dict)

    def value(self, a: str, b: str) -> float:
        return float(self.matrix[self.names.index(a), self.names.index(b)])

    def offdiagonal(self) -> np.ndarray:
        """Upper-triangle entries, NaN cells excluded."""
        iu = np.triu_indices(len(self.names), k=1)
        vals = self.matrix[iu]
        return vals[~np.isnan(vals)]


def predictor_correlation_matrix(columns: dict[str, "np.ndarray"], metric: str = "pearson") -> CorrMatrix:
    """Pairwise correlations between predictor score columns.

    Undefined cells (zero variance, all ties) are NaN, with the reason
    recorded per pair.
    """
    if metric not in ("pearson", "kendall"):
        raise ValueError(f"metric must be 'pearson' or 'kendall', got {metric!r}")
    if len(columns) < 2:
        raise ValueError("need at least 2 predictor columns")
    names = list(columns.keys())
    vectors = [np.asarray(columns[n], dtype=float) for n in names]
    corr = pearson if metric == "pearson" else kendall_tau_b
    m = len(names)
    matrix = np.ones((m, m))
    missing: dict[tuple[str, str], str] = {}
    for i in range(m):
        for j in range(i + 1, m):
            try:
                value = corr(vectors[i], vectors[j]).coefficient
            except UndefinedMetricError as exc:
                value = math.nan
                missing[(names[i], names[j])] = str(exc)
            matrix[i, j] = matrix[j, i] = value
    return CorrMatrix(names=names, matrix=matrix, metric=metric, missing=missing)


def format_metric(value) -> str:
    """4-decimal fixed notation; None and NaN print as ``nan``."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.4f}"


def write_corr_matrix_tsv(path, corr: CorrMatrix) -> None:
    """Matrix TSV with a header row/column of predictor names."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("predictor\t" + "\t".join(corr.names) + "\n")
        for i, name in enumerate(corr.names):
            cells = "\t".join(format_metric(float(v)) for v in corr.matrix[i])
            fh.write(f"{name}\t{cells}\n")


@dataclass
class ReportRow:
    """One evaluated predictor or combiner."""

    predictor: str
    tau: float | None = None
    rho: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    smare: float | None = None
    rmse: float | None = None
    p_value: float | None = None


REPORT_COLUMNS = ("predictor", "tau", "rho", "ci_low", "ci_high", "smare", "rmse", "p_value")


def report_row(name: str, y_hat, y) -> ReportRow:
    """Report row for predictions of ``y``: tau, rho with its CI, sMARE, direct RMSE.

    An undefined correlation is recorded as NaN.
    """
    row = ReportRow(predictor=name)
    try:
        row.tau = kendall_tau_b(y_hat, y).coefficient
    except UndefinedMetricError:
        row.tau = math.nan
    try:
        result = pearson(y_hat, y)
        row.rho, row.ci_low, row.ci_high = result.coefficient, result.ci_low, result.ci_high
    except UndefinedMetricError:
        row.rho = row.ci_low = row.ci_high = math.nan
    row.smare = smare(y_hat, y)[0]
    row.rmse = rmse_direct(y_hat, y)
    return row


def _report_cells(row: ReportRow) -> list[str]:
    return [row.predictor] + [format_metric(getattr(row, col)) for col in REPORT_COLUMNS[1:]]


def write_report_tsv(path, rows) -> None:
    """Evaluation report TSV, one row per predictor, 4-decimal fixed values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            fh.write("\t".join(_report_cells(row)) + "\n")


def write_split_report_tsv(path, per_split) -> None:
    """Report TSV with a leading split number; one block of rows per split."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("split\t" + "\t".join(REPORT_COLUMNS) + "\n")
        for s, rows in enumerate(per_split):
            for row in rows:
                fh.write("\t".join([str(s)] + _report_cells(row)) + "\n")
