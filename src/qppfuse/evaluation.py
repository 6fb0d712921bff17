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

from .seeding import BLOCK_CELLS, seq_sum, write_lines

__all__ = [
    "UndefinedMetricError",
    "CorrelationResult",
    "CorrMatrix",
    "ReportRow",
    "pearson",
    "pearson_r",
    "mean_ssd",
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
    "write_scores_long",
    "write_scores_wide",
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


def _columns(vectors) -> list[np.ndarray]:
    """The vectors as float arrays; all must be 1-d of one length."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != (vectors[0].size,) for v in vectors):
        raise ValueError("inputs must be 1-d vectors of equal length")
    return vectors


def pearson(a, b) -> CorrelationResult:
    """Product-moment correlation with a Fisher-z 95% confidence interval; needs n >= 3."""
    r = max(-1.0, min(1.0, _pearson_columns([a, b], min_n=3)(0, 1)))
    return CorrelationResult(r, len(a), *fisher_ci(r, len(a)))


def pearson_r(a, b) -> float | None:
    """Unclamped correlation of two equal-length sequences at any n; None where undefined."""
    try:
        return _pearson_columns([a, b])(0, 1)
    except UndefinedMetricError:
        return None


def mean_ssd(values) -> tuple[float, float]:
    """Mean and sum of squared deviations of a float list, each added in sequence; inf past
    the float range. Squares are Python's ``** 2`` (libm pow), which ``xc * xc`` may not match."""
    mean = seq_sum(values) / len(values)
    try:
        return mean, seq_sum((x - mean) ** 2 for x in values)
    except OverflowError:
        return mean, math.inf


def _pearson_columns(vectors, min_n=2):
    """``r(i, j)``, the unclamped Pearson coefficient of columns i < j, raising where undefined.

    Each column is checked (finite, exactly constant) and centred once. Cross sums are added in
    sequence (``np.add.accumulate``; ``+ 0.0`` as Python sums -0.0s to 0.0) in blocks of at most
    BLOCK_CELLS cells. Sums or Saa * Sbb that are not finite and positive would read as r = 0
    (sqrt(inf)) or zero variance (underflow): such a pair is outside the float range."""
    vectors = _columns(vectors)
    n = vectors[0].size
    m = len(vectors) if n >= min_n else 0  # too short: r raises before it reads a column
    states, ssd, centred, cross = [0] * m, [0.0] * m, np.empty((m, n)), np.zeros((m, m))
    with np.errstate(over="ignore", invalid="ignore"):  # cells of undefined pairs go unread
        for k, v in enumerate(vectors[:m]):  # state 0: non-finite, 1: constant, 2: live
            values = v.tolist()
            mean, ssd[k] = mean_ssd(values)
            finite = math.isfinite(mean) or np.isfinite(v).all()
            states[k] = 2 if finite and values.count(values[0]) < n else int(finite)
            np.subtract(v, mean, out=centred[k])
        step = max(1, BLOCK_CELLS // max(n, 1))
        for i, lo in ((i, lo) for i in range(m - 1) for lo in range(i + 1, m, step)):
            block = centred[i] * centred[lo:lo + step]
            cross[i, lo:lo + step] = np.add.accumulate(block, axis=1)[:, -1]
    cross = cross.tolist()

    def r(i, j):
        if n < min_n:
            raise UndefinedMetricError(f"need n >= {min_n}, got {n}")
        state, sab, saa_sbb = min(states[i], states[j]), cross[i][j] + 0.0, ssd[i] * ssd[j]
        if state < 2 or not (math.isfinite(sab) and 0.0 < saa_sbb < math.inf):
            raise UndefinedMetricError(
                ("non-finite input", "zero variance input", "outside the float range")[state])
        return sab / math.sqrt(saa_sbb)
    return r


def fisher_ci(r: float, n: int) -> tuple[float, float]:
    """95% interval tanh(atanh(r) +- Z_95/sqrt(n-3)); collapses to [r, r] at |r| = 1."""
    if abs(r) >= 1.0:
        return (r, r)
    z = math.atanh(r)
    if n <= 3:
        return (-1.0, 1.0)
    half = Z_95 / math.sqrt(n - 3)
    return (math.tanh(z - half), math.tanh(z + half))


def kendall_tau_b(a, b) -> CorrelationResult:
    """Tie-aware Kendall's tau from exact integer pair counts.

    tau_b = (C - D) / sqrt((C + D + Ta) * (C + D + Tb)) where Ta / Tb count
    pairs tied only in a / only in b; pairs tied in both count nowhere. The
    counts are a one-row call of the block kernel :func:`_pair_counts`, so
    O(n log n) time and O(n) memory.
    """
    return CorrelationResult(_kendall_taus([a, b])(0, 1), len(a))


def _kendall_taus(vectors):
    """``tau(i, j)``, tau-b of columns i < j, raising where undefined; each column is
    checked and ranked once, ties sharing their lowest sorted position (-0.0 ties 0.0)."""
    vectors = _columns(vectors)
    n = vectors[0].size
    ordered = [np.sort(v) for v in vectors]  # NaN sorts last
    finite = [n >= 2 and math.isfinite(s[0]) and math.isfinite(s[-1]) for s in ordered]
    ranks = np.array([np.searchsorted(s, v) for s, v in zip(ordered, vectors)])
    live = [(i, j) for i in range(len(vectors)) for j in range(i + 1, len(vectors))
            if finite[i] and finite[j]]
    counts, step = {}, max(1, BLOCK_CELLS // max(n, 1))
    for start in range(0, len(live), step):
        i, j = np.array(live[start:start + step]).T
        counts.update(zip(live[start:start + step], _pair_counts(ranks[i], ranks[j]).tolist()))

    def tau(i, j):
        if n < 2:
            raise UndefinedMetricError(f"need n >= 2, got {n}")
        if (i, j) not in counts:
            raise UndefinedMetricError("non-finite input")
        n1, n2, n3, d = counts[i, j]
        c = n * (n - 1) // 2 - n1 - n2 + n3 - d
        denom_sq = (c + d + n1 - n3) * (c + d + n2 - n3)  # Ta = n1 - n3, Tb = n2 - n3
        if denom_sq == 0:
            raise UndefinedMetricError("all pairs tied in one vector")
        return (c - d) / math.sqrt(denom_sq)
    return tau


_BASE_PAIRS = np.arange(16)[:, None] < np.arange(16)  # i < j within a 16-element block


def _pair_counts(ra, rb) -> np.ndarray:
    """Exact int64 [n1, n2, n3, D] of each row pair of two P x n lowest-position rank blocks.

    Knight (1966): sorted by (a, b), n1 / n2 / n3 count pairs tied in a / b / both (a
    run tied from sorted position s holds sum(i - s) pairs) and D the inversions of b,
    counted merge-sort style on b padded with n to 16 * 2^k: a broadcast comparison in
    each 16-element block, then per level one sort of each pair of w-runs, the right one
    tagged so that its k-th element, sorted to q, lies below w - (q - k) left ones.
    """
    p, n = ra.shape
    half = n * (n - 1) // 2
    size = 16 << ((n - 1) // 16).bit_length()
    y = np.full((p, size), n)
    key = y[:, :n]  # sorted by (a, b) in place, then b's ranks doubled, so a tag bit sorts below
    np.add(ra * n, rb, out=key)
    key.sort(axis=1)
    n3 = half - np.maximum.accumulate(
        np.where(key[:, 1:] != key[:, :-1], np.arange(1, n), 0), axis=1).sum(axis=1)
    key %= n
    y <<= 1
    d = np.greater(y.reshape(p, -1, 16, 1), y.reshape(p, -1, 1, 16), where=_BASE_PAIRS,
                   out=np.zeros((p, size // 16, 16, 16), dtype=bool)).sum(axis=(1, 2, 3))
    position, width = np.arange(size), 16
    while width < size:  # every sort is in place, so memory stays y and one temporary
        y.reshape(-1, 2, width)[:, 1] += 1
        y.reshape(-1, 2 * width).sort(axis=1)
        # w + k - q summed over a row's right elements, q read as a row position, r = size / 2w:
        # r(w^2 + w(w-1)/2) + w^2 r(r-1) - tags @ position
        d += size * size // 4 + size // (2 * width) * (width * (width - 1) // 2) - (y & 1) @ position
        y &= -2
        width *= 2
    return np.array([half - ra.sum(axis=1), half - rb.sum(axis=1), n3, d]).T


def rmse_direct(y_hat, y) -> float:
    """sqrt(mean squared error); zero iff the vectors are identical."""
    y_hat, y = _columns([y_hat, y])
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def rmse_single(predictor_col, ap_col) -> float:
    """Leave-one-out RMSE of the one-variable least-squares fit AP ~ predictor.

    One fit on all n rows gives row i's held-out residual e_i / (1 - h_ii),
    h_ii = 1/n + (x_i - mean x)^2 / Sxx. The leverages h_ii sum to 2, so at
    most three rows have h_ii > 1/2; those are refit without the row by
    :func:`single_fit_predictions`. A row whose removal leaves the column
    exactly constant (h_ii = 1) thus gets the other rows' mean AP, and so does
    every row of a constant column or of a 2-row design.
    """
    x = np.asarray(predictor_col, dtype=float)
    y = np.asarray(ap_col, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    xc, yc = x - x.mean(), y - y.mean()
    if n == 2 or (x == x[0]).all():
        logger.info("constant predictor on the train rows of every leave-one-out fit; "
                    "intercept-only fits")
        return float(np.sqrt(np.mean((yc * (n / (n - 1))) ** 2)))
    sxx = float(xc @ xc)
    leverage = 1.0 / n + xc**2 / sxx
    residual = yc - (float(xc @ yc) / sxx) * xc
    low = leverage <= 0.5
    residual[low] /= 1.0 - leverage[low]
    for i in np.flatnonzero(~low):
        residual[i] = y[i] - single_fit_predictions(x, y, np.delete(np.arange(n), i), [i])[0]
    return float(np.sqrt(np.mean(residual**2)))


def single_fit_predictions(predictor_col, ap_col, train_idx, test_idx) -> np.ndarray:
    """Test-set predictions of the fit AP ~ predictor on train; intercept-only if x is constant there."""
    predictor_col = np.asarray(predictor_col, dtype=float)
    ap_col = np.asarray(ap_col, dtype=float)
    train_idx = np.asarray(train_idx, dtype=int)
    test_idx = np.asarray(test_idx, dtype=int)
    if np.bincount(train_idx, minlength=ap_col.size)[test_idx].any():
        raise ValueError("train and test index sets overlap")
    x_tr = predictor_col[train_idx]
    y_tr = ap_col[train_idx]
    x_mean = x_tr.mean()
    if (x_tr == x_tr[0]).all():  # exact: six 0.4s have a mean one ulp off 0.4
        logger.info("constant predictor on the train rows; intercept-only fit")
        slope = 0.0
    else:
        xc = x_tr - x_mean
        slope = float(xc @ (y_tr - y_tr.mean())) / float((xc**2).sum())
    intercept = float(y_tr.mean()) - slope * float(x_mean)
    return intercept + slope * predictor_col[test_idx]


def smare(pred_scores, ap) -> tuple[float, np.ndarray]:
    """Scaled mean absolute rank error and the per-query values.

    Both vectors are ranked ascending with average ranks on ties; the
    per-query error is |rank difference| / n.
    """
    pred_scores, ap = _columns([pred_scores, ap])
    n = pred_scores.size
    if n < 2:
        raise ValueError("need at least 2 queries")
    sare = np.abs(_average_ranks(pred_scores) - _average_ranks(ap)) / n
    return float(sare.mean()), sare


def _average_ranks(x) -> np.ndarray:
    """Ranks from 1, ties sharing the mean of their sorted positions, read off the sorted
    column as in :func:`_kendall_taus` (-0.0 ties 0.0); all NaN if any is NaN."""
    if np.isnan(x).any():
        return np.full(x.size, math.nan)
    ordered = np.sort(x)
    return (np.searchsorted(ordered, x, "left") + np.searchsorted(ordered, x, "right") + 1) / 2


def paired_t_one_sided(err_a, err_b) -> float:
    """p-value for the alternative "errors of a are smaller than errors of b".

    Identical error vectors give t = 0, p = 0.5; any other zero-variance
    difference vector leaves the statistic undefined.
    """
    err_a, err_b = _columns([err_a, err_b])
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

    Each metric's core checks and centres (Pearson) or ranks (Kendall) each column
    once, then works on the pairs in blocks of at most BLOCK_CELLS cells. Undefined
    cells (non-finite input, zero variance, sums outside the float range, all ties)
    are NaN, with the reason recorded per pair."""
    if metric not in ("pearson", "kendall"):
        raise ValueError(f"metric must be 'pearson' or 'kendall', got {metric!r}")
    if len(columns) < 2:
        raise ValueError("need at least 2 predictor columns")
    names, vectors = list(columns), list(columns.values())
    corr = _kendall_taus(vectors) if metric == "kendall" else _pearson_columns(vectors, min_n=3)
    m = len(names)
    matrix = np.ones((m, m))
    missing: dict[tuple[str, str], str] = {}
    for i in range(m):
        for j in range(i + 1, m):
            try:
                value = corr(i, j)
            except UndefinedMetricError as exc:
                value = math.nan
                missing[(names[i], names[j])] = str(exc)
            matrix[i, j] = matrix[j, i] = value
    return CorrMatrix(names=names, matrix=matrix, metric=metric, missing=missing)


def format_metric(value) -> str:
    """4-decimal fixed notation; None and NaN print as ``nan``."""
    return "nan" if value is None else f"{value:.4f}"


def write_corr_matrix_tsv(path, corr: CorrMatrix) -> None:
    """Matrix TSV with a header row/column of predictor names."""
    write_lines(path, ["predictor\t" + "\t".join(corr.names)] + [
        "\t".join([name] + [format_metric(float(v)) for v in corr.matrix[i]])
        for i, name in enumerate(corr.names)])


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
    write_lines(path, ["\t".join(REPORT_COLUMNS)] + ["\t".join(_report_cells(row)) for row in rows])


def write_split_report_tsv(path, per_split) -> None:
    """Report TSV with a leading split number; one block of rows per split."""
    write_lines(path, ["split\t" + "\t".join(REPORT_COLUMNS)] + [
        "\t".join([str(s)] + _report_cells(row))
        for s, rows in enumerate(per_split) for row in rows])


def write_scores_long(path, scores_by_query: dict[str, dict[str, float]]) -> None:
    """Long-format score TSV: query_id, predictor name, value."""
    write_lines(path, (f"{qid}\t{name}\t{value:.6f}" for qid, scores in scores_by_query.items()
                       for name, value in scores.items()))


def write_scores_wide(path, scores_by_query: dict[str, dict[str, float]]) -> None:
    """Wide-format score TSV: header row of predictor names, one row per query."""
    if not scores_by_query:
        raise ValueError("no scores to write")
    names = list(next(iter(scores_by_query.values())).keys())
    write_lines(path, ["query_id\t" + "\t".join(names)] + [
        f"{qid}\t" + "\t".join(f"{scores[n]:.6f}" for n in names)
        for qid, scores in scores_by_query.items()])
