"""Min-max normalization and the penalized-regression combiner suite.

Fits are expressed over a ScoreTable (one matrix of named predictor columns
plus the AP target). Penalty conventions, with the intercept never penalized:

  OLS     minimize ||y - Xb||^2
  Ridge   minimize ||y - Xb||^2 + lam * ||b||^2
  LASSO   minimize (1/2)||y - Xb||^2 + lam * ||b||_1
  E-Net   minimize (1/2)||y - Xb||^2 + lam * (alpha*||b||_1
                                               + (1-alpha)/2 * ||b||_2^2)

so enet(alpha=1) coincides with lasso(lam) and enet(alpha=0) with
ridge(lam). LASSO and E-Net are both read off the exact LASSO path (LAR
with the lasso modification, on the Gram matrix), which is piecewise linear
in lam and has no iteration budget: for fixed l2 = lam*(1-alpha), E-Net is
the lasso with penalty lam*alpha on the Gram matrix G + l2*I and the same
X'y (Zou & Hastie 2005, Lemma 1). Cross-validated E-Net at alpha < 1
warm-starts each fold's grid from the previous lam's active set and signs,
accepting a solve only where the KKT conditions hold and reading the path
otherwise; every returned model, refits included, is read off the path.
LARS is the same engine without the drop rule (Efron et al. 2004, section
3.1). All fits are deterministic given (table, hyperparameters, seed).
"""

import ast
import logging
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .seeding import derive_seed, read_lines, seq_sum, write_lines

__all__ = [
    "FusionError",
    "ConvergenceError",
    "ScoreTable",
    "RegressionModel",
    "LarsKnot",
    "minmax_fit",
    "minmax_apply",
    "ols_fit",
    "ridge_fit",
    "lasso_fit",
    "enet_fit",
    "lasso_kkt_residual",
    "lambda_max",
    "lambda_grid",
    "lars_path",
    "lars_traps",
    "lars_cv",
    "bolasso",
    "cv_select",
    "fit_penalized",
    "predict",
    "write_model",
    "read_model",
]

logger = logging.getLogger(__name__)

COLLINEAR_TOL = 1e-13
PATH_MAX_STEPS_PER_COLUMN = 50
# a gap to lam closing slower than this is rounding noise; LARS stops at it too,
# or a noise column enters at lam ~ 1e-17 where the active columns fit exactly
PATH_TOL = 1e-12
MODEL_HEADER = "# qppfuse model v1"


class FusionError(Exception):
    """Invalid table, unfittable design, or missing column."""


class ConvergenceError(FusionError):
    """A solver did not converge.

    No fit raises it any more: every LASSO and E-Net fit is read off the
    exact path. The name stays public for callers that catch it.
    """


class ScoreTable:
    """Aligned predictor columns and the AP target for a set of queries.

    Stores one read-only C-ordered n x m matrix; ``columns`` maps each name to a
    view of its column. Tables derived from a checked one are not checked again.
    """

    def __init__(self, query_ids, columns, target):
        n = len(query_ids)
        target = np.asarray(target, dtype=float)
        if target.shape != (n,):
            raise FusionError("target length does not match query_ids")
        if not np.all(np.isfinite(target)):
            raise FusionError("non-finite target values")
        x = np.empty((n, len(columns)))
        for j, (name, values) in enumerate(columns.items()):
            v = np.asarray(values, dtype=float)
            if v.shape != (n,):
                raise FusionError(f"column {name!r} length does not match query_ids")
            if not np.all(np.isfinite(v)):
                raise FusionError(f"non-finite values in column {name!r}")
            x[:, j] = v
        self._store(query_ids, list(columns), x, target)

    def _store(self, query_ids, names, x, target) -> "ScoreTable":
        self.query_ids, self.target = query_ids, target
        # C order fixes the fits' bits: x.sum(axis=0) adds an F-ordered matrix's rows pairwise
        self._x = np.ascontiguousarray(x)
        self._x.flags.writeable = False
        self.columns = MappingProxyType({name: self._x[:, j] for j, name in enumerate(names)})
        return self

    @classmethod
    def _derived(cls, query_ids, names, x, target) -> "ScoreTable":
        return cls.__new__(cls)._store(query_ids, names, x, target)

    @property
    def n_rows(self) -> int:
        return len(self.query_ids)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns.keys())

    def matrix(self) -> np.ndarray:
        """The stored n x m matrix, columns in column_names order; read-only."""
        return self._x

    def subset(self, indices) -> "ScoreTable":
        idx = np.asarray(indices, dtype=int)
        return self._derived([self.query_ids[i] for i in idx], self.column_names,
                             self._x[idx], self.target[idx])

    def with_columns(self, names) -> "ScoreTable":
        pos = {name: j for j, name in enumerate(self.columns)}
        names = list(dict.fromkeys(names))
        return self._derived(list(self.query_ids), names,
                             self._x[:, [pos[name] for name in names]], self.target)

    def write_tsv(self, path) -> None:
        """Wide design-matrix TSV: query_id, predictor columns, AP."""
        write_lines(path, ["query_id\t" + "\t".join(self.columns) + "\tAP"] + [
            f"{qid}\t" + "\t".join(map(repr, row)) + f"\t{y!r}"
            for qid, row, y in zip(self.query_ids, self._x.tolist(), self.target.tolist())])

    @classmethod
    def read_tsv(cls, path) -> "ScoreTable":
        lines = read_lines(path)
        header = next(lines, (1, ""))[1].split("\t")
        if (len(header) < 3 or header[0] != "query_id" or header[-1] != "AP"
                or len(set(header)) != len(header)):
            raise FusionError(f"{path}: expected header 'query_id<TAB>...<TAB>AP' "
                              "with distinct column names")
        qids, rows, seen = [], [], set()
        for lineno, line in lines:
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(header):
                raise FusionError(f"{path}:{lineno}: wrong column count")
            if parts[0] in seen:
                raise FusionError(f"{path}:{lineno}: duplicate query_id {parts[0]!r}")
            seen.add(parts[0])
            qids.append(parts[0])
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise FusionError(f"{path}:{lineno}: non-numeric value") from exc
            if not all(map(math.isfinite, values)):
                name = next(n for n, v in zip(header[1:], values) if not math.isfinite(v))
                raise FusionError(f"{path}:{lineno}: non-finite value in column {name!r}")
            rows.append(values)
        if not rows:
            raise FusionError(f"{path}: no data rows")
        data = np.asarray(rows, dtype=float)
        return cls._derived(qids, header[1:-1], data[:, :-1], data[:, -1].copy())


@dataclass
class RegressionModel:
    """A fitted combiner: intercept, named coefficients, and fit metadata."""

    method: str
    intercept: float
    coefficients: dict[str, float]
    hyperparameters: dict = field(default_factory=dict)
    normalization: dict[str, tuple[float, float]] | None = None

    @property
    def support(self) -> set[str]:
        return {c for c, b in self.coefficients.items() if b != 0.0}


# ---------------------------------------------------------------------------
# normalization

def minmax_fit(table: ScoreTable) -> tuple[dict[str, tuple[float, float]], list[str]]:
    """Per-column train min/max; constant columns are reported separately."""
    params = {name: (float(v.min()), float(v.max())) for name, v in table.columns.items()}
    constant = [name for name, (lo, hi) in params.items() if lo == hi]
    if constant:
        logger.warning("constant columns mapped to 0: %s", ", ".join(constant))
    return params, constant


def minmax_apply(table: ScoreTable, params: dict[str, tuple[float, float]]) -> ScoreTable:
    """Map columns through stored train min/max, clipped to [0, 1]; constant columns become 0."""
    lo, hi = np.array([params[name] for name in table.columns], dtype=float).reshape(-1, 2).T
    x = np.clip((table.matrix() - lo) / np.where(hi == lo, 1.0, hi - lo), 0.0, 1.0)
    x[:, hi == lo] = 0.0
    if np.isnan(x).any():  # inf / inf: the column spans more than the float range
        raise FusionError("min-max scaling overflowed")
    return ScoreTable._derived(list(table.query_ids), table.column_names, x, table.target.copy())


# ---------------------------------------------------------------------------
# dense least-squares fits

def _centered(x: np.ndarray, y: np.ndarray):
    """Centred design and target, and their means.

    A column or target with zero spread centres to exact zeros: its rounded
    mean can differ from the value by one ulp (six rows of 0.4), and the
    ~1e-17 residue would otherwise read as signal to every fit.
    """
    n = len(y)
    # sum / n gives the bits of mean() with half its call overhead, which
    # counts on the small tables that cross-validation centres by thousands
    x_mean = x.sum(axis=0) / n if x.size else np.zeros(x.shape[1])
    y_mean = float(y.sum()) / n if n else math.nan
    xc = x - x_mean
    yc = y - y_mean
    if n:
        flat = (x == x[0]).all(axis=0)
        if flat.any():
            xc[:, flat] = 0.0
        if (y == y[0]).all():
            yc[:] = 0.0
    return xc, yc, x_mean, y_mean


def _as_model(method, table, beta, x_mean, y_mean, **hyper) -> RegressionModel:
    intercept = y_mean - float(x_mean @ beta)
    coefficients = {n: float(b) for n, b in zip(table.column_names, beta)}
    return RegressionModel(method=method, intercept=intercept, coefficients=coefficients, hyperparameters=hyper)


def ols_fit(table: ScoreTable) -> RegressionModel:
    """Least squares; requires n > m, warns and uses the pseudo-inverse on rank deficiency."""
    n, m = table.n_rows, len(table.columns)
    if n <= m:
        raise FusionError(f"need more rows than columns for OLS (n={n}, m={m})")
    xc, yc, x_mean, y_mean = _centered(table.matrix(), table.target)
    if m and np.linalg.matrix_rank(xc) < m:
        logger.warning("rank-deficient design; using the minimum-norm solution")
    beta = np.linalg.lstsq(xc, yc, rcond=None)[0] if m else np.zeros(0)
    return _as_model("OLS", table, beta, x_mean, y_mean)


def _check_lam(lam) -> None:
    if not 0.0 <= lam < math.inf:
        raise FusionError(f"lam must be finite and >= 0, got {lam!r}")


def ridge_fit(table: ScoreTable, lam: float) -> RegressionModel:
    """Ridge on as-given columns; lam=0 reproduces OLS."""
    _check_lam(lam)
    xc, yc, x_mean, y_mean = _centered(table.matrix(), table.target)
    beta = _ridge_beta(xc, yc, xc.T @ xc, xc.T @ yc, lam)
    return _as_model("Ridge", table, beta, x_mean, y_mean, lam=lam)


def _ridge_beta(xc, yc, gram, corr, lam) -> np.ndarray:
    """Solve (gram + lam*I) b = corr for the centred xc, yc; lstsq on xc when singular."""
    try:
        return np.linalg.solve(gram + lam * np.eye(corr.size), corr)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(xc, yc, rcond=None)[0]


def _chol_row(chol, gram, active, j):
    """Row that extends the Cholesky factor of gram[active, active] by column j.

    Returns the off-diagonal entries and the squared pivot, the part of
    gram[j][j] that the active columns do not explain.
    """
    row = []
    for i, k in enumerate(active):
        li = chol[i]
        s = gram[k][j]
        for t in range(i):
            s -= li[t] * row[t]
        row.append(s / li[i])
    return row, gram[j][j] - seq_sum(v * v for v in row)


def _cholesky(gram, active):
    """Lower Cholesky factor of gram[active, active], one row per active column."""
    chol = []
    for i, k in enumerate(active):
        row, pivot = _chol_row(chol, gram, active[:i], k)
        chol.append(row + [math.sqrt(pivot)])
    return chol


def _chol_solve(chol, rhs):
    """x with L L' x = rhs for the lower Cholesky factor L, by forward then back substitution."""
    d = []
    for i, li in enumerate(chol):
        s = rhs[i]
        for t in range(i):
            s -= li[t] * d[t]
        d.append(s / li[i])
    for i in range(len(chol) - 1, -1, -1):
        s = d[i]
        for t in range(i + 1, len(chol)):
            s -= chol[t][i] * d[t]
        d[i] = s / chol[i][i]
    return d


def _lasso_path(gram, corr, stop=0.0, drop=True):
    """Knots of the exact LASSO path on a Gram matrix: (lams, betas).

    LAR with the lasso modification (Efron, Hastie, Johnstone & Tibshirani
    2004, section 3.1): the active coefficients move along
    gram[A, A]^-1 * signs while lam falls, until an inactive column's
    residual correlation reaches lam (it enters), an active coefficient
    reaches zero (it leaves), or lam reaches 0. ``lams`` falls strictly from
    lambda_max to 0, or to the first knot at or below ``stop``, and row k of
    ``betas`` solves the problem at lams[k]; between knots the solution is
    linear in lam. A stopped path is a bit-identical prefix of the full one.

    Where several columns are due at the same lam, one event is handled at
    a time, least column index first: a tied column enters if the others
    would let its correlation outgrow lam, and a zero coefficient that would
    move against its sign leaves again (Murty's least-index principal
    pivoting, which ends for a positive definite active Gram). A column
    whose gap to lam closes at a rate below PATH_TOL, rounding noise, keeps
    that gap and never enters; a step too small to change lam moves no
    coefficient. An entering column whose Gram pivot against the active set
    is at most COLLINEAR_TOL of its squared norm is collinear with the
    active set; it is passed over until a coefficient next leaves. Runs on
    Python floats: at a few dozen columns that beats small numpy calls.

    With ``drop=False`` no coefficient leaves: plain LAR, which matches the
    lasso path up to the lasso's first drop (Efron et al. 2004, Theorem 1).
    """
    m = corr.size
    g = gram.tolist()
    c = corr.tolist()
    beta = [0.0] * m
    r = list(c)  # residual correlations c - G beta
    lam = max((abs(v) for v in r), default=0.0)
    lams, betas = [lam], [list(beta)]
    active, signs, chol, passed_over = [], [], [], set()
    steps = 0
    while lam > stop:
        steps += 1
        if steps > PATH_MAX_STEPS_PER_COLUMN * (m + 1):
            # a guard against cycling in floating point, not an iteration budget
            raise FusionError(f"LASSO path did not reach lam = {stop:g} in {steps - 1} steps")
        d = _chol_solve(chol, signs)  # gram[A, A]^-1 signs
        # the next event: (step, column) least, the end of the path losing ties
        gamma, pick, sign, leaving = lam, None, 0.0, False
        for j in range(m):
            if j in active or j in passed_over:
                continue
            gj = g[j]
            a = 0.0
            for i, k in enumerate(active):
                a += gj[k] * d[i]
            # s*(r_j - gamma*a) meets lam - gamma where the gap closes at rate 1 - s*a
            if 1.0 - a > PATH_TOL:
                step = max(lam - r[j], 0.0) / (1.0 - a)
                if step < gamma:
                    gamma, pick, sign = step, j, 1.0
            if 1.0 + a > PATH_TOL:
                step = max(lam + r[j], 0.0) / (1.0 + a)
                if step < gamma:
                    gamma, pick, sign = step, j, -1.0
        for i, k in enumerate(active if drop else ()):
            rate = -signs[i] * d[i]  # how fast beta_k falls towards zero
            if rate > 0.0:
                step = max(signs[i] * beta[k], 0.0) / rate
                if step < gamma or (step == gamma and pick is not None and k < pick):
                    gamma, pick, leaving = step, k, True
        moved = (0.0 if pick is None else lam - gamma) < lam
        if moved:
            for i, k in enumerate(active):
                beta[k] += gamma * d[i]
            lam = 0.0 if pick is None else lam - gamma
        if leaving:
            beta[pick] = 0.0
            i = active.index(pick)
            del active[i], signs[i]
            chol = _cholesky(g, active)
            passed_over.clear()
        elif pick is not None:
            row, pivot = _chol_row(chol, g, active, pick)
            if pivot <= COLLINEAR_TOL * g[pick][pick]:
                passed_over.add(pick)
            else:
                chol.append(row + [math.sqrt(pivot)])
                active.append(pick)
                signs.append(sign)
        if moved or leaving:
            for j in range(m):
                gj = g[j]
                s = c[j]
                for k in active:
                    s -= gj[k] * beta[k]
                r[j] = s
            if moved:
                lams.append(lam)
                betas.append(list(beta))
            else:
                betas[-1] = list(beta)
    return np.array(lams), np.array(betas)


def _lasso_at(lams, betas, grid) -> np.ndarray:
    """Path coefficients at each lam of ``grid`` (rows), by linear interpolation.

    A lam above lams[0] gets the all-zero first knot, one below the last
    knot gets the last knot.
    """
    grid = np.asarray(grid, dtype=float)
    if lams.size == 1:
        return np.repeat(betas, grid.size, axis=0)
    up_lams, up_betas = lams[::-1], betas[::-1]  # ascending lam
    # min(max(.)) is np.clip's rule at a fraction of its call cost on tiny arrays
    hi = np.minimum(np.maximum(np.searchsorted(up_lams, grid), 1), lams.size - 1)
    lo = hi - 1
    t = np.minimum(np.maximum((grid - up_lams[lo]) / (up_lams[hi] - up_lams[lo]), 0.0), 1.0)
    return up_betas[lo] + t[:, None] * (up_betas[hi] - up_betas[lo])


def _enet_beta(gram, corr, lam, alpha) -> np.ndarray:
    """E-Net coefficients: the LASSO path on gram + l2*I, stopped and read at l1.

    l1 = lam*alpha and l2 = lam*(1-alpha); at alpha=1 this is the LASSO
    path on gram itself, at alpha=0 the ridge solution.
    """
    l1, l2 = lam * alpha, lam * (1.0 - alpha)
    g = gram + l2 * np.eye(corr.size) if l2 else gram
    return _lasso_at(*_lasso_path(g, corr, stop=l1), [l1])[0]


def _enet_warm_step(g, c, active, signs, l1, l2):
    """E-Net coefficients (a list) if the solution keeps ``active`` and ``signs``, else None.

    ``g`` and ``c`` are the Gram matrix and X'y as Python lists. Solves
    (G_AA + l2*I) b_A = c_A - l1*s by Cholesky and accepts b only when every
    sign holds strictly and every inactive column has |c_j - G_jA b_A| <= l1:
    then b meets the E-Net's KKT conditions (Zou & Hastie 2005) and is the
    solution. A pivot at most COLLINEAR_TOL of its diagonal also rejects.
    """
    shifted = [[g[i][k] for k in active] for i in active]
    for i, row in enumerate(shifted):
        row[i] += l2
    chol = []
    for i in range(len(active)):
        row, pivot = _chol_row(chol, shifted, range(i), i)
        if pivot <= COLLINEAR_TOL * shifted[i][i]:
            return None
        chol.append(row + [math.sqrt(pivot)])
    b = _chol_solve(chol, [c[k] - l1 * s for k, s in zip(active, signs)])
    if any(v * s <= 0.0 for v, s in zip(b, signs)):
        return None
    beta = [0.0] * len(c)
    for k, v in zip(active, b):
        beta[k] = v
    for j, gj in enumerate(g):
        if beta[j] == 0.0:
            r = c[j]
            for k, v in zip(active, b):
                r -= gj[k] * v
            if abs(r) > l1:
                return None
    return beta


def _enet_grid_betas(gram, corr, grid, alpha) -> np.ndarray:
    """E-Net coefficients at each lam of a descending grid (rows), warm-started down it.

    The first lam reads the exact path (_enet_beta). Each later lam tries
    _enet_warm_step with the previous solution's active set and signs, and
    reads the path only when that step is rejected.
    """
    g, c = gram.tolist(), corr.tolist()
    rows, active, signs = [], None, None
    for lam in grid.tolist():
        beta = None
        if active is not None:
            beta = _enet_warm_step(g, c, active, signs, lam * alpha, lam * (1.0 - alpha))
        if beta is None:
            beta = _enet_beta(gram, corr, lam, alpha).tolist()
            active = [j for j, v in enumerate(beta) if v != 0.0]
            signs = [math.copysign(1.0, beta[j]) for j in active]
        rows.append(beta)
    return np.array(rows)


def enet_fit(table: ScoreTable, lam: float, alpha: float) -> RegressionModel:
    """Elastic net; alpha=1 is LASSO, alpha=0 is Ridge.

    Every alpha reads the exact LASSO path of the ridge-augmented Gram
    matrix at lam*alpha, so no fit can fail to converge.
    """
    _check_lam(lam)
    if not 0.0 <= alpha <= 1.0:
        raise FusionError("alpha must be in [0, 1]")
    xc, yc, x_mean, y_mean = _centered(table.matrix(), table.target)
    beta = _enet_beta(xc.T @ xc, xc.T @ yc, lam, alpha)
    return _as_model("E-Net", table, beta, x_mean, y_mean, lam=lam, alpha=alpha)


def lasso_fit(table: ScoreTable, lam: float) -> RegressionModel:
    model = enet_fit(table, lam, alpha=1.0)
    model.method = "LASSO"
    model.hyperparameters = {"lam": lam}
    return model


def lasso_kkt_residual(table: ScoreTable, model: RegressionModel, lam: float, alpha: float = 1.0) -> float:
    """Largest violation of the stationarity conditions at the fitted point.

    For active columns x_j'r - lam*(1-alpha)*b_j must equal lam*alpha*sign(b_j);
    for inactive columns its magnitude must not exceed lam*alpha.
    """
    residual = table.target - predict(model, table)
    l1, l2 = lam * alpha, lam * (1.0 - alpha)
    worst = 0.0
    for name, column in table.columns.items():
        g = float(column @ residual) - l2 * model.coefficients[name]
        if model.coefficients[name] != 0.0:
            worst = max(worst, abs(g - math.copysign(l1, model.coefficients[name])))
        else:
            worst = max(worst, max(0.0, abs(g) - l1))
    return worst


def lambda_max(table: ScoreTable) -> float:
    """Smallest lam for which the LASSO solution is all-zero."""
    xc, yc, _, _ = _centered(table.matrix(), table.target)
    return float(np.abs(xc.T @ yc).max(initial=0.0))


def lambda_grid(table: ScoreTable, num: int = 50, ratio: float = 1e-4) -> np.ndarray:
    """Log-spaced grid from ratio*lambda_max up to lambda_max, descending."""
    if not 0.0 < ratio < 1.0:
        raise FusionError(f"ratio must be in (0, 1), got {ratio!r}")
    lam_hi = lambda_max(table)
    if lam_hi <= 0.0:
        raise FusionError("lambda_max is zero; the target is constant or orthogonal")
    return np.geomspace(lam_hi, ratio * lam_hi, num=num)


# ---------------------------------------------------------------------------
# least-angle regression

class LarsKnot(NamedTuple):
    column: str
    coefficients: dict[str, float]
    intercept: float


def _lars(x: np.ndarray, y: np.ndarray):
    """LARS on a design matrix: (entered, betas, x_mean, y_mean, gram); logs nothing.

    The LASSO path engine with its drop rule off, on columns centred and
    scaled to unit L2 norm, stopped once the residual correlation falls to
    PATH_TOL. ``entered`` holds each knot's entering column index; row k of
    the (m+1) x m ``betas`` is the k-th knot on the original scale, row 0 is
    zeros and rows past the end repeat the last knot. ``gram`` is standardized.
    """
    xc, yc, x_mean, y_mean = _centered(x, y)
    norms = np.sqrt((xc**2).sum(axis=0))
    scale = np.where(norms > 0, norms, 1.0)  # a constant column stays zero
    xs = xc / scale
    gram = xs.T @ xs
    _, betas_s = _lasso_path(gram, xs.T @ yc, stop=PATH_TOL, drop=False)
    path = betas_s / scale
    entered, rows = [], [0]
    for k, beta_s in enumerate(betas_s[1:], start=1):
        new = [j for j in np.flatnonzero(beta_s).tolist() if j not in entered]
        if not new:  # a passed-over collinear column ended the last segment here
            rows[-1] = k
        entered += new
        rows += [k] * len(new)
    rows += [rows[-1]] * (x.shape[1] + 1 - len(rows))
    return entered, path[rows], x_mean, y_mean, gram


def lars_path(table: ScoreTable) -> list[LarsKnot]:
    """Equiangular path (_lars); one knot per entering column, final knot = OLS.

    Constant or exactly collinear columns never enter (a warning is logged,
    ties break by column order). Once n - 1 columns are active the centred
    design has no dimension left; the rest never enter and are logged at
    INFO, since that is the shape of the data, not a defect.
    """
    names = table.column_names
    n, m = table.n_rows, len(names)
    entered, betas, x_mean, y_mean, gram = _lars(table.matrix(), table.target)
    usable = np.diag(gram) > 0
    if not np.all(usable):
        bad = [names[j] for j in range(m) if not usable[j]]
        logger.warning("constant columns never enter the path: %s", ", ".join(bad))
    knots = [LarsKnot(names[j], dict(zip(names, beta.tolist())), y_mean - float(x_mean @ beta))
             for j, beta in zip(entered, betas[1:])]
    never = [j for j in range(m) if usable[j] and j not in entered]
    if entered and never and len(entered) >= n - 1:
        logger.info("centred design exhausted by %d columns; never entered: %s",
                    len(entered), ", ".join(names[j] for j in never))
    elif entered and never:
        g = gram.tolist()
        chol = _cholesky(g, entered)  # unit-norm columns: a pivot is a squared residual
        collinear = [names[j] for j in never if _chol_row(chol, g, entered, j)[1] <= COLLINEAR_TOL]
        if collinear:
            logger.warning("collinear columns never entered (ties break "
                           "by column order): %s", ", ".join(collinear))
        others = [names[j] for j in never if names[j] not in collinear]
        if others:
            logger.info("columns uncorrelated with the residual never "
                        "entered: %s", ", ".join(others))
    return knots


def _ols_on(table: ScoreTable, names, method: str, **hyper) -> RegressionModel:
    model = (ols_fit(table.with_columns(names)) if names
             else RegressionModel("OLS", float(table.target.mean()), {}))
    full = {n: model.coefficients.get(n, 0.0) for n in table.column_names}
    return RegressionModel(method=method, intercept=model.intercept, coefficients=full, hyperparameters=hyper)


def lars_traps(table: ScoreTable, n_traps: int | None = None, seed: int = 0) -> RegressionModel:
    """LARS with random probe columns; OLS on the columns that entered before any probe.

    The probes follow the table's columns and are told apart by position,
    not name. A probe entering first yields a flagged intercept-only model.
    """
    names = table.column_names
    m = len(names)
    n_traps = m if n_traps is None else n_traps
    if n_traps < 1:
        raise FusionError("n_traps must be >= 1")
    traps = np.random.default_rng(seed).standard_normal((table.n_rows, n_traps))
    entered = _lars(np.hstack([table.matrix(), traps]), table.target)[0]
    first_probe = next((i for i, j in enumerate(entered) if j >= m), len(entered))
    selected = [names[j] for j in entered[:first_probe]]
    hyper = {"n_traps": n_traps, "seed": seed, "trap_entered_first": not selected}
    if not selected:
        logger.info("a probe column entered first; returning an intercept-only model")
    return _ols_on(table, selected, "LARS-Traps", **hyper)


def lars_cv(table: ScoreTable, k_folds: int = 5, seed: int = 0) -> RegressionModel:
    """Path-prefix length chosen by k-fold CV (ties favor the shorter prefix).

    Each fold's m+1 candidate prefixes are the rows of _lars's coefficient
    matrix on a slice of the table's one matrix; the refit reads the chosen
    row of _lars on the whole matrix. Nothing logs.
    """
    x, y = table.matrix(), table.target
    mse = np.zeros(x.shape[1] + 1)
    for val_idx, train_idx in _make_folds(table.n_rows, k_folds, seed):
        _, betas, x_mean, y_mean, _ = _lars(x[train_idx], y[train_idx])
        mse += _fold_mse(betas, x_mean, y_mean, x[val_idx], y[val_idx])
    best = int(np.argmin(mse))  # argmin takes the first = shortest prefix on ties
    entered, betas, x_mean, y_mean, _ = _lars(x, y)
    steps = min(best, len(entered))
    return _as_model("LARS-CV", table, betas[steps], x_mean, y_mean,
                     n_steps=steps, k_folds=k_folds, seed=seed)


# ---------------------------------------------------------------------------
# cross-validation and bootstrap selection

def _make_folds(n: int, k_folds: int, seed: int):
    """Seeded partition into k folds; yields (val_idx, train_idx) pairs."""
    if k_folds < 2:
        raise FusionError("k_folds must be >= 2")
    if n // k_folds < 2:
        raise FusionError(f"folds of {n} rows into {k_folds} would have fewer than 2 rows")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k_folds)
    return [(np.sort(val_idx), np.sort(np.concatenate(folds[:i] + folds[i + 1:])))
            for i, val_idx in enumerate(folds)]


def _fold_mse(betas, x_mean, y_mean, x_val, y_val) -> np.ndarray:
    """Validation MSE of each row of ``betas``, fitted on a train set with these means."""
    y_hat = (y_mean - betas @ x_mean) + x_val @ betas.T
    # np.mean's reduction and division without its call overhead
    return ((y_hat - y_val[:, None]) ** 2).sum(axis=0) / len(y_val)


def fit_penalized(table: ScoreTable, method: str, lam: float, alpha: float = 0.5) -> RegressionModel:
    """Fit a CV method ("lasso", "ridge" or "enet") at one lam; alpha is E-Net's mix."""
    if method == "lasso":
        return lasso_fit(table, lam)
    if method == "ridge":
        return ridge_fit(table, lam)
    if method == "enet":
        return enet_fit(table, lam, alpha)
    raise FusionError(f"unknown CV method {method!r}")


def cv_select(table: ScoreTable, method: str, lam_grid=None, k_folds: int = 5,
              seed: int = 0, alpha: float = 0.5):
    """Pick lam by mean validation MSE over seeded folds; ties favor larger lam.

    Returns (best_lam, model refit on the full table). Each fold slices the
    table's one matrix and is centred once. Ridge solves once per grid lam;
    LASSO, and E-Net at alpha=1, read one exact path per fold at every grid
    lam. E-Net at any other alpha walks the grid down from the largest lam,
    warm-starting each lam from the previous one's active set and signs; it
    reads the path at the first lam and wherever the warm step is rejected
    (its ridge part changes the Gram matrix with lam, so one path cannot
    serve the grid). Every method's coefficients for the whole grid are
    scored in one step, and the refit at the chosen lam reads the path.
    """
    if method not in ("lasso", "ridge", "enet"):
        raise FusionError(f"unknown CV method {method!r}")
    grid = lambda_grid(table) if lam_grid is None else np.asarray(lam_grid, dtype=float)
    if grid.ndim != 1:
        raise FusionError(f"lam_grid must be a 1-d sequence of lambdas, got shape {grid.shape}")
    if grid.size == 0:
        raise FusionError("empty lambda grid")
    for lam in grid.tolist():
        _check_lam(lam)
    grid = np.sort(grid)[::-1]
    folds = _make_folds(table.n_rows, k_folds, seed)
    fold_alpha = 1.0 if method == "lasso" else alpha
    x, y = table.matrix(), table.target
    mean_mse = np.zeros(grid.size)
    for val_idx, train_idx in folds:
        xc, yc, x_mean, y_mean = _centered(x[train_idx], y[train_idx])
        gram, corr = xc.T @ xc, xc.T @ yc
        if method == "ridge":
            betas = np.array([_ridge_beta(xc, yc, gram, corr, lam) for lam in grid.tolist()])
        elif fold_alpha == 1.0:
            betas = _lasso_at(*_lasso_path(gram, corr), grid)
        else:
            betas = _enet_grid_betas(gram, corr, grid, fold_alpha)
        mean_mse += _fold_mse(betas, x_mean, y_mean, x[val_idx], y[val_idx])
    best_idx = int(np.argmin(mean_mse))  # first index = largest lam on ties
    best_lam = float(grid[best_idx])
    return best_lam, fit_penalized(table, method, best_lam, alpha)


def bolasso(table: ScoreTable, b: int = 100, threshold: float = 1.0,
            k_folds: int = 5, lam_grid=None, seed: int = 0) -> RegressionModel:
    """Bootstrap LASSO support selection followed by an OLS refit.

    Each of the ``b`` bootstrap resamples gets its own CV-selected lam; a
    column is kept when it is active in at least threshold*b supports. A
    resample with a flat target (lambda_max == 0) counts as an empty support
    and stays in the denominator b. The loop stops once every column is kept
    or out of reach, so ``support_counts`` are out of the ``resamples`` that
    ran; each resample has its own seed streams, so the model is the full-b one.
    """
    if b < 2:
        raise FusionError("need at least 2 bootstrap samples")
    if not 0.0 < threshold <= 1.0:
        raise FusionError("threshold must be in (0, 1]")
    n = table.n_rows
    counts = {name: 0 for name in table.column_names}
    needed = threshold * b - 1e-9
    resamples = 0
    for i in range(b):
        if all(c >= needed or c + b - i < needed for c in counts.values()):
            break  # no remaining resample can change the kept set
        resamples = i + 1
        rng = np.random.default_rng(derive_seed(seed, "bootstrap", i))
        sample = table.subset(rng.integers(0, n, size=n))
        if lambda_max(sample) <= 0.0:
            continue  # resampled target is flat; the support is empty
        _, model = cv_select(sample, "lasso", lam_grid=lam_grid, k_folds=k_folds,
                             seed=derive_seed(seed, "cv", i))
        for name in model.support:
            counts[name] += 1
    kept = [name for name in table.column_names if counts[name] >= needed]
    hyper = {"b": b, "threshold": threshold, "seed": seed,
             "support_counts": dict(counts), "resamples": resamples}
    return _ols_on(table, kept, "BOLASSO", **hyper)


# ---------------------------------------------------------------------------
# prediction and model I/O

def predict(model: RegressionModel, table: ScoreTable, clamp: bool = False) -> np.ndarray:
    """intercept + sum of coefficient * column, optionally clamped to [0, 1].

    The model's stored normalization parameters, when present, are applied
    to the table first.
    """
    missing = [c for c in model.coefficients if c not in table.columns]
    if missing:
        raise FusionError(f"table lacks model columns: {', '.join(missing)}")
    if model.normalization is not None:
        table = minmax_apply(table.with_columns(list(model.coefficients)), model.normalization)
    y_hat = np.full(table.n_rows, model.intercept)
    for name, beta in model.coefficients.items():
        if beta != 0.0:
            y_hat = y_hat + beta * table.columns[name]
    return np.clip(y_hat, 0.0, 1.0) if clamp else y_hat


def write_model(model: RegressionModel, path) -> None:
    """Plain-text model dump: method, intercept, coefficients, hyperparameters."""
    lines = [MODEL_HEADER, f"method\t{model.method}", f"intercept\t{model.intercept!r}"]
    lines += (f"coef\t{name}\t{beta!r}" for name, beta in model.coefficients.items())
    lines += (f"hyper\t{key}\t{value!r}" for key, value in model.hyperparameters.items())
    lines += (f"norm\t{name}\t{lo!r}\t{hi!r}"
              for name, (lo, hi) in (model.normalization or {}).items())
    write_lines(path, lines)


def _finite(text: str) -> float:
    """float(text); NaN and infinities, which no fit produces, raise ValueError."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text!r}")
    return value


def read_model(path) -> RegressionModel:
    """Load a :func:`write_model` dump; a bad header or a bad or repeated record raises FusionError."""
    method, intercept = None, 0.0
    coefficients: dict[str, float] = {}
    hyper: dict = {}
    norm: dict[str, tuple[float, float]] = {}
    seen = set()  # the kinds read, and (kind, name) for coef, hyper and norm records
    lines = read_lines(path)
    if next(lines, (1, None))[1] != MODEL_HEADER:
        raise FusionError(f"{path}: not a model dump (expected header {MODEL_HEADER!r})")
    for lineno, line in lines:
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split("\t")
        try:
            key = (kind, fields[0]) if kind in ("coef", "hyper", "norm") and fields else kind
            if key in seen:
                raise ValueError("repeated record" if key == kind else f"repeated name {fields[0]!r}")
            seen.add(key)
            if kind == "method":
                (method,) = fields
            elif kind == "intercept":
                (intercept,) = map(_finite, fields)
            elif kind == "coef":
                name, value = fields
                coefficients[name] = _finite(value)
            elif kind == "hyper":
                key, value = fields
                try:
                    hyper[key] = ast.literal_eval(value)
                except (ValueError, SyntaxError, TypeError):
                    hyper[key] = value
            elif kind == "norm":
                name, lo, hi = fields
                lo, hi = _finite(lo), _finite(hi)
                if lo > hi:
                    raise ValueError(f"lo {lo!r} > hi {hi!r}")
                norm[name] = (lo, hi)
            else:
                raise FusionError(f"{path}:{lineno}: unknown record {kind!r}")
        except ValueError as exc:
            raise FusionError(f"{path}:{lineno}: malformed {kind!r} record: {exc}") from exc
    if method is None:
        raise FusionError(f"{path}: missing method line")
    if norm and (uncovered := [name for name in coefficients if name not in norm]):
        raise FusionError(f"{path}: no norm record for coefficients: {', '.join(uncovered)}")
    return RegressionModel(method=method, intercept=intercept, coefficients=coefficients,
                           hyperparameters=hyper, normalization=norm or None)
