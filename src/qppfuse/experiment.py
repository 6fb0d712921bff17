"""Experiment orchestration: configs, seeded splits, and end-to-end runs.

The pipeline indexes the corpus, retrieves, computes AP targets and
predictor columns (or reads them from a ``design`` table), then for every
train/test split normalizes on train, fits each combiner (tuning on train
only), predicts the test queries, and evaluates. Metrics are averaged over
splits (undefined per-split values are skipped in the average); the
pairwise predictor-correlation matrix and a hypothesis diagnostic summarize
predictor relationships. Every random choice derives from the root seed,
so repeated runs are byte-identical.
"""

import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import fusion
from .corpus import (
    TokenizerConfig,
    build_index,
    ingest,
    load_lexicon,
    load_qrels,
    load_queries,
)
from .evaluation import (
    REPORT_COLUMNS,
    CorrMatrix,
    ReportRow,
    UndefinedMetricError,
    format_metric,
    paired_t_one_sided,
    predictor_correlation_matrix,
    report_row,
    single_fit_predictions,
    write_corr_matrix_tsv,
    write_report_tsv,
    write_split_report_tsv,
)
from .fusion import ScoreTable, minmax_apply, minmax_fit, predict
from .post_retrieval import POST_PREDICTORS, compute_post_scores
from .pre_retrieval import PRE_PREDICTORS, compute_pre_scores
from .retrieval import average_precision, retrieve, write_run_file
from .seeding import derive_seed, read_lines, write_lines

__all__ = [
    "HarnessError",
    "SplitPlan",
    "ExperimentConfig",
    "ExperimentResult",
    "HypothesisReport",
    "COMBINERS",
    "split_random_halves",
    "split_leave_one_out",
    "split_fixed",
    "import_external_scores",
    "load_corpus",
    "post_scores",
    "build_score_table",
    "fit_combiner",
    "evaluate_table",
    "load_design",
    "run_experiment",
    "hypothesis_report",
]

logger = logging.getLogger(__name__)

COMBINERS = ("OLS", "LASSO-CV", "Ridge-CV", "LARS-Traps", "LARS-CV", "BOLASSO", "E-Net")


class HarnessError(Exception):
    """Configuration or pipeline-stage failure."""


# ---------------------------------------------------------------------------
# split plans

@dataclass(frozen=True)
class SplitPlan:
    protocol: str
    seed: int
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def validate(self, query_ids) -> None:
        """Every pair must partition the query set exactly, naming each query once."""
        universe = set(query_ids)
        if len(universe) != len(list(query_ids)):
            raise HarnessError("duplicate query ids")
        for i, (train, test) in enumerate(self.pairs):
            tr, te = set(train), set(test)
            if len(tr) != len(train) or len(te) != len(test):
                raise HarnessError(f"split {i}: a query id is repeated in train or test")
            if tr & te:
                raise HarnessError(f"split {i}: train and test overlap")
            if tr | te != universe:
                raise HarnessError(f"split {i}: not a partition of the query set")


def split_random_halves(query_ids, repeats: int = 30, seed: int = 0) -> SplitPlan:
    """``repeats`` independent seeded shuffles; the first ceil(n/2) ids train."""
    ids = list(query_ids)
    n = len(ids)
    if n < 4:
        raise HarnessError(f"need at least 4 queries for half splits, got {n}")
    if repeats < 1:
        raise HarnessError(f"split.repeats must be >= 1, got {repeats}")
    n_train = math.ceil(n / 2)
    pairs = []
    for r in range(repeats):
        rng = np.random.default_rng(derive_seed(seed, "halves", r))
        perm = rng.permutation(n)
        train = tuple(ids[i] for i in perm[:n_train])
        test = tuple(ids[i] for i in perm[n_train:])
        pairs.append((train, test))
    return SplitPlan("halves", seed, tuple(pairs))


def split_leave_one_out(query_ids) -> SplitPlan:
    ids = list(query_ids)
    if len(ids) < 2:
        raise HarnessError(f"need at least 2 queries, got {len(ids)}")
    pairs = tuple(
        (tuple(q for q in ids if q != held_out), (held_out,))
        for held_out in ids
    )
    return SplitPlan("loo", 0, pairs)


def split_fixed(query_ids, train_ids, test_ids) -> SplitPlan:
    plan = SplitPlan("fixed", 0, ((tuple(train_ids), tuple(test_ids)),))
    plan.validate(query_ids)
    return plan


# ---------------------------------------------------------------------------
# configuration

def _read_id_file(path) -> list[str]:
    return [line.strip() for _, line in read_lines(path) if line.strip()]


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_pairs(raw: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in (p.strip() for p in raw.split(",") if p.strip()):
        if "=" not in item:
            raise ValueError(f"expected NAME=path, got {item!r}")
        name, path = item.split("=", 1)
        pairs.append((name.strip(), path.strip()))
    return tuple(pairs)


class _Kind(NamedTuple):
    """How a config value is read from and written back to text."""

    name: str
    parse: Callable[[str], object]
    dump: Callable[[object], str] = str
    names: tuple[str, ...] = ()  # a namelist's "all": the names it may hold


_BOOL = _Kind("bool", _parse_bool, lambda v: "true" if v else "false")
_INT = _Kind("int", int)
_FLOAT = _Kind("float", float)
_STR = _Kind("str", str)
_PATH = _Kind("path", str)  # relative values resolve against the config file's directory
_PAIRS = _Kind("pairs", _parse_pairs, lambda v: ",".join(f"{n}={p}" for n, p in v))


def _namelist(everything: tuple[str, ...]) -> _Kind:
    def parse(raw: str) -> tuple[str, ...]:
        if raw.lower() == "all":
            return everything
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    return _Kind("namelist", parse, ",".join, everything)


def _rule(holds: Callable[[object], bool], text: str):
    """A per-key check: None when the value is valid, else what is wrong."""
    return lambda v: None if holds(v) else f"must be {text}, got {v!r}"


def _one_of(*choices: str):
    return _rule(lambda v: v in choices, " | ".join(choices))


def _at_least(lo: int):
    return _rule(lambda v: v >= lo, f">= {lo}")


_POSITIVE = _rule(lambda v: 0 < v < math.inf, "> 0 and finite")
_FRACTION = _rule(lambda v: 0 < v <= 1, "in (0, 1]")
_CORRELATION = _rule(lambda v: -1 <= v <= 1, "in [-1, 1]")


def _existing(value):
    paths = [value] if isinstance(value, str) else [p for _, p in value]  # a path or pairs
    missing = [p for p in paths if p and not Path(p).exists()]
    return f"not found: {', '.join(missing)}" if missing else None


def _key(key: str, kind: _Kind, default, check=None):
    return field(default=default, metadata={"key": key, "kind": kind, "check": check})


def _problem(spec, value) -> str | None:
    """What is wrong with ``value`` for the key declared by ``spec``, if anything."""
    known = spec.metadata["kind"].names
    unknown = [n for n in value if n not in known] if known else []
    if unknown:
        return f"has unknown names: {', '.join(unknown)}"
    check = spec.metadata["check"]
    return check(value) if check else None


@dataclass
class ExperimentConfig:
    """All knobs for one experiment: each field declares its config key,
    kind, default and check once; parsing, path resolution, validation and
    the ``config_used.txt`` dump are loops over these declarations."""

    docs: str = _key("corpus.docs", _PATH, "", _existing)
    corpus_format: str = _key("corpus.format", _STR, "jsonl", _one_of("jsonl", "trec", "tsv"))
    queries: str = _key("corpus.queries", _PATH, "", _existing)
    qrels: str = _key("corpus.qrels", _PATH, "", _existing)
    lexicon: str = _key("corpus.lexicon", _PATH, "", _existing)
    design: str = _key("design", _PATH, "", _existing)

    lowercase: bool = _key("tokenize.lowercase", _BOOL, True)
    split_non_alnum: bool = _key("tokenize.split_non_alnum", _BOOL, True)
    stopwords_path: str = _key("tokenize.stopwords", _PATH, "", _existing)
    stem: bool = _key("tokenize.stem", _BOOL, False)

    mu: float = _key("retrieval.mu", _FLOAT, 1000.0, _POSITIVE)
    k: int = _key("retrieval.k", _INT, 1000, _at_least(1))

    distinct_terms: bool = _key("preret.distinct_terms", _BOOL, True)
    k_fb: int = _key("postret.k_fb", _INT, 100, _at_least(1))
    wig_k: int = _key("postret.wig_k", _INT, 5, _at_least(1))
    nqc_k: int = _key("postret.nqc_k", _INT, 100, _at_least(1))
    uef_m: int = _key("postret.uef_m", _INT, 100, _at_least(1))
    uef_sim: str = _key("postret.uef_sim", _STR, "pearson", _one_of("pearson", "kendall"))

    pre_predictors: tuple[str, ...] = _key("predictors.pre", _namelist(PRE_PREDICTORS),
                                           PRE_PREDICTORS)
    post_predictors: tuple[str, ...] = _key("predictors.post", _namelist(POST_PREDICTORS),
                                            POST_PREDICTORS)
    external_scores: tuple[tuple[str, str], ...] = _key("external.scores", _PAIRS, (), _existing)

    combiners: tuple[str, ...] = _key("combiners", _namelist(COMBINERS), COMBINERS)
    k_folds: int = _key("fusion.k_folds", _INT, 5, _at_least(2))
    grid_size: int = _key("fusion.grid_size", _INT, 50, _at_least(1))
    grid_ratio: float = _key("fusion.grid_ratio", _FLOAT, 1e-4,
                              _rule(lambda v: 0 < v < 1, "in (0, 1)"))
    enet_alpha: float = _key("fusion.enet_alpha", _FLOAT, 0.5,
                             _rule(lambda v: 0 <= v <= 1, "in [0, 1]"))
    bolasso_b: int = _key("fusion.bolasso_b", _INT, 100, _at_least(2))
    bolasso_threshold: float = _key("fusion.bolasso_threshold", _FLOAT, 1.0, _FRACTION)
    n_traps: int = _key("fusion.n_traps", _INT, 0, _at_least(0))  # 0 means one trap per predictor column
    clamp_predictions: bool = _key("fusion.clamp_predictions", _BOOL, False)

    protocol: str = _key("split.protocol", _STR, "halves", _one_of("halves", "loo", "fixed"))
    repeats: int = _key("split.repeats", _INT, 30, _at_least(1))
    train_file: str = _key("split.train_file", _PATH, "", _existing)
    test_file: str = _key("split.test_file", _PATH, "", _existing)
    tuning_fraction: float = _key("split.tuning_fraction", _FLOAT, 0.1, _FRACTION)

    corr_metric: str = _key("corr.metric", _STR, "pearson", _one_of("pearson", "kendall"))
    h1_mean: float = _key("hypothesis.h1_mean", _FLOAT, 0.5, _CORRELATION)
    h2_mean: float = _key("hypothesis.h2_mean", _FLOAT, 0.3, _CORRELATION)
    h3_frac: float = _key("hypothesis.h3_frac", _FLOAT, 0.1, _FRACTION)
    h3_rho: float = _key("hypothesis.h3_rho", _FLOAT, -0.1, _CORRELATION)

    seed: int = _key("seed", _INT, 42)
    out: str = _key("out", _PATH, "")

    @classmethod
    def from_file(cls, path, base_dir=None) -> "ExperimentConfig":
        """Parse a flat dotted-key config file; unknown keys are an error.

        Relative paths resolve against the config file's directory. Each
        value is parsed and checked at its line.
        """
        path = Path(path)
        base = Path(base_dir) if base_dir is not None else path.parent
        specs = {spec.metadata["key"]: spec for spec in fields(cls)}
        config = cls()
        assigned = set()
        for lineno, line in read_lines(path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise HarnessError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in specs:
                raise HarnessError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in assigned:
                raise HarnessError(f"{path}:{lineno}: config key {key} is set twice")
            assigned.add(key)
            spec = specs[key]
            kind = spec.metadata["kind"]
            try:
                value = kind.parse(raw)
            except ValueError as exc:
                raise HarnessError(f"{path}:{lineno}: config key {key}: {exc}") from exc
            if kind is _PATH and value:
                value = str(base / value)
            elif kind is _PAIRS:
                value = tuple((name, str(base / p)) for name, p in value)
            problem = _problem(spec, value)
            if problem:
                raise HarnessError(f"{path}:{lineno}: config key {key}: {key} {problem}")
            setattr(config, spec.name, value)
        config.validate()
        return config

    def validate(self) -> None:
        """Unique predictor names, every per-key check, then the fixed-protocol rule."""
        names = list(self.pre_predictors) + list(self.post_predictors) + [
            n for n, _ in self.external_scores
        ]
        if len(names) != len(set(names)):
            raise HarnessError("predictor names must be unique")
        for spec in fields(self):
            problem = _problem(spec, getattr(self, spec.name))
            if problem:
                key = spec.metadata["key"]
                raise HarnessError(f"config key {key}: {key} {problem}")
        if self.protocol == "fixed" and not (self.train_file and self.test_file):
            raise HarnessError("fixed protocol needs split.train_file and split.test_file")

    def tokenizer_config(self) -> TokenizerConfig:
        stopwords = frozenset()
        if self.stopwords_path:
            stopwords = frozenset(_read_id_file(self.stopwords_path))
        return TokenizerConfig(
            lowercase=self.lowercase,
            split_non_alnum=self.split_non_alnum,
            stopwords=stopwords,
            stem=self.stem,
        )

    def resolved_items(self) -> list[tuple[str, str]]:
        """(key, value) pairs for the config dump, in declaration order."""
        return [(spec.metadata["key"], spec.metadata["kind"].dump(getattr(self, spec.name)))
                for spec in fields(self)]


# ---------------------------------------------------------------------------
# score-table assembly

def import_external_scores(path, expected_qids) -> dict[str, float]:
    """Load ``query_id<TAB>score`` rows; coverage of the query set must be total."""
    scores: dict[str, float] = {}
    expected = set(expected_qids)
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise HarnessError(f"{path}:{lineno}: expected 'query_id<TAB>score'")
        qid, raw = parts
        if qid in scores:
            raise HarnessError(f"{path}:{lineno}: duplicate query_id {qid!r}")
        try:
            scores[qid] = float(raw)
        except ValueError as exc:
            raise HarnessError(f"{path}:{lineno}: non-numeric score {raw!r}") from exc
        if qid in expected and not math.isfinite(scores[qid]):
            raise HarnessError(f"{path}:{lineno}: non-finite score {raw!r}")
    missing = sorted(expected - set(scores))
    if missing:
        raise HarnessError(f"{path}: no score for query ids: {', '.join(missing)}")
    extra = sorted(set(scores) - expected)
    if extra:
        logger.warning("%s: %d score rows for unknown query ids (%s)",
                       path, len(extra), ", ".join(extra[:5]))
    return {qid: scores[qid] for qid in expected_qids}


def load_corpus(config: ExperimentConfig):
    """The index and the tokenized queries, under one reading of the tokenizer settings."""
    tok = config.tokenizer_config()
    index = build_index(ingest(config.docs, config.corpus_format), tok)
    return index, load_queries(config.queries, tok)


def post_scores(config: ExperimentConfig, index, query, ranked) -> dict[str, float | None]:
    """The six post-retrieval values of one query under the config's settings."""
    return compute_post_scores(
        index, query, ranked, k_fb=config.k_fb, wig_k=config.wig_k, nqc_k=config.nqc_k,
        uef_m=config.uef_m, mu=config.mu, uef_sim=config.uef_sim)


def build_score_table(config: ExperimentConfig):
    """Index, retrieve, and score every query; returns the table and context.

    Queries that are degenerate, lack relevant documents, or have an
    undefined predictor value are excluded (with reasons).
    """
    if not config.lexicon and any(p in ("AvP", "AvNP") for p in config.pre_predictors):
        raise HarnessError("AvP/AvNP require corpus.lexicon")
    if not (config.pre_predictors or config.post_predictors or config.external_scores):
        raise HarnessError("no predictor: set predictors.pre, predictors.post or external.scores")
    index, queries = load_corpus(config)
    qrels = load_qrels(config.qrels)
    lexicon = load_lexicon(config.lexicon) if config.lexicon else None

    names = list(config.pre_predictors) + list(config.post_predictors)
    columns: dict[str, list] = {name: [] for name in names}
    excluded: dict[str, str] = {}
    qids, aps, ranked_lists = [], [], []
    for query in queries:
        qid = query.query_id
        if query.is_empty:
            excluded[qid] = "empty after tokenization"
            continue
        ranked = retrieve(index, query, k=config.k, mu=config.mu)
        if len(ranked) == 0:
            excluded[qid] = "no query term occurs in the collection"
            continue
        ranked_lists.append(ranked)
        ap = average_precision(ranked, qrels, cutoff=config.k)
        if ap is None:
            excluded[qid] = "no relevant documents in qrels"
            continue
        scores = compute_pre_scores(index, query, lexicon, distinct=config.distinct_terms)
        scores |= post_scores(config, index, query, ranked)
        undefined = [name for name in names if scores[name] is None]
        if undefined:
            excluded[qid] = f"undefined predictor values: {', '.join(undefined)}"
            continue
        for name in names:
            columns[name].append(scores[name])
        qids.append(qid)
        aps.append(ap)

    if not qids:
        raise HarnessError("no usable queries remain after exclusions")
    for name, score_path in config.external_scores:
        columns[name] = list(import_external_scores(score_path, qids).values())
    table = ScoreTable(query_ids=qids, columns=columns, target=aps)
    return table, excluded, ranked_lists, index


# ---------------------------------------------------------------------------
# combiner fitting

def fit_combiner(name: str, train: ScoreTable, config: ExperimentConfig, seed: int):
    """Fit one combiner on ``train``; every hyperparameter is tuned on train only.

    Under the fixed protocol the CV combiners pick lam on a seeded tuning
    subset of train and are then refit on all of train at that lam.
    """
    def lam_grid():
        # only the lam-grid combiners ask; a flat train split has no grid
        try:
            return fusion.lambda_grid(train, num=config.grid_size, ratio=config.grid_ratio)
        except fusion.FusionError:
            return None

    def tuning_table() -> ScoreTable:
        # The fixed protocol tunes on a seeded fraction of the train split.
        if config.protocol != "fixed":
            return train
        n_tune = max(int(round(config.tuning_fraction * train.n_rows)), 2 * config.k_folds)
        if n_tune >= train.n_rows:
            return train
        rng = np.random.default_rng(derive_seed(seed, "tuning-sample"))
        idx = np.sort(rng.choice(train.n_rows, size=n_tune, replace=False))
        return train.subset(idx)

    def cv(method: str):
        grid = lam_grid()
        if grid is None:
            return fusion.RegressionModel(name, float(train.target.mean()),
                                          {n: 0.0 for n in train.column_names})
        tuning = tuning_table()
        best_lam, model = fusion.cv_select(
            tuning, method, lam_grid=grid, k_folds=config.k_folds,
            seed=derive_seed(seed, "cv"), alpha=config.enet_alpha)
        if tuning is not train:
            model = fusion.fit_penalized(train, method, best_lam, config.enet_alpha)
        return model

    cv_methods = {"LASSO-CV": "lasso", "Ridge-CV": "ridge", "E-Net": "enet"}
    if name == "OLS":
        return fusion.ols_fit(train)
    if name in cv_methods:
        return cv(cv_methods[name])
    if name == "LARS-CV":
        return fusion.lars_cv(train, k_folds=config.k_folds, seed=derive_seed(seed, "cv"))
    if name == "LARS-Traps":
        return fusion.lars_traps(train, n_traps=config.n_traps or None,
                                 seed=derive_seed(seed, "traps"))
    if name == "BOLASSO":
        return fusion.bolasso(train, b=config.bolasso_b, threshold=config.bolasso_threshold,
                              k_folds=config.k_folds, lam_grid=lam_grid(),
                              seed=derive_seed(seed, "bolasso"))
    raise HarnessError(f"unknown combiner {name!r}")


def split_predictions(table: ScoreTable, train_ids, test_ids,
                      config: ExperimentConfig, seed: int) -> dict[str, np.ndarray]:
    """Test-set predictions per row name (every predictor, then every combiner).

    Columns are min-max normalized on the train rows; single predictors are
    mapped through a one-variable least-squares fit on train.
    """
    pos = {qid: i for i, qid in enumerate(table.query_ids)}
    train_idx = np.array([pos[q] for q in train_ids])
    test_idx = np.array([pos[q] for q in test_ids])
    params, _ = minmax_fit(table.subset(train_idx))
    normalized = minmax_apply(table, params)
    train = normalized.subset(train_idx)
    test = normalized.subset(test_idx)

    predictions = {}
    for name in normalized.column_names:
        predictions[name] = single_fit_predictions(
            normalized.columns[name], normalized.target, train_idx, test_idx)
    for name in config.combiners:
        model = fit_combiner(name, train, config, derive_seed(seed, name))
        predictions[name] = predict(model, test, clamp=config.clamp_predictions)
    return predictions


def rows_from_predictions(predictions: dict[str, np.ndarray], y_test,
                          combiner_names) -> list[ReportRow]:
    """Metric rows for one evaluation; combiner p-values compare per-query
    squared errors against the best single predictor (lowest RMSE)."""
    combiners = set(combiner_names)
    rows = [report_row(name, y_hat, y_test)
            for name, y_hat in predictions.items() if name not in combiners]
    best_single = min(rows, key=lambda r: r.rmse).predictor
    best_sq = np.subtract(predictions[best_single], y_test) ** 2
    for name in combiner_names:
        row = report_row(name, predictions[name], y_test)
        try:
            row.p_value = paired_t_one_sided(np.subtract(predictions[name], y_test) ** 2, best_sq)
        except UndefinedMetricError:
            row.p_value = math.nan
        rows.append(row)
    return rows


def evaluate_split(table: ScoreTable, train_ids, test_ids, config: ExperimentConfig,
                   seed: int) -> list[ReportRow]:
    """Report rows (singles then combiners) for one train/test split."""
    pos = {qid: i for i, qid in enumerate(table.query_ids)}
    test_idx = np.array([pos[q] for q in test_ids])
    predictions = split_predictions(table, train_ids, test_ids, config, seed)
    return rows_from_predictions(predictions, table.target[test_idx], config.combiners)


# ---------------------------------------------------------------------------
# hypothesis diagnostic

@dataclass
class HypothesisReport:
    """Which predictor-correlation regime the data matches, plus the evidence."""

    regime: str  # "H1", "H2", "H3", or "none"
    mean_rho: float
    min_rho: float
    frac_negative: float
    delta_rho: float
    delta_tau: float
    delta_smare: float
    delta_rmse: float
    consistent: bool | None  # None when delta_rho is undefined
    thresholds: dict = field(default_factory=dict)


def _best(rows, metric, lower_is_better=False):
    values = [getattr(r, metric) for r in rows]
    values = [v for v in values if v is not None and not math.isnan(v)]
    if not values:
        return math.nan
    return min(values) if lower_is_better else max(values)


def hypothesis_report(corr_matrix: CorrMatrix, single_rows, combined_rows,
                      h1_mean: float = 0.5, h2_mean: float = 0.3,
                      h3_frac: float = 0.1, h3_rho: float = -0.1) -> HypothesisReport:
    """Classify the predictor-relationship regime under declared thresholds.

    A descriptive diagnostic, not a statistical test: H3 when at least
    ``h3_frac`` of the pairs correlate below ``h3_rho``; otherwise H1 when
    the mean pairwise correlation reaches ``h1_mean``; otherwise H2 when it
    stays below ``h2_mean``.
    """
    off = corr_matrix.offdiagonal()
    if off.size == 0:
        raise HarnessError("correlation matrix has no defined off-diagonal cells")
    mean_rho = float(off.mean())
    min_rho = float(off.min())
    frac_negative = float(np.mean(off < h3_rho))
    if frac_negative >= h3_frac:
        regime = "H3"
    elif mean_rho >= h1_mean:
        regime = "H1"
    elif mean_rho < h2_mean:
        regime = "H2"
    else:
        regime = "none"
    delta_rho = _best(combined_rows, "rho") - _best(single_rows, "rho")
    delta_tau = _best(combined_rows, "tau") - _best(single_rows, "tau")
    delta_smare = _best(combined_rows, "smare", True) - _best(single_rows, "smare", True)
    delta_rmse = _best(combined_rows, "rmse", True) - _best(single_rows, "rmse", True)
    agrees = {"H1": delta_rho <= 0.01, "H2": delta_rho > 0.0, "H3": delta_rho < 0.0}
    consistent = agrees.get(regime, True)  # the "none" regime predicts no direction
    if math.isnan(delta_rho):
        consistent = None
    return HypothesisReport(
        regime=regime, mean_rho=mean_rho, min_rho=min_rho,
        frac_negative=frac_negative, delta_rho=delta_rho, delta_tau=delta_tau,
        delta_smare=delta_smare, delta_rmse=delta_rmse, consistent=consistent,
        thresholds={"h1_mean": h1_mean, "h2_mean": h2_mean,
                    "h3_frac": h3_frac, "h3_rho": h3_rho},
    )


# ---------------------------------------------------------------------------
# the end-to-end run

@dataclass
class ExperimentResult:
    aggregate: list[ReportRow]
    per_split: list[list[ReportRow]]
    corr_matrix: CorrMatrix | None  # None with fewer than 2 predictors
    hypothesis: HypothesisReport | None  # None also when no predictor pair correlates
    table: ScoreTable
    excluded: dict[str, str]
    plan: SplitPlan


def _aggregate_rows(per_split: list[list[ReportRow]]) -> list[ReportRow]:
    """Mean of each metric over splits, skipping undefined (NaN/None) values."""
    names = [r.predictor for r in per_split[0]]
    aggregate = []
    for i, name in enumerate(names):
        row = ReportRow(predictor=name)
        for metric in REPORT_COLUMNS[1:]:
            values = [getattr(split[i], metric) for split in per_split]
            values = [v for v in values if v is not None and not math.isnan(v)]
            setattr(row, metric, float(np.mean(values)) if values else math.nan)
        aggregate.append(row)
    return aggregate


def make_split_plan(config: ExperimentConfig, query_ids) -> SplitPlan:
    if config.protocol == "halves":
        plan = split_random_halves(query_ids, repeats=config.repeats, seed=config.seed)
    elif config.protocol == "loo":
        plan = split_leave_one_out(query_ids)
    else:
        plan = split_fixed(query_ids, _read_id_file(config.train_file),
                           _read_id_file(config.test_file))
    plan.validate(query_ids)
    return plan


def evaluate_table(table: ScoreTable, config: ExperimentConfig,
                   excluded: dict[str, str]) -> ExperimentResult:
    """Split, fit and evaluate one score table; writes nothing.

    Halves and fixed splits are evaluated one by one and averaged. Leave-one-out
    pools the held-out predictions and evaluates them once, over all queries.
    """
    plan = make_split_plan(config, table.query_ids)
    evaluate = split_predictions if config.protocol == "loo" else evaluate_split
    per_split = []
    for s, (train_ids, test_ids) in enumerate(plan.pairs):
        seed = derive_seed(config.seed, config.protocol, s, "fit")
        try:
            per_split.append(evaluate(table, train_ids, test_ids, config, seed))
        except Exception as exc:
            raise HarnessError(f"split {s} failed: {exc}") from exc
    if config.protocol == "loo":
        # each query was held out once, in table order
        pooled = {name: np.concatenate([p[name] for p in per_split]) for name in per_split[0]}
        per_split = [rows_from_predictions(pooled, table.target, config.combiners)]
    aggregate = _aggregate_rows(per_split)

    n_singles = len(table.column_names)
    corr = hypothesis = None
    if n_singles >= 2:
        corr = predictor_correlation_matrix(table.columns, metric=config.corr_metric)
        if corr.offdiagonal().size:
            hypothesis = hypothesis_report(
                corr, aggregate[:n_singles], aggregate[n_singles:],
                h1_mean=config.h1_mean, h2_mean=config.h2_mean,
                h3_frac=config.h3_frac, h3_rho=config.h3_rho,
            )
        else:
            logger.warning("no predictor pair has a defined correlation: no hypothesis.tsv")
    return ExperimentResult(
        aggregate=aggregate, per_split=per_split, corr_matrix=corr,
        hypothesis=hypothesis, table=table, excluded=excluded, plan=plan,
    )


def load_design(config: ExperimentConfig) -> ScoreTable:
    """The score table in the wide TSV named by the ``design`` key."""
    if not config.design:
        raise HarnessError("this subcommand needs config key 'design' "
                           "(a wide TSV: query_id, predictor columns, AP)")
    return ScoreTable.read_tsv(config.design)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Full pipeline; writes all artifacts when ``config.out`` is set.

    The score table comes from the corpus when ``corpus.docs`` is set, else
    from the ``design`` table.
    """
    if config.docs:
        try:
            table, excluded, ranked_lists, _ = build_score_table(config)
        except Exception as exc:
            raise HarnessError(f"score-table stage failed: {exc}") from exc
    elif config.design:
        table, excluded, ranked_lists = load_design(config), {}, None
    else:
        raise HarnessError("experiment needs config key 'corpus.docs' or 'design'")
    result = evaluate_table(table, config, excluded)
    if config.out:
        write_artifacts(result, ranked_lists, config)
    return result


def write_hypothesis_tsv(path, report: HypothesisReport) -> None:
    verdict = "nan" if report.consistent is None else str(report.consistent).lower()
    lines = ["field\tvalue", f"regime\t{report.regime}", f"consistent\t{verdict}"]
    for name in ("mean_rho", "min_rho", "frac_negative",
                 "delta_rho", "delta_tau", "delta_smare", "delta_rmse"):
        lines.append(f"{name}\t{format_metric(getattr(report, name))}")
    lines += (f"threshold.{key}\t{value}" for key, value in report.thresholds.items())
    write_lines(path, lines)


def write_artifacts(result: ExperimentResult, ranked_lists, config: ExperimentConfig) -> None:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_tsv(out / "report_aggregate.tsv", result.aggregate)
    write_split_report_tsv(out / "report_splits.tsv", result.per_split)
    if result.corr_matrix is not None:
        write_corr_matrix_tsv(out / "corr_matrix.tsv", result.corr_matrix)
    if result.hypothesis is not None:
        write_hypothesis_tsv(out / "hypothesis.tsv", result.hypothesis)
    result.table.write_tsv(out / "score_table.tsv")
    if ranked_lists is not None:  # a design table has no run and excludes nothing
        write_run_file(out / "run.txt", ranked_lists)
        write_lines(out / "excluded.tsv", ["query_id\treason"] + [
            f"{qid}\t{reason}" for qid, reason in result.excluded.items()])
    write_lines(out / "config_used.txt",
                (f"{key} = {value}" for key, value in config.resolved_items()))
