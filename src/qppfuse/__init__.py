"""Query performance prediction toolkit.

Classical pre- and post-retrieval predictors over a text collection,
penalized-regression combiners that fuse them into an AP predictor, and the
evaluation machinery (correlations with confidence intervals, RMSE, sMARE,
significance tests) for judging prediction quality.

``import qppfuse`` loads no submodule: each public name below, and each
submodule name, is resolved from its home module when it is read (PEP 562), so
work on a design table never loads the corpus layers. A name is read from its
home on every access, not kept here: a wrapper or patch bound in the home module
(and undone there) shows through the package namespace as it does in the home.
"""

_HOMES = {
    "corpus": ("CorpusError", "Document", "Index", "Qrels", "Query", "SenseLexicon",
               "TokenizerConfig", "build_index", "ingest", "load_lexicon", "load_qrels",
               "load_queries", "tokenize"),
    "evaluation": ("CorrelationResult", "CorrMatrix", "ReportRow", "UndefinedMetricError",
                   "kendall_tau_b", "paired_t_one_sided", "pearson",
                   "predictor_correlation_matrix", "rmse_direct", "rmse_single", "smare"),
    "experiment": ("COMBINERS", "PRE_PREDICTORS", "POST_PREDICTORS", "ExperimentConfig",
                   "ExperimentResult", "HarnessError", "SplitPlan", "evaluate_table",
                   "fit_combiner", "hypothesis_report", "import_external_scores", "load_design",
                   "run_experiment", "split_leave_one_out", "split_random_halves"),
    "fusion": ("ConvergenceError", "FusionError", "RegressionModel", "ScoreTable", "bolasso",
               "cv_select", "enet_fit", "fit_penalized", "lars_cv", "lars_path", "lars_traps",
               "lasso_fit", "ols_fit", "predict", "ridge_fit"),
    "post_retrieval": ("RelevanceModel", "clarity", "compute_post_scores", "nqc", "rm1", "wig"),
    "pre_retrieval": ("compute_pre_scores", "idf_family", "polysemy", "scq_family",
                      "var_family"),
    "retrieval": ("DegenerateQueryError", "RankedList", "average_precision",
                  "collection_likelihood", "retrieve", "score_dirichlet"),
    "seeding": ("derive_seed", "seq_sum"),
}
_SUBMODULES = frozenset(_HOMES) | {"cli"}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _submodule(name):
    # builtin __import__, whose imports -X importtime logs (importlib.import_module's it
    # does not); the import also binds the submodule in this namespace
    return __import__(f"{__name__}.{name}", fromlist=["__name__"])


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(_HOME[name]), name)


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
