"""Query performance prediction toolkit.

Classical pre- and post-retrieval predictors over a text collection,
penalized-regression combiners that fuse them into an AP predictor, and the
evaluation machinery (correlations with confidence intervals, RMSE, sMARE,
significance tests) for judging prediction quality.
"""

from .corpus import (
    CorpusError,
    Document,
    Index,
    Qrels,
    Query,
    SenseLexicon,
    TokenizerConfig,
    build_index,
    ingest,
    load_lexicon,
    load_qrels,
    load_queries,
    tokenize,
)
from .evaluation import (
    CorrelationResult,
    CorrMatrix,
    ReportRow,
    UndefinedMetricError,
    kendall_tau_b,
    paired_t_one_sided,
    pearson,
    predictor_correlation_matrix,
    rmse_direct,
    rmse_single,
    smare,
)
from .experiment import (
    COMBINERS,
    ExperimentConfig,
    ExperimentResult,
    HarnessError,
    SplitPlan,
    evaluate_table,
    fit_combiner,
    hypothesis_report,
    import_external_scores,
    load_design,
    run_experiment,
    split_leave_one_out,
    split_random_halves,
)
from .fusion import (
    ConvergenceError,
    FusionError,
    RegressionModel,
    ScoreTable,
    bolasso,
    cv_select,
    enet_fit,
    fit_penalized,
    lars_cv,
    lars_path,
    lars_traps,
    lasso_fit,
    ols_fit,
    predict,
    ridge_fit,
)
from .post_retrieval import (
    POST_PREDICTORS,
    RelevanceModel,
    clarity,
    compute_post_scores,
    nqc,
    rm1,
    wig,
)
from .pre_retrieval import (
    PRE_PREDICTORS,
    compute_pre_scores,
    idf_family,
    polysemy,
    scq_family,
    var_family,
)
from .retrieval import (
    DegenerateQueryError,
    RankedList,
    average_precision,
    collection_likelihood,
    retrieve,
    score_dirichlet,
)
from .seeding import derive_seed, seq_sum

__version__ = "0.1.0"
