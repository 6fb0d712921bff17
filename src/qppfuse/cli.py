"""Command-line interface for batch experimenters.

Subcommands: index, retrieve, predict-pre, predict-post, fuse, evaluate,
heatmap, experiment. Every subcommand reads the flat key-value config file
given with --config; --seed and --out override the config's seed and
output directory. All outputs are TSV (UTF-8, LF), written under --out.
The corpus layers (corpus, retrieval, pre- and post-retrieval) are imported
only when a command runs on a corpus, so fuse, evaluate, heatmap and
experiment on a design start without them.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import fusion
from .evaluation import (
    predictor_correlation_matrix,
    report_row,
    rmse_single,
    write_corr_matrix_tsv,
    write_report_tsv,
    write_scores_long,
    write_scores_wide,
)
from .experiment import (ExperimentConfig, HarnessError, fit_combiner, load_corpus,
                         load_design, post_scores, run_experiment)

logger = logging.getLogger(__name__)


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise HarnessError("--config is required")
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    if not config.out:
        raise HarnessError("an output directory is required (config key 'out' or --out)")
    Path(config.out).mkdir(parents=True, exist_ok=True)
    return config


def cmd_index(config: ExperimentConfig) -> None:
    from .corpus import build_index, dump_stats, ingest
    # not load_corpus: a config without corpus.queries can still be indexed
    index = build_index(ingest(config.docs, config.corpus_format), config.tokenizer_config())
    out = Path(config.out)
    dump_stats(index, out / "index_stats.txt")
    print(f"indexed {index.n_docs} documents, {len(index.terms)} terms, "
          f"{index.total_tokens} tokens -> {out}")


def cmd_retrieve(config: ExperimentConfig) -> None:
    from .retrieval import retrieve, write_run_file
    index, queries = load_corpus(config)
    ranked = [retrieve(index, q, k=config.k, mu=config.mu) for q in queries]
    path = Path(config.out) / "run.txt"
    write_run_file(path, (r for r in ranked if len(r) > 0))
    n_degenerate = sum(1 for r in ranked if r.degenerate)
    print(f"wrote {path} ({len(ranked) - n_degenerate} queries, {n_degenerate} degenerate)")


def cmd_predict_pre(config: ExperimentConfig) -> None:
    from .corpus import load_lexicon
    from .pre_retrieval import compute_pre_scores
    index, queries = load_corpus(config)
    lexicon = load_lexicon(config.lexicon) if config.lexicon else None
    scores = {
        q.query_id: compute_pre_scores(index, q, lexicon, distinct=config.distinct_terms)
        for q in queries
    }
    out = Path(config.out)
    write_scores_long(out / "pre_scores.tsv", scores)
    write_scores_wide(out / "pre_scores_wide.tsv", scores)
    print(f"wrote pre-retrieval scores for {len(scores)} queries -> {out}")


def cmd_predict_post(config: ExperimentConfig) -> None:
    from .retrieval import retrieve
    index, queries = load_corpus(config)
    scores = {}
    skipped = []
    for query in queries:
        ranked = retrieve(index, query, k=config.k, mu=config.mu)
        if len(ranked) == 0:
            skipped.append(query.query_id)
            continue
        values = post_scores(config, index, query, ranked)
        scores[query.query_id] = {
            k: (float("nan") if v is None else v) for k, v in values.items()
        }
    out = Path(config.out)
    write_scores_long(out / "post_scores.tsv", scores)
    write_scores_wide(out / "post_scores_wide.tsv", scores)
    if skipped:
        logger.warning("skipped degenerate queries: %s", ", ".join(skipped))
    print(f"wrote post-retrieval scores for {len(scores)} queries -> {out}")


def cmd_fuse(config: ExperimentConfig) -> None:
    """Fit each configured combiner on the full design matrix and dump models."""
    table = load_design(config)
    params, _ = fusion.minmax_fit(table)
    normalized = fusion.minmax_apply(table, params)
    out = Path(config.out)
    predictions = {}
    for name in config.combiners:
        model = fit_combiner(name, normalized, config, config.seed)
        model.normalization = params
        fusion.write_model(model, out / f"model_{name}.txt")
        predictions[name] = fusion.predict(model, table, clamp=config.clamp_predictions)
    write_scores_wide(out / "predictions.tsv", {
        qid: {name: y_hat[i] for name, y_hat in predictions.items()}
        for i, qid in enumerate(table.query_ids)})
    print(f"fitted {len(config.combiners)} combiners on {table.n_rows} queries -> {out}")


def cmd_evaluate(config: ExperimentConfig) -> None:
    """Per-predictor metrics on a design matrix; RMSE is closed-form leave-one-out."""
    table = load_design(config)
    params, _ = fusion.minmax_fit(table)
    normalized = fusion.minmax_apply(table, params)
    rows = []
    for name in table.column_names:
        row = report_row(name, normalized.columns[name], table.target)
        row.rmse = rmse_single(normalized.columns[name], table.target)
        rows.append(row)
    path = Path(config.out) / "report.tsv"
    write_report_tsv(path, rows)
    print(f"wrote {path} ({len(rows)} predictors over {table.n_rows} queries)")


def cmd_heatmap(config: ExperimentConfig) -> None:
    table = load_design(config)
    corr = predictor_correlation_matrix(table.columns, metric=config.corr_metric)
    path = Path(config.out) / "corr_matrix.tsv"
    write_corr_matrix_tsv(path, corr)
    print(f"wrote {path} ({len(corr.names)}x{len(corr.names)}, {corr.metric})")


def cmd_experiment(config: ExperimentConfig) -> None:
    result = run_experiment(config)
    regime = result.hypothesis.regime if result.hypothesis else "n/a"
    print(f"experiment complete: {len(result.table.query_ids)} queries, "
          f"{len(result.plan.pairs)} splits, regime {regime} -> {config.out}")


COMMANDS = {
    "index": cmd_index,
    "retrieve": cmd_retrieve,
    "predict-pre": cmd_predict_pre,
    "predict-post": cmd_predict_post,
    "fuse": cmd_fuse,
    "evaluate": cmd_evaluate,
    "heatmap": cmd_heatmap,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qppfuse",
        description="Query performance prediction: predictors, fusion, evaluation.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key-value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _load_config(args)
        COMMANDS[args.command](config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
