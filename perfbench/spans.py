"""Span tracing of the package's public functions, installed from outside.

The tracer replaces each target function by a wrapper in every ``qppfuse``
module that binds it (``experiment``, ``cli`` and ``post_retrieval`` import
functions by name, so patching only the defining module would lose spans)
and in ``cli.COMMANDS``. Nothing under ``src/`` changes. Spans stay in
memory; the worker writes them out once at the end of a repetition.

A span is ``[name, start, end, parent, op, counts]``, where ``parent`` is
the index of the enclosing span (or -1) and ``op`` the operation id that
was current when it opened.
"""

import functools
import inspect
import sys
import time

# Spans opened by these functions own everything they call: predict and
# OLS refits inside a combiner count toward that combiner's self time.
_COMBINERS = frozenset({
    "fusion.ridge_cv", "fusion.lasso_cv", "fusion.enet_cv", "fusion.bolasso_cv",
    "fusion.lars_cv", "fusion.lars_traps", "fusion.bolasso",
})


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qppfuse" or n.startswith("qppfuse."))]


def patch_everywhere(original, replacement, undo: list) -> None:
    """Rebind ``original`` to ``replacement`` in every package module.

    Appends ``(namespace, key, original)`` restore records to ``undo``.
    """
    for module in package_modules():
        namespaces = [vars(module)]
        commands = getattr(module, "COMMANDS", None)
        if isinstance(commands, dict):
            namespaces.append(commands)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = replacement
                    undo.append((ns, key, original))


def restore(undo: list) -> None:
    for ns, key, original in reversed(undo):
        ns[key] = original
    undo.clear()


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _cv_name(bind):
    def name(args, kwargs, stack):
        if any(s[0] == "fusion.bolasso" for s in stack):
            return "fusion.bolasso_cv"
        return f"fusion.{bind(args, kwargs)['method']}_cv"
    return name


def _absorbed(span_name):
    def name(args, kwargs, stack):
        return None if stack and stack[-1][0] in _COMBINERS else span_name
    return name


def _targets(pkg):
    """(owner, attribute, namer, counter) for every traced function.

    ``namer`` is a span name or ``f(args, kwargs, stack) -> name | None``;
    ``counter`` is ``f(args, kwargs, result, exc) -> dict`` or None.
    """
    corpus, retrieval, pre, post = pkg.corpus, pkg.retrieval, pkg.pre_retrieval, pkg.post_retrieval
    fusion, evaluation, experiment, cli = pkg.fusion, pkg.evaluation, pkg.experiment, pkg.cli

    def postings_scored(args, kwargs, result, exc):
        index, query = args[0], args[1]
        terms = {t for t in query.terms if index.cf.get(t, 0) > 0}
        return {"postings_scored": sum(index.df[t] for t in terms)}

    bind_pre = _bound(pre.compute_pre_scores)

    def var_postings(args, kwargs, result, exc):
        a = bind_pre(args, kwargs)
        terms = a["query"].terms if isinstance(a["query"], corpus.Query) else tuple(a["query"])
        if a["distinct"]:
            terms = set(terms)
        return {"var_postings": sum(a["index"].df.get(t, 0) for t in terms)}

    def rm1_counts(args, kwargs, result, exc):
        if result is None:
            return None
        v = len(result.probs)
        return {"fb_terms": v, "doc_term_evals": v * result.feedback_depth}

    bind_rerank = _bound(post.rm_rerank_similarity)

    def rerank_counts(args, kwargs, result, exc):
        a = bind_rerank(args, kwargs)
        m_eff = len(a["ranked"].entries[:a["m"]])
        model = a["model"]
        if m_eff < 2 or model is None:  # rm1 then runs as a child span and counts itself
            return None
        return {"doc_term_evals": len(model.probs) * m_eff}

    def cv_counts(args, kwargs, result, exc):
        raised = isinstance(exc, fusion.ConvergenceError)
        return {"cv_select_calls": 1, "cv_select_raised": int(raised)}

    bind_bolasso = _bound(fusion.bolasso)

    def bolasso_counts(args, kwargs, result, exc):
        counts = {"bolasso_resamples": bind_bolasso(args, kwargs)["b"], "bolasso_fits": 1}
        if result is not None:
            counts["bolasso_empty_support"] = int(not result.support)
        return counts

    def kendall_pairs(args, kwargs, result, exc):
        n = len(args[0])
        return {"kendall_pairs": n * (n - 1) // 2}

    def artifact_bytes(args, kwargs, result, exc):
        from pathlib import Path
        out = Path(args[2].out)
        return {"artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}

    def excluded(args, kwargs, result, exc):
        return None if result is None else {"excluded_queries": len(result.excluded)}

    return [
        (corpus, "ingest", "corpus.ingest", None),
        (corpus, "build_index", "corpus.build_index",
         lambda a, k, r, e: None if r is None else {"postings": sum(r.df.values())}),
        (corpus, "load_queries", "corpus.load", None),
        (corpus, "load_qrels", "corpus.load", None),
        (corpus, "load_lexicon", "corpus.load", None),
        (retrieval, "retrieve", "retrieval.retrieve", postings_scored),
        (retrieval, "average_precision", "retrieval.ap", None),
        (retrieval, "write_run_file", "retrieval.write_run", None),
        (pre, "compute_pre_scores", "pre_retrieval.compute", var_postings),
        (post, "rm1", "post_retrieval.rm1", rm1_counts),
        (post, "rm_rerank_similarity", "post_retrieval.rerank", rerank_counts),
        (post, "compute_post_scores", "post_retrieval.compute", None),
        (fusion, "minmax_fit", "fusion.minmax", None),
        (fusion, "minmax_apply", "fusion.minmax", None),
        (fusion, "ols_fit", _absorbed("fusion.ols"), None),
        (fusion, "cv_select", _cv_name(_bound(fusion.cv_select)), cv_counts),
        (fusion, "lars_cv", "fusion.lars_cv", None),
        (fusion, "lars_traps", "fusion.lars_traps", None),
        (fusion, "bolasso", "fusion.bolasso", bolasso_counts),
        (fusion, "predict", _absorbed("fusion.predict"), None),
        (evaluation, "kendall_tau_b", "evaluation.kendall", kendall_pairs),
        (evaluation, "pearson", "evaluation.pearson", None),
        (evaluation, "rmse_single", "evaluation.rmse_single",
         lambda a, k, r, e: {"rmse_single_calls": 1}),
        (evaluation, "predictor_correlation_matrix", "evaluation.corr_matrix", None),
        (experiment, "run_experiment", "experiment.run", excluded),
        (experiment, "build_score_table", "experiment.build_score_table", None),
        (experiment, "split_predictions", "experiment.split_predictions", None),
        (experiment, "rows_from_predictions", "experiment.rows_from_predictions", None),
        (experiment, "write_artifacts", "experiment.write_artifacts", artifact_bytes),
        (experiment, "hypothesis_report", "experiment.hypothesis", None),
        # the CLI's only config seam is private; main() looks it up per call
        (cli, "_load_config", "cli.config", None),
        (cli, "cmd_experiment", "cli.command", None),
        (cli, "cmd_evaluate", "cli.command", None),
        (cli, "cmd_heatmap", "cli.command", None),
    ]


class Tracer:
    """Collects spans from wrapped package functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list = []

    def span(self, name, start, end, counts=None) -> None:
        """Record a span measured by the caller (e.g. the import phase)."""
        self.spans.append([name, start, end, -1, self.op, counts])

    def install(self, pkg) -> None:
        for owner, attr, namer, counter in _targets(pkg):
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            patch_everywhere(original, self._wrap(original, namer, counter), self._undo)

    def uninstall(self) -> None:
        restore(self._undo)

    def _wrap(self, fn, namer, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = namer if isinstance(namer, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = fixed or namer(args, kwargs, stack)
            if name is None:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1][6] if stack else -1, self.op, None, len(spans)]
            spans.append(record)
            stack.append(record)
            result = exc = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                record[2] = clock()
                stack.pop()
                if counter is not None:
                    record[5] = counter(args, kwargs, result, exc)
        return wrapper

    def export(self) -> list[list]:
        """Spans as ``[name, start, end, parent, op, counts]``."""
        return [s[:6] for s in self.spans]


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
