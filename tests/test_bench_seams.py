"""The package seams that the benchmark in ``perfbench/`` relies on.

The benchmark traces public functions from outside the package and imports
names from it; a rename or a dropped call shows up there only as a failed
benchmark run. These tests catch it in the suite instead. They read the
benchmark's files and change none of them.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import qppfuse  # noqa: E402
import qppfuse.cli as cli  # noqa: E402  (the tracer wraps cli functions too)


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install(qppfuse)
    try:
        yield t
    finally:
        t.uninstall()


def test_every_trace_target_exists(tracer):
    assert tracer.missing == []


@pytest.mark.parametrize("func,params", [
    ("post_retrieval.rm_rerank_similarity", ("ranked", "m", "model")),
    ("pre_retrieval.compute_pre_scores", ("index", "query", "distinct")),
    ("fusion.bolasso", ("b",)),
    ("fusion.cv_select", ("method",)),
])
def test_traced_argument_names_exist(func, params):
    module, name = func.split(".")
    signature = inspect.signature(getattr(getattr(qppfuse, module), name))
    assert set(params) <= set(signature.parameters)


def test_rm1_result_has_what_the_benchmark_reads(toy_index, toy_queries, tracer):
    # the rm1 and rerank span counters read len(model.probs) and feedback_depth,
    # and the synth-corpus check reads total_mass()
    post = qppfuse.post_retrieval
    query = toy_queries[0]
    ranked = qppfuse.retrieve(toy_index, query, k=1000)
    model = post.rm1(toy_index, ranked, k_fb=10)
    post.compute_post_scores(toy_index, query, ranked, k_fb=10, uef_m=10)
    v, depth = len(model.probs), model.feedback_depth
    assert v == len(model.terms) > 0 and depth == min(10, len(ranked)) > 1
    assert isinstance(model.total_mass(), float) and abs(model.total_mass() - 1.0) < 1e-9
    counts = [(s[0], s[5]) for s in tracer.export() if s[0].startswith("post_retrieval.")]
    rm1_counts = {"fb_terms": v, "doc_term_evals": v * depth}
    assert counts == [("post_retrieval.rm1", rm1_counts), ("post_retrieval.compute", None),
                      ("post_retrieval.rm1", rm1_counts),
                      ("post_retrieval.rerank", {"doc_term_evals": v * min(10, len(ranked))})]


def _package_imports(path):
    """(module, name or None) for every ``qppfuse`` import in a script, at any nesting."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qppfuse":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "qppfuse")
    return found


@pytest.mark.parametrize("script", ["worker.py", "checks.py"])
def test_imported_names_resolve(script):
    imports = _package_imports(PERFBENCH / script)
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{script}: from {module} import {name}"


def test_design_eval_commands_open_every_layer_span(tmp_path, tracer):
    gen.make_design(tmp_path / "design.tsv", seed=1, n_rows=40)
    config = tmp_path / "design.cfg"
    config.write_text("design = design.tsv\ncorr.metric = kendall\n", encoding="utf-8")
    for command in ("evaluate", "heatmap"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    seen = {s[0] for s in tracer.export()}
    for metric, (sources, _, workloads) in run.LAYER_METRICS.items():
        if run.DESIGN not in workloads or sources == ("setup.import",):
            continue  # the worker times the import itself, outside any wrapped call
        assert seen.intersection(sources), f"{metric}: no {'/'.join(sources)} span"


@pytest.mark.parametrize("source", ["corpus", "design"])
def test_run_experiment_calls_evaluate_split_once_per_split(toy_dir, tmp_path, source):
    # the toy worker samples the CPU speed from a wrapper patched over evaluate_split
    from qppfuse.experiment import (ExperimentConfig, build_score_table, evaluate_split,
                                    run_experiment)

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return evaluate_split(*args, **kwargs)

    config = ExperimentConfig.from_file(toy_dir / "experiment.cfg")
    config.repeats = 3
    if source == "design":
        build_score_table(config)[0].write_tsv(tmp_path / "design.tsv")
        config.docs, config.design = "", str(tmp_path / "design.tsv")
    undo: list = []
    spans.patch_everywhere(evaluate_split, counted, undo)
    try:
        result = run_experiment(config)
    finally:
        spans.restore(undo)
    assert calls == list(result.plan.pairs)
    assert len(calls) == 3
