"""qppfuse benchmark: four seeded workloads, each repetition in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout. Inputs are generated from ``--seed`` (the
program only sees the generated files), then repetitions of the workload
run in fresh processes until ``--seconds`` have passed; each repetition
does a fixed amount of work, sets up from scratch and has its outputs
checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the first repetition runs untraced, the rest traced, and the metrics are
the per-layer ones. Full records go to ``.perfbench/results/``. See
``perfbench/README.md`` for the workloads and metric definitions.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import self_times  # noqa: E402

TOY = "toy-experiment"
SYNTH = "synth-corpus"
FUSION = "paper-fusion"
DESIGN = "design-eval"
WORKLOADS = (TOY, SYNTH, FUSION, DESIGN)
MIN_SETUPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
SYNTH_QUERIES = 30
SYNTH_POST = 3
FUSION_ROWS = 200
FUSION_SPLITS = 3
FUSION_BOLASSO_B = 2  # the minimum bolasso accepts; a split then takes ~6 s
DESIGN_ROWS = 1_000
UNCOVERED_LIMIT_PCT = 10.0
# Reference CPU speed: the worker's calibration loop takes this long. Gated
# times are scaled by CAL_REF_S / (the repetition's median loop time).
CAL_REF_S = 0.015

FUSION_SPANS = ("fusion.ridge_cv", "fusion.lasso_cv", "fusion.enet_cv", "fusion.bolasso_cv")
# per-layer metric -> (span names, count key or None for self time, workloads that exercise it)
LAYER_METRICS = {
    "setup.import_s": (("setup.import",), None, WORKLOADS),
    "corpus.ingest_s": (("corpus.ingest",), None, (SYNTH, TOY)),
    "corpus.build_index_s": (("corpus.build_index",), None, (SYNTH, TOY)),
    "corpus.load_s": (("corpus.load",), None, (SYNTH, TOY)),
    "corpus.postings": (("corpus.build_index",), "postings", (SYNTH, TOY)),
    "retrieval.retrieve_s": (("retrieval.retrieve",), None, (SYNTH, TOY)),
    "retrieval.ap_s": (("retrieval.ap",), None, (SYNTH, TOY)),
    "retrieval.postings_scored": (("retrieval.retrieve",), "postings_scored", (SYNTH, TOY)),
    "retrieval.write_run_s": (("retrieval.write_run",), None, (SYNTH, TOY)),
    "pre_retrieval.compute_s": (("pre_retrieval.compute",), None, (SYNTH, TOY)),
    "pre_retrieval.var_postings": (("pre_retrieval.compute",), "var_postings", (SYNTH, TOY)),
    "post_retrieval.rm1_s": (("post_retrieval.rm1",), None, (SYNTH, TOY)),
    "post_retrieval.rerank_s": (("post_retrieval.rerank",), None, (SYNTH, TOY)),
    "post_retrieval.compute_s": (("post_retrieval.compute",), None, (SYNTH, TOY)),
    "post_retrieval.fb_terms": (("post_retrieval.rm1",), "fb_terms", (SYNTH, TOY)),
    "post_retrieval.doc_term_evals": (("post_retrieval.rm1", "post_retrieval.rerank"),
                                      "doc_term_evals", (SYNTH, TOY)),
    "fusion.minmax_s": (("fusion.minmax",), None, (FUSION, TOY)),
    "fusion.ols_s": (("fusion.ols",), None, (FUSION, TOY)),
    "fusion.ridge_cv_s": (("fusion.ridge_cv",), None, (FUSION, TOY)),
    "fusion.lasso_cv_s": (("fusion.lasso_cv",), None, (FUSION, TOY)),
    "fusion.enet_cv_s": (("fusion.enet_cv",), None, (FUSION, TOY)),
    "fusion.lars_cv_s": (("fusion.lars_cv",), None, (FUSION, TOY)),
    "fusion.lars_traps_s": (("fusion.lars_traps",), None, (FUSION, TOY)),
    "fusion.bolasso_s": (("fusion.bolasso",), None, (FUSION, TOY)),
    "fusion.bolasso_cv_s": (("fusion.bolasso_cv",), None, (FUSION, TOY)),
    "fusion.predict_s": (("fusion.predict",), None, (FUSION, TOY)),
    "fusion.cv_select_calls": (FUSION_SPANS, "cv_select_calls", (FUSION, TOY)),
    "fusion.cv_select_raised": (FUSION_SPANS, "cv_select_raised", (FUSION, TOY)),
    "fusion.bolasso_resamples": (("fusion.bolasso",), "bolasso_resamples", (FUSION, TOY)),
    "fusion.bolasso_fits": (("fusion.bolasso",), "bolasso_fits", (FUSION, TOY)),
    "fusion.bolasso_empty_support": (("fusion.bolasso",), "bolasso_empty_support", (FUSION, TOY)),
    "evaluation.kendall_s": (("evaluation.kendall",), None, (DESIGN, FUSION, TOY)),
    "evaluation.kendall_pairs": (("evaluation.kendall",), "kendall_pairs", (DESIGN, FUSION, TOY)),
    "evaluation.pearson_s": (("evaluation.pearson",), None, (DESIGN, FUSION, TOY)),
    "evaluation.rmse_single_s": (("evaluation.rmse_single",), None, (DESIGN,)),
    "evaluation.rmse_single_calls": (("evaluation.rmse_single",), "rmse_single_calls", (DESIGN,)),
    "evaluation.corr_matrix_s": (("evaluation.corr_matrix",), None, (DESIGN, FUSION, TOY)),
    "experiment.run_s": (("experiment.run",), None, (TOY,)),
    "experiment.build_score_table_s": (("experiment.build_score_table",), None, (TOY,)),
    "experiment.split_predictions_s": (("experiment.split_predictions",), None, (FUSION, TOY)),
    "experiment.rows_from_predictions_s": (("experiment.rows_from_predictions",), None,
                                           (FUSION, TOY)),
    "experiment.hypothesis_s": (("experiment.hypothesis",), None, (FUSION, TOY)),
    "experiment.write_artifacts_s": (("experiment.write_artifacts",), None, (TOY,)),
    "experiment.artifact_bytes": (("experiment.write_artifacts",), "artifact_bytes", (TOY,)),
    "experiment.excluded_queries": (("experiment.run",), "excluded_queries", (TOY,)),
    "cli.config_s": (("cli.config",), None, (TOY, DESIGN)),
    "cli.command_s": (("cli.command",), None, (TOY, DESIGN)),
}
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s", "trace.uncovered_pct")
END_TO_END = ("setup_s", "wall_ref_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing checkout, crashed worker)."""


# ---------------------------------------------------------------------------
# inputs

def _write_config(path: Path, items: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()), encoding="utf-8")


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's input files in ``work``; returns what the run records."""
    info: dict = {"seed": seed}
    if workload == SYNTH:
        info.update(gen.make_corpus(work, seed, SYNTH_QUERIES, SYNTH_POST))
        _write_config(work / "synth.cfg", {
            "corpus.docs": "docs.jsonl", "corpus.format": "jsonl",
            "corpus.queries": "queries.tsv", "corpus.qrels": "qrels.txt",
            "corpus.lexicon": "lexicon.tsv", "seed": seed})
    elif workload == FUSION:
        info.update(gen.make_design(work / "design.tsv", seed, FUSION_ROWS))
        _write_config(work / "fusion.cfg", {
            "design": "design.tsv", "fusion.bolasso_b": FUSION_BOLASSO_B,
            "split.repeats": FUSION_SPLITS, "seed": seed})
    elif workload == DESIGN:
        info.update(gen.make_design(work / "design.tsv", seed, DESIGN_ROWS))
        _write_config(work / "design.cfg", {"design": "design.tsv", "corr.metric": "kendall"})
    (work / "inputs.json").write_text(json.dumps(info))
    return info


# ---------------------------------------------------------------------------
# repetitions

def run_worker(workload: str, work: Path, rep: int, mode: str, trace: bool,
               deadline: float) -> dict:
    result_path = work / f"rep{rep}-{mode}.json"
    log_path = work / f"rep{rep}-{mode}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(work), str(rep), mode,
            "1" if trace else "0", str(result_path)]
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()), check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} rep {rep} did not finish within {RUN_LIMIT_S} s") from exc
    log_text = log_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{workload} rep {rep} ({mode}) exited with {proc.returncode}:\n"
                         + log_text[-3000:])
    result = json.loads(result_path.read_text())
    result["warning_lines"] = sum(line.startswith("WARNING") for line in log_text.splitlines())
    return result


def run_reps(workload: str, work: Path, seconds: float, trace: bool, deadline: float):
    """Full repetitions until ``seconds`` pass (in trace mode: one untraced,
    then traced ones), then setup-only repetitions up to MIN_SETUPS."""
    full = []
    start = time.perf_counter()
    while True:
        full.append(run_worker(workload, work, len(full), "full", trace and len(full) > 0,
                               deadline))
        elapsed = time.perf_counter() - start
        if trace and len(full) < 2:
            continue
        if elapsed + elapsed / len(full) > seconds:
            break
    setups = list(full)
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, work, len(setups), "setup", False, deadline))
    return full, setups


# ---------------------------------------------------------------------------
# metrics

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; below 20 samples, where that would not exceed the
    median, the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def at_reference_speed(rep: dict) -> float:
    """Factor that rescales a repetition's times to the reference CPU speed."""
    return CAL_REF_S / statistics.median(rep["cal_s"])


def end_to_end(workload: str, full: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """The gated metrics, and the workload-specific figures recorded beside them."""
    latencies = [t for r in full for t in r["samples"]]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * at_reference_speed(r) for r in setups),
        "wall_ref_s": statistics.median(r["wall_s"] * at_reference_speed(r) for r in full),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in full),
    }
    # Latencies are recorded, not gated: on synth-corpus the rescaled median
    # moved 20% between two blocks of ten runs while wall_ref_s moved 5%.
    detail = {"op_p50_ref_ms": 1e3 * statistics.median(t * at_reference_speed(r) for r in full
                                                        for t in r["samples"]),
              "raw_setup_s": statistics.median(r["setup_s"] for r in setups),
              "wall_s": statistics.median(r["wall_s"] for r in full),
              "cal_loop_ms": 1e3 * statistics.median(t for r in full for t in r["cal_s"]),
              "op_p50_ms": 1e3 * statistics.median(latencies), "op_tail_ms": 1e3 * tail_s,
              "tail_percentile": tail_pct, "latency_samples": len(latencies),
              "setups": len(setups), "full_reps": len(full)}
    if workload == SYNTH:
        detail["retrieve_qps"] = statistics.median(r["extra"]["retrieve_qps"] for r in full)
        detail["score_qps"] = statistics.median(r["extra"]["score_qps"] for r in full)
        detail["query_p50_ms"] = detail["op_p50_ms"]
        detail["query_tail_ms"] = detail["op_tail_ms"]
    elif workload == FUSION:
        detail["split_p50_s"] = detail["op_p50_ms"] / 1e3
    elif workload == DESIGN:
        for kind in ("evaluate", "heatmap"):
            detail[f"{kind}_s"] = statistics.median(
                op["latency_s"] for r in full for op in r["ops"] if op["kind"] == kind)
    elif workload == TOY:
        detail["warning_lines_per_run"] = statistics.median(r["warning_lines"] for r in full)
    return metrics, detail


def per_layer(workload: str, full: list[dict], names: list[str]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics averaged over traced repetitions, plus coverage problems."""
    traced = [r for r in full if "spans" in r]
    by_span: dict[str, list[str]] = {}
    for name in names:
        for source in LAYER_METRICS.get(name, ((), None, ()))[0]:
            by_span.setdefault(source, []).append(name)
    sums = dict.fromkeys(names, 0.0)
    seen: set[str] = set()
    uncovered = []
    for r in traced:
        spans = r["spans"]
        for s, own in zip(spans, self_times(spans)):
            seen.add(s[0])
            for name in by_span.get(s[0], ()):
                key = LAYER_METRICS[name][1]
                sums[name] += own if key is None else (s[5] or {}).get(key, 0)
        covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
        uncovered.append(100.0 * (r["wall_s"] - covered) / r["wall_s"])
    metrics = {name: value / len(traced) for name, value in sums.items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - full[0]["wall_s"]
    metrics["trace.uncovered_pct"] = statistics.median(uncovered)
    problems = []
    for name in names:
        sources, _, exercised = LAYER_METRICS.get(name, ((), None, ()))
        if workload in exercised and not seen.intersection(sources):
            problems.append(f"{name}: no {'/'.join(sources)} span on {workload}")
    detail = {"traced_reps": len(traced), "untraced_wall_s": full[0]["wall_s"],
              "missing_trace_targets": sorted({m for r in traced for m in r["missing_targets"]}),
              "span_count_per_rep": sum(len(r["spans"]) for r in traced) / len(traced)}
    return {n: metrics[n] for n in names}, detail, problems


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "machine": platform.machine(),
    }
    if env["numba_importable"]:
        env["cd_kernel"] = "numba-jitted _cd_sweeps"
        print("WARNING: numba is importable, so fusion runs the jitted coordinate-descent "
              "kernel: a different program from the pure-Python path these figures are "
              "meant to track", file=sys.stderr)
    else:
        env["cd_kernel"] = "pure-Python _cd_sweeps"
    return env


# ---------------------------------------------------------------------------
# entry point

def bench_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen_start = time.perf_counter()
        inputs = make_inputs(workload, seed, work)
        gen_s = time.perf_counter() - gen_start
        full, setups = run_reps(workload, work, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in full for f in r["failures"]]
    digests = sorted({r["digest"] for r in full})
    if len(digests) > 1:
        failures.append(f"output digest differs between repetitions: {digests}")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, detail, problems = per_layer(workload, full, names)
        failures.extend(problems)
        if metrics.get("trace.uncovered_pct", 0.0) > UNCOVERED_LIMIT_PCT:
            print(f"WARNING: {metrics['trace.uncovered_pct']:.1f}% of traced wall time "
                  f"on {workload} is outside every span", file=sys.stderr)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, detail = end_to_end(workload, full, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ops = [op for r in full for op in r["ops"]]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures and all(op["ok"] for op in ops),
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {n: {"value": v, "unit": units.get(n, "")} for n, v in metrics.items()},
        "detail": detail,
        "digest": digests[0] if len(digests) == 1 else digests,
        "failures": failures,
        "generator_s": gen_s,
        "inputs": {k: v for k, v in inputs.items() if k != "post_qids"},
        "reps": [{k: v for k, v in r.items() if k not in ("spans", "ops")} for r in full],
    }


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"correct={str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["detail"].items():
        print(f"  {name}: {value}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "qppfuse" / "__init__.py", ROOT / "data" / "toy" / "experiment.cfg",
              ROOT / "tests" / "brute_force_reference.py", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a qppfuse checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = ([m["name"] for m in spec["end_to_end"] if m["name"] not in END_TO_END]
               + [m["name"] for m in spec["per_layer"]
                  if m["name"] not in LAYER_METRICS and m["name"] not in TRACE_METRICS])
    if unknown:
        print(f"error: BENCHMARK.json names metrics this benchmark does not define: {unknown}",
              file=sys.stderr)
        return 2
    env = environment()
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = bench_one(workload, args.seed, args.seconds, bool(args.trace), spec)
            result["environment"] = env
            path = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1))
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
