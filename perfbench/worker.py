"""One repetition of one workload, in a process of its own.

    python3 perfbench/worker.py WORKLOAD WORKDIR REP MODE TRACE RESULT_JSON

MODE is ``full`` (set up, run every operation, check outputs) or ``setup``
(set up only). The clock starts just before the package is imported, so
``setup_s`` covers imports, config loading and, on synth-corpus, ingest,
index build and the loaders. ``wall_s`` runs from the same start to the end
of the program's work; output checks run afterwards and are not timed.
The parent reads RESULT_JSON; ``PYTHONPATH`` must point at the checkout's
``src``.

Before the clock starts, after it stops and between operations (at most
every CAL_EVERY_S) the worker times a fixed pure-Python loop; the parent
uses those samples to express times at a reference CPU speed. The loop's
own time is left out of every timing.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans as tracing  # perfbench/spans.py: the script's directory is on sys.path

CAL_LOOPS = 200_000
CAL_EVERY_S = 0.5

ROOT = Path(__file__).resolve().parent.parent
TOY_CONFIG = ROOT / "data" / "toy" / "experiment.cfg"


class Rep:
    """State of one repetition: timings, operations, failures, outputs."""

    def __init__(self, work: Path, rep: int, tracer):
        self.cal: list[float] = []  # seconds per calibration loop
        self.cal_inside = 0.0  # calibration time inside the timed window
        self._last_cal = -CAL_EVERY_S
        self.work = work
        self.inputs = json.loads((work / "inputs.json").read_text())
        self.out = work / f"out{rep}"
        self.tracer = tracer
        self.setup_end = None
        self.ops: list[dict] = []
        self.samples: list[float] = []  # latencies the op_p50/op_tail metrics describe
        self.failures: list[str] = []
        self.extra: dict = {}
        self.digest_parts: list[bytes] = []

    def setup_done(self):
        self.setup_end = time.perf_counter()

    def calibrate(self, inside: bool = True) -> None:
        """Time the reference loop, unless one ran within CAL_EVERY_S.

        Traced repetitions calibrate only outside the timed window, so spans
        never contain the loop.
        """
        start = time.perf_counter()
        if inside and (self.tracer is not None or start - self._last_cal < CAL_EVERY_S):
            return
        s = 0
        for i in range(CAL_LOOPS):
            s += i * i
        self._last_cal = time.perf_counter()
        self.cal.append(self._last_cal - start)
        if inside:
            self.cal_inside += self._last_cal - start

    def op(self, kind: str, fn, *args):
        """Time one operation; an exception fails it and returns None."""
        self.ops.append({"kind": kind, "ok": True, "latency_s": 0.0})
        return self.extend(len(self.ops) - 1, kind, fn, *args)

    def extend(self, index: int, kind: str, fn, *args):
        """Run (more of) operation ``index``, adding to its latency."""
        self.calibrate()
        record = self.ops[index]
        if self.tracer is not None:
            self.tracer.op = index
        cal_before = self.cal_inside
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.fail(index, f"{kind} raised:\n{traceback.format_exc()}")
            result = None
        record["latency_s"] += time.perf_counter() - start - (self.cal_inside - cal_before)
        record["kind"] = kind
        if self.tracer is not None:
            self.tracer.op = -1
        return result

    def fail(self, index: int, message: str):
        self.ops[index]["ok"] = False
        self.failures.append(f"op {index} ({self.ops[index]['kind']}): {message}")

    def digest_files(self, directory: Path, skip=()):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and path.name not in skip:
                self.digest_parts.append(path.relative_to(directory).as_posix().encode())
                self.digest_parts.append(path.read_bytes())


def _capture(pkg, rep: Rep, captured: list):
    """Record cv_select calls made outside BOLASSO, for the KKT check.

    Installed in every run, traced or not, so both measure the same code;
    it adds one Python call per cv_select.
    """
    fusion = pkg.fusion
    undo: list = []
    depth = [0]
    cv_select, bolasso = fusion.cv_select, fusion.bolasso

    def cv_wrapper(table, method, *args, **kwargs):
        result = cv_select(table, method, *args, **kwargs)
        if depth[0] == 0:
            alpha = kwargs.get("alpha", args[3] if len(args) > 3 else 0.5)
            captured.append((len(rep.ops) - 1, table, method, alpha, result))
        return result

    def bolasso_wrapper(*args, **kwargs):
        depth[0] += 1
        try:
            return bolasso(*args, **kwargs)
        finally:
            depth[0] -= 1

    tracing.patch_everywhere(cv_select, cv_wrapper, undo)
    tracing.patch_everywhere(bolasso, bolasso_wrapper, undo)
    return undo


def peak_rss_mb() -> float:
    """High-water RSS of this process.

    VmHWM belongs to the process's own address space; ru_maxrss would also
    carry the parent's RSS across fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads: each sets up, runs its operations and writes its outputs

def toy_experiment(rep: Rep, setup_only: bool):
    import qppfuse.cli as cli
    from qppfuse.experiment import ExperimentConfig, evaluate_split

    ExperimentConfig.from_file(TOY_CONFIG)
    rep.setup_done()
    if setup_only:
        return

    def calibrated_split(*args, **kwargs):
        rep.calibrate()  # the run is one ~25 s operation; sample the CPU speed inside it
        return evaluate_split(*args, **kwargs)

    undo: list = []
    tracing.patch_everywhere(evaluate_split, calibrated_split, undo)
    argv = ["experiment", "--config", str(TOY_CONFIG),
            "--seed", str(rep.inputs["seed"]), "--out", str(rep.out)]
    code = rep.op("experiment", cli.main, argv)
    tracing.restore(undo)
    if code != 0:
        rep.fail(0, f"qppfuse experiment exited with {code}")


def synth_corpus(rep: Rep, setup_only: bool):
    from qppfuse.corpus import build_index, ingest, load_lexicon, load_qrels, load_queries
    from qppfuse.experiment import ExperimentConfig
    from qppfuse.post_retrieval import compute_post_scores
    from qppfuse.pre_retrieval import compute_pre_scores
    from qppfuse.retrieval import average_precision, retrieve, write_run_file

    config = ExperimentConfig.from_file(rep.work / "synth.cfg")
    tok = config.tokenizer_config()
    index = build_index(ingest(config.docs, config.corpus_format), tok)
    queries = load_queries(config.queries, tok)
    qrels = load_qrels(config.qrels)
    lexicon = load_lexicon(config.lexicon)
    rep.setup_done()
    if setup_only:
        return

    def light(query):
        ranked = retrieve(index, query, k=config.k, mu=config.mu)
        ap = average_precision(ranked, qrels, cutoff=config.k)
        pre = compute_pre_scores(index, query, lexicon, distinct=config.distinct_terms)
        return ranked, ap, pre

    def full(query, ranked):
        return compute_post_scores(
            index, query, ranked, k_fb=config.k_fb, wig_k=config.wig_k,
            nqc_k=config.nqc_k, uef_m=config.uef_m, mu=config.mu, uef_sim=config.uef_sim)

    results = {}
    start = time.perf_counter()
    for query in queries:
        results[query.query_id] = rep.op("query", light, query)
    retrieve_s = time.perf_counter() - start
    post_qids = set(rep.inputs["post_qids"])
    post = {}
    for i, query in enumerate(queries):
        if query.query_id in post_qids and results[query.query_id] is not None:
            post[query.query_id] = rep.extend(i, "query+post", full, query,
                                              results[query.query_id][0])
    rep.samples = [op["latency_s"] for op in rep.ops if op["kind"] == "query+post"]
    write_run_file(rep.out / "run.txt", [r[0] for r in results.values() if r is not None])
    rep.extra.update({
        "retrieve_qps": len(queries) / retrieve_s,
        "score_qps": len(rep.samples) / sum(rep.samples) if rep.samples else None,
    })
    rep.synth = (index, queries, results, post, config)


def paper_fusion(rep: Rep, setup_only: bool):
    import numpy as np
    import qppfuse
    from qppfuse.evaluation import ReportRow, predictor_correlation_matrix
    from qppfuse.experiment import (ExperimentConfig, hypothesis_report, make_split_plan,
                                    rows_from_predictions, split_predictions)
    from qppfuse.fusion import ScoreTable
    from qppfuse.seeding import derive_seed

    config = ExperimentConfig.from_file(rep.work / "fusion.cfg")
    table = ScoreTable.read_tsv(config.design)
    plan = make_split_plan(config, table.query_ids)
    rep.setup_done()
    if setup_only:
        return
    captured = []
    undo = _capture(qppfuse, rep, captured)
    pos = {qid: i for i, qid in enumerate(table.query_ids)}

    def split(s, train_ids, test_ids):
        seed = derive_seed(config.seed, config.protocol, s, "fit")
        predictions = split_predictions(table, train_ids, test_ids, config, seed)
        y_test = table.target[[pos[q] for q in test_ids]]
        return predictions, rows_from_predictions(predictions, y_test, config.combiners)

    per_split = []
    for s, (train_ids, test_ids) in enumerate(plan.pairs):
        per_split.append(rep.op("split", split, s, train_ids, test_ids))
    tracing.restore(undo)
    done = [rows for _, rows in filter(None, per_split)]
    if done:
        n_singles = len(table.column_names)
        names = [r.predictor for r in done[0]]
        metrics = ("tau", "rho", "ci_low", "ci_high", "smare", "rmse", "p_value")
        aggregate = []
        for i, name in enumerate(names):
            row = ReportRow(predictor=name)
            for m in metrics:
                values = [getattr(rows[i], m) for rows in done]
                values = [v for v in values if v is not None and not np.isnan(v)]
                setattr(row, m, float(np.mean(values)) if values else float("nan"))
            aggregate.append(row)
        corr = predictor_correlation_matrix(table.columns, metric=config.corr_metric)
        hypothesis = hypothesis_report(
            corr, aggregate[:n_singles], aggregate[n_singles:],
            h1_mean=config.h1_mean, h2_mean=config.h2_mean,
            h3_frac=config.h3_frac, h3_rho=config.h3_rho)
        rep.summary = (corr, hypothesis)
    rep.fusion = (per_split, captured, config)


def design_eval(rep: Rep, setup_only: bool):
    import qppfuse.cli as cli
    from qppfuse.experiment import ExperimentConfig

    config_path = rep.work / "design.cfg"
    ExperimentConfig.from_file(config_path)
    rep.setup_done()
    if setup_only:
        return
    for command in ("evaluate", "heatmap"):
        code = rep.op(command, cli.main,
                      [command, "--config", str(config_path), "--out", str(rep.out)])
        if code != 0:
            rep.fail(len(rep.ops) - 1, f"qppfuse {command} exited with {code}")


WORKLOADS = {
    "toy-experiment": toy_experiment,
    "synth-corpus": synth_corpus,
    "paper-fusion": paper_fusion,
    "design-eval": design_eval,
}


def main(argv) -> int:
    workload, work, rep_index, mode, trace_flag, result_path = argv
    work = Path(work)
    tracer = tracing.Tracer() if trace_flag == "1" and mode == "full" else None
    rep = Rep(work, int(rep_index), tracer)
    rep.out.mkdir(parents=True, exist_ok=True)
    rep.calibrate(inside=False)

    t0 = time.perf_counter()  # program time starts here, before the package is imported
    import qppfuse
    import qppfuse.cli  # noqa: F401  (the CLI imports every layer)
    import_end = time.perf_counter()
    if tracer is not None:
        tracer.span("setup.import", t0, import_end)
        tracer.install(qppfuse)
    WORKLOADS[workload](rep, mode == "setup")
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    rep.calibrate(inside=False)

    result = {
        "setup_s": rep.setup_end - t0,
        "wall_s": end - t0 - rep.cal_inside,
        "import_s": import_end - t0,
        "cal_s": rep.cal,
        "peak_rss_mb": peak_rss_mb(),
    }
    if mode == "full":
        check_start = time.perf_counter()
        import checks
        checks.CHECKS[workload](rep)
        result.update({
            "ops": rep.ops,
            "samples": rep.samples or [op["latency_s"] for op in rep.ops],
            "failures": rep.failures,
            "extra": rep.extra,
            "digest": hashlib.sha256(b"\0".join(rep.digest_parts)).hexdigest(),
            "check_s": time.perf_counter() - check_start,
        })
        if tracer is not None:
            result["spans"] = tracer.export()
            result["missing_targets"] = tracer.missing
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
