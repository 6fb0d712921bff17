"""Output checks and digests, run after a repetition's timed work.

Each check fails the operation whose output is wrong. The oracles do not
share code with what they check: the toy predictors against the loop-based
reference in ``tests/brute_force_reference.py``, Kendall cells against
``scipy.stats.kendalltau``, leave-one-out RMSE against the closed form
e_i / (1 - h_ii), and the rest against invariants (Dirichlet re-scoring,
RM1 mass, KKT conditions, finiteness).
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

TOL = 1e-9
FOUR_DECIMALS = 5e-5 + 1e-9  # a value written with 4 decimals, plus float slack
KKT_TOL = 1e-5
RESCORE_QUERIES = 5
RESCORE_DEPTH = 10
RM1_QUERIES = 2


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _read_tsv(path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:] if line]


def _cell(text: str) -> float:
    return math.nan if text == "nan" else float(text)


def toy_experiment(rep) -> None:
    from qppfuse.experiment import ExperimentConfig

    out = rep.out
    rep.digest_files(out, skip={"config_used.txt"})
    if not rep.ops[0]["ok"]:
        return
    spec = importlib.util.spec_from_file_location(
        "brute_force_reference", ROOT / "tests" / "brute_force_reference.py")
    brute = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(brute)
    cfg = ExperimentConfig.from_file(ROOT / "data" / "toy" / "experiment.cfg")
    reference = brute.compute_all(str(ROOT / "data" / "toy"), mu=cfg.mu, k=cfg.k, k_fb=cfg.k_fb,
                                  wig_k=cfg.wig_k, nqc_k=cfg.nqc_k, uef_m=cfg.uef_m)
    header, rows = _read_tsv(out / "score_table.tsv")
    for row in rows:
        for name, text in zip(header[1:-1], row[1:-1]):
            expected = reference[row[0]][name]
            if expected is None or not _close(float(text), expected):
                rep.fail(0, f"score_table {row[0]} {name}: {text} != reference {expected!r}")

    # the aggregate row is the mean of the per-split rows, NaN splits skipped
    header, split_rows = _read_tsv(out / "report_splits.tsv")
    by_name: dict[str, list[list[float]]] = {}
    for row in split_rows:
        by_name.setdefault(row[1], []).append([_cell(c) for c in row[2:]])
    agg_header, agg_rows = _read_tsv(out / "report_aggregate.tsv")
    for row in agg_rows:
        per_split = np.array(by_name[row[0]])
        for j, text in enumerate(row[1:]):
            values = per_split[:, j][~np.isnan(per_split[:, j])]
            mean = float(values.mean()) if values.size else math.nan
            got = _cell(text)
            if math.isnan(mean) != math.isnan(got) or (
                    not math.isnan(got) and abs(got - mean) > 2 * FOUR_DECIMALS):
                rep.fail(0, f"aggregate {row[0]} {agg_header[j + 1]}: {got} != split mean {mean}")


def synth_corpus(rep) -> None:
    from qppfuse.post_retrieval import rm1
    from qppfuse.retrieval import score_dirichlet

    index, queries, results, post, config = rep.synth
    rep.digest_files(rep.out)
    for qid, values in post.items():
        rep.digest_parts.append(repr((qid, sorted(values.items()))).encode())
    for query, result in zip(queries, results.values()):
        if result is not None:
            rep.digest_parts.append(repr((query.query_id, result[1], sorted(result[2].items()))).encode())

    rng = np.random.default_rng([rep.inputs["seed"], 3])
    position = {q.query_id: i for i, q in enumerate(queries)}
    done = [i for i, q in enumerate(queries) if results[q.query_id] is not None]
    for i in sorted(rng.choice(done, size=min(RESCORE_QUERIES, len(done)), replace=False).tolist()):
        query = queries[i]
        ranked, ap, _ = results[query.query_id]
        if not 0.0 <= ap <= 1.0:
            rep.fail(i, f"AP {ap} outside [0, 1]")
        entries = ranked.entries
        if any((-s1, d1) > (-s2, d2) for (d1, s1), (d2, s2) in zip(entries, entries[1:])):
            rep.fail(i, "ranked list not sorted by (score desc, doc_id asc)")
        for doc_id, score in entries[:RESCORE_DEPTH]:
            again = score_dirichlet(index, query.terms, doc_id, mu=config.mu)
            if not _close(score, again):
                rep.fail(i, f"{doc_id} scored {score!r}, score_dirichlet gives {again!r}")
    for qid, values in post.items():
        if values is None:
            continue
        bad = [k for k, v in values.items()
               if (v is None and not k.startswith("UEF-")) or (v is not None and not math.isfinite(v))]
        if bad:
            rep.fail(position[qid], f"post-retrieval values undefined or non-finite: {bad}")
    sample = sorted(q for q, v in post.items() if v is not None)
    for qid in rng.choice(sample, size=min(RM1_QUERIES, len(sample)), replace=False).tolist():
        mass = rm1(index, results[qid][0], k_fb=config.k_fb, mu=config.mu).total_mass()
        if abs(mass - 1.0) > TOL:
            rep.fail(position[qid], f"RM1 mass {mass!r} is not 1")


def paper_fusion(rep) -> None:
    from qppfuse.fusion import lasso_kkt_residual

    per_split, captured, config = rep.fusion
    for s, result in enumerate(per_split):
        if result is None:
            continue
        predictions, rows = result
        for name in sorted(predictions):
            values = np.asarray(predictions[name], dtype=float)
            rep.digest_parts.append(name.encode() + values.tobytes())
            if not np.all(np.isfinite(values)):
                rep.fail(s, f"non-finite predictions from {name}")
        rep.digest_parts.append(repr([vars(r) for r in rows]).encode())
    if hasattr(rep, "summary"):
        corr, hypothesis = rep.summary
        rep.digest_parts.append(repr((corr.matrix.tolist(), vars(hypothesis))).encode())
    checked = 0
    for s, table, method, alpha, (lam, model) in captured:
        if method not in ("lasso", "enet") or per_split[s] is None:
            continue
        residual = lasso_kkt_residual(table, model, lam, 1.0 if method == "lasso" else alpha)
        checked += 1
        if residual > KKT_TOL:
            rep.fail(s, f"{method} model at lam={lam!r}: KKT residual {residual:.3g}")
    rep.extra["kkt_models_checked"] = checked
    if checked < 2 * sum(r is not None for r in per_split):
        rep.failures.append(f"expected a LASSO-CV and an E-Net model per split, checked {checked}")


def _loo_rmse(x: np.ndarray, y: np.ndarray) -> float:
    """Leave-one-out RMSE of the one-variable least-squares fit, in closed form."""
    n = x.size
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = 0.0 if sxx == 0.0 else float(xc @ (y - y.mean())) / sxx
    residual = y - (y.mean() + slope * xc)
    leverage = 1.0 / n + (xc * xc / sxx if sxx else 0.0)
    return float(np.sqrt(np.mean((residual / (1.0 - leverage)) ** 2)))


def design_eval(rep) -> None:
    from scipy.stats import kendalltau

    rep.digest_files(rep.out)
    header, rows = _read_tsv(rep.work / "design.tsv")
    names = header[1:-1]
    data = np.array([[float(c) for c in row[1:]] for row in rows])
    x, y = data[:, :-1], data[:, -1]
    evaluate, heatmap = 0, 1

    if rep.ops[heatmap]["ok"]:
        corr_header, corr_rows = _read_tsv(rep.out / "corr_matrix.tsv")
        if corr_header[1:] != names:
            rep.fail(heatmap, "corr_matrix.tsv columns differ from the design")
        else:
            for i, row in enumerate(corr_rows):
                for j in range(i + 1, len(names)):
                    expected = float(kendalltau(x[:, i], x[:, j]).statistic)
                    got = _cell(row[j + 1])
                    if math.isnan(expected) != math.isnan(got) or abs(got - expected) > FOUR_DECIMALS:
                        rep.fail(heatmap, f"kendall {names[i]}/{names[j]}: {got} != scipy {expected}")

    if rep.ops[evaluate]["ok"]:
        j = int(np.random.default_rng([rep.inputs["seed"], 4]).integers(len(names)))
        report_header, report_rows = _read_tsv(rep.out / "report.tsv")
        row = next(r for r in report_rows if r[0] == names[j])
        got = _cell(row[report_header.index("rmse")])
        expected = _loo_rmse(x[:, j], y)
        if abs(got - expected) > FOUR_DECIMALS:
            rep.fail(evaluate, f"LOO RMSE of {names[j]}: {got} != closed form {expected}")


CHECKS = {
    "toy-experiment": toy_experiment,
    "synth-corpus": synth_corpus,
    "paper-fusion": paper_fusion,
    "design-eval": design_eval,
}
