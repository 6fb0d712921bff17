"""Straight-line recomputation of every predictor over a tiny corpus.

Everything here is computed from the raw files with plain dictionaries,
lists, and explicit loops - no imports from the package - so the test
suite can compare the two code paths value by value. Two exceptions reuse
package fits in a loop the package no longer runs: ``bolasso_full_b`` runs
all b resamples, as an oracle for BOLASSO's early stop, and
``loo_rmse_loop`` makes the n leave-one-out fits that ``rmse_single``
replaces by its closed form. ``postings`` reads a package index, through its
attributes only, into the term -> {doc_id: tf} dicts the reference loops use,
and ``read_stats_dump`` reads a stats dump back into the same dicts.
Run as a script to print the full table:

    python3 tests/brute_force_reference.py data/toy
"""

import json
import math
import re
import sys


def tokenize(text):
    return [t for t in re.split(r"[^0-9a-zA-Z]+", text.lower()) if t]


def load_docs(path):
    docs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                record = json.loads(line)
                docs[record["id"]] = tokenize(record["text"])
    return docs


def load_queries(path):
    queries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                qid, text = line.split("\t", 1)
                queries.append((qid, tokenize(text)))
    return queries


def load_lexicon(path):
    lexicon = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                term, total, noun = line.split("\t")
                lexicon[term] = (int(total), int(noun))
    return lexicon


def stats(docs):
    n_docs = len(docs)
    total = 0
    df = {}
    cf = {}
    for tokens in docs.values():
        total += len(tokens)
        seen = set()
        for t in tokens:
            cf[t] = cf.get(t, 0) + 1
            if t not in seen:
                df[t] = df.get(t, 0) + 1
                seen.add(t)
    return n_docs, total, df, cf


def stats_dump(docs):
    """The text of ``qppfuse.corpus.dump_stats`` for ``docs`` (doc_id -> tokens): a header,
    N and |C|, a line per document (length) and per term (doc:tf cells), both ascending."""
    doc_ids = sorted(docs)
    tfs = {}
    for doc_id in doc_ids:
        for t in docs[doc_id]:
            cells = tfs.setdefault(t, {})
            cells[doc_id] = cells.get(doc_id, 0) + 1
    lines = ["# qppfuse-index stats v1", f"N\t{len(docs)}",
             f"C\t{sum(len(tokens) for tokens in docs.values())}"]
    lines += [f"doc\t{doc_id}\t{len(docs[doc_id])}" for doc_id in doc_ids]
    for t in sorted(tfs):
        lines.append("\t".join(["term", t] + [f"{d}:{tf}" for d, tf in tfs[t].items()]))
    return "".join(line + "\n" for line in lines)


def read_stats_dump(path):
    """(n_docs, total, doc_len, postings) of a stats dump: doc_id -> length and
    term -> {doc_id: tf}. A wrong header, a malformed record or statistics that
    break an index invariant raise ValueError naming the file (and the line)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# qppfuse-index stats v1":
        raise ValueError(f"{path}: not an index stats dump")
    n_docs = total = None
    doc_len = {}
    plists = {}
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split("\t")
        kind = parts[0]
        try:
            if kind == "N" and len(parts) == 2:
                n_docs = int(parts[1])
            elif kind == "C" and len(parts) == 2:
                total = int(parts[1])
            elif kind == "doc" and len(parts) == 3:
                doc_len[parts[1]] = int(parts[2])
            elif kind == "term" and len(parts) >= 2:
                plist = {}
                for cell in parts[2:]:
                    doc_id, _, tf = cell.rpartition(":")
                    if not doc_id or int(tf) < 1 or doc_id in plist:
                        raise ValueError(cell)
                    plist[doc_id] = int(tf)
                plists[parts[1]] = plist
            else:
                raise ValueError(kind)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed record {line!r}") from None
    if n_docs is None or total is None:
        raise ValueError(f"{path}: missing N or C")
    if n_docs != len(doc_len):
        raise ValueError(f"{path}: N = {n_docs} but {len(doc_len)} documents")
    if sum(doc_len.values()) != total:
        raise ValueError(f"{path}: sum of doc lengths != total_tokens")
    tf_sums = {}
    for term, plist in plists.items():
        if not plist:
            raise ValueError(f"{path}: df out of range for {term!r}")
        for doc_id, tf in plist.items():
            if doc_id not in doc_len:
                raise ValueError(f"{path}: postings of {term!r} name unknown documents")
            tf_sums[doc_id] = tf_sums.get(doc_id, 0) + tf
    bad = sorted(d for d, n in doc_len.items() if tf_sums.get(d, 0) != n)
    if bad:
        raise ValueError(f"{path}: sum of tf != doc length for documents {bad}")
    return n_docs, total, doc_len, plists


def postings(index):
    """term -> {doc_id: tf}, ascending doc_id, read from a package index's ``by_term`` rows."""
    plists = {}
    for r, term in enumerate(index.terms):
        docs, tfs = index.by_term.row(r)
        plists[term] = {index.doc_ids[d]: tf for d, tf in zip(docs.tolist(), tfs.tolist())}
    return plists


# Float sums below are explicit += loops, which add in sequence on every Python
# (builtin sum compensates from 3.12 on); squares stay Python's ** 2.

def seq_total(values):
    total = 0.0
    for v in values:
        total += v
    return total


def mean(values):
    return seq_total(values) / len(values)


def pop_std(values):
    m = mean(values)
    ss = 0.0
    for v in values:
        ss += (v - m) ** 2
    return math.sqrt(ss / len(values))


def pearson_plain(xs, ys):
    mx, my = mean(xs), mean(ys)
    sxy = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        sxy += (x - mx) * (y - my)
        sxx += (x - mx) ** 2
        syy += (y - my) ** 2
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


# --- pre-retrieval ---------------------------------------------------------

def pre_values(docs, query_terms, lexicon):
    n_docs, total, df, cf = stats(docs)
    terms = []
    for t in query_terms:  # distinct terms, first-seen order
        if t not in terms:
            terms.append(t)

    idfs = [math.log(n_docs / df[t]) for t in terms if t in df]
    scqs = [(1 + math.log(cf[t])) * math.log(1 + n_docs / df[t]) for t in terms if t in df]
    variances = []
    for t in terms:
        if t not in df:
            continue
        weights = []
        for tokens in docs.values():
            tf = tokens.count(t)
            if tf > 0:
                weights.append((1 + math.log(tf)) * math.log(n_docs / df[t]))
        variances.append(pop_std(weights))
    senses = [lexicon[t] for t in terms if t in lexicon]

    return {
        "AvgIDF": mean(idfs) if idfs else 0.0,
        "MaxIDF": max(idfs) if idfs else 0.0,
        "SumSCQ": seq_total(scqs),
        "AvgSCQ": mean(scqs) if scqs else 0.0,
        "MaxSCQ": max(scqs) if scqs else 0.0,
        "SumVAR": seq_total(variances),
        "AvgVAR": mean(variances) if variances else 0.0,
        "MaxVAR": max(variances) if variances else 0.0,
        "AvP": mean([s[0] for s in senses]) if senses else 0.0,
        "AvNP": mean([s[1] for s in senses]) if senses else 0.0,
    }


# --- retrieval -------------------------------------------------------------

def doc_score(docs, cf, total, query_terms, doc_id, mu):
    tokens = docs[doc_id]
    score = 0.0
    for t in query_terms:
        if cf.get(t, 0) == 0:
            continue
        tf = tokens.count(t)
        score += math.log((tf + mu * cf[t] / total) / (len(tokens) + mu))
    return score


def rank_docs(docs, cf, total, query_terms, mu, k):
    candidates = set()
    for t in set(query_terms):
        if cf.get(t, 0) > 0:
            for doc_id, tokens in docs.items():
                if t in tokens:
                    candidates.add(doc_id)
    scored = [(d, doc_score(docs, cf, total, query_terms, d, mu)) for d in candidates]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def collection_loglik(cf, total, query_terms):
    return seq_total(math.log(cf[t] / total) for t in query_terms if cf.get(t, 0) > 0)


# --- post-retrieval --------------------------------------------------------

def relevance_model(docs, cf, total, ranked, k_fb, mu):
    top = ranked[:k_fb]
    max_score = max(s for _, s in top)
    exps = [math.exp(s - max_score) for _, s in top]
    z = seq_total(exps)
    weights = [e / z for e in exps]
    vocab = []
    for doc_id, _ in top:
        for t in docs[doc_id]:
            if t not in vocab:
                vocab.append(t)
    probs = {}
    for t in vocab:
        p = 0.0
        for (doc_id, _), w in zip(top, weights):
            tokens = docs[doc_id]
            p += w * ((tokens.count(t) + mu * cf[t] / total) / (len(tokens) + mu))
        probs[t] = p
    mass = seq_total(probs.values())
    return {t: p / mass for t, p in probs.items()}


def post_values(docs, query_terms, ranked, k_fb, wig_k, nqc_k, uef_m, mu):
    _, total, df, cf = stats(docs)
    cl = collection_loglik(cf, total, query_terms)

    rm = relevance_model(docs, cf, total, ranked, k_fb, mu)
    clarity = seq_total(p * math.log2(p / (cf[t] / total)) for t, p in rm.items())

    k_eff = min(wig_k, len(ranked))
    wig = seq_total(s - cl for _, s in ranked[:k_eff]) / (k_eff * math.sqrt(len(query_terms)))

    if len(ranked) < 2:
        nqc = 0.0
    else:
        nqc = pop_std([s for _, s in ranked[:nqc_k]]) / abs(cl)

    top_m = ranked[:uef_m]
    rm_scores = []
    for doc_id, _ in top_m:
        tokens = docs[doc_id]
        s = 0.0
        for t, p in rm.items():
            s += p * math.log((tokens.count(t) + mu * cf[t] / total) / (len(tokens) + mu))
        rm_scores.append(s)
    sim = pearson_plain([s for _, s in top_m], rm_scores) if len(top_m) >= 2 else None

    values = {"Clarity": clarity, "WIG": wig, "NQC": nqc}
    for base in ("NQC", "WIG", "Clarity"):
        values[f"UEF-{base}"] = None if sim is None else sim * values[base]
    return values


def compute_all(data_dir, mu=1000.0, k=1000, k_fb=10, wig_k=5, nqc_k=10, uef_m=10):
    """Per-query dict of all 16 predictor values plus the ranked lists."""
    docs = load_docs(f"{data_dir}/docs.jsonl")
    queries = load_queries(f"{data_dir}/queries.tsv")
    lexicon = load_lexicon(f"{data_dir}/lexicon.tsv")
    _, total, df, cf = stats(docs)
    results = {}
    for qid, terms in queries:
        ranked = rank_docs(docs, cf, total, terms, mu, k)
        values = pre_values(docs, terms, lexicon)
        values.update(post_values(docs, terms, ranked, k_fb, wig_k, nqc_k, uef_m, mu))
        results[qid] = values
    return results


def bolasso_full_b(table, b, threshold, k_folds=5, lam_grid=None, seed=0):
    """BOLASSO over every one of its b resamples, on the same seed streams."""
    import numpy as np

    from qppfuse.fusion import RegressionModel, cv_select, lambda_max, ols_fit
    from qppfuse.seeding import derive_seed

    counts = {name: 0 for name in table.column_names}
    for i in range(b):
        rng = np.random.default_rng(derive_seed(seed, "bootstrap", i))
        sample = table.subset(rng.integers(0, table.n_rows, size=table.n_rows))
        if lambda_max(sample) > 0.0:
            _, model = cv_select(sample, "lasso", lam_grid=lam_grid, k_folds=k_folds,
                                 seed=derive_seed(seed, "cv", i))
            for name in model.support:
                counts[name] += 1
    kept = [name for name in table.column_names if counts[name] >= threshold * b - 1e-9]
    if not kept:
        return RegressionModel("BOLASSO", float(table.target.mean()),
                               {name: 0.0 for name in table.column_names},
                               hyperparameters={"support_counts": counts})
    refit = ols_fit(table.with_columns(kept))
    coefficients = {name: refit.coefficients.get(name, 0.0) for name in table.column_names}
    return RegressionModel("BOLASSO", refit.intercept, coefficients,
                           hyperparameters={"support_counts": counts})


def loo_rmse_loop(x, y):
    """Leave-one-out RMSE of y ~ x from n train/test fits of ``single_fit_predictions``."""
    from qppfuse.evaluation import single_fit_predictions

    n = len(y)
    sq_sum = 0.0
    for i in range(n):
        train = [j for j in range(n) if j != i]
        y_hat = single_fit_predictions(x, y, train, [i])[0]
        sq_sum += (float(y[i]) - float(y_hat)) ** 2
    return math.sqrt(sq_sum / n)


def main():
    data_dir = sys.argv[1] if len(sys.argv) > 1 else "data/toy"
    results = compute_all(data_dir)
    names = list(next(iter(results.values())).keys())
    print("query_id\t" + "\t".join(names))
    for qid, values in results.items():
        cells = "\t".join("nan" if values[n] is None else f"{values[n]:.10f}" for n in names)
        print(f"{qid}\t{cells}")


if __name__ == "__main__":
    main()
