"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and the seed; nothing imports the
package under test, so the generated inputs (and the oracle data written
beside them) are independent of the code being timed.

Two generators:

* ``make_corpus``: a Zipf-Mandelbrot corpus of jsonl documents, queries of
  1-6 terms drawn from head, torso and tail ranks, synthetic qrels and a
  sense lexicon.  Query lengths and strata come in fixed proportions, so a
  new seed changes which words are drawn, not how hard the queries are.
* ``make_design``: a wide design TSV (query_id, 16 predictor columns, AP)
  whose continuous columns have an exactly pinned sample correlation
  matrix: four families with within-family rho = WITHIN_RHO and
  cross-family rho = CROSS_RHO, plus one tied, discrete AvP-like column.
  Pinning matters because fusion cost depends strongly on conditioning.
"""

import json
import math
from collections import Counter

import numpy as np

# ---------------------------------------------------------------------------
# corpus

N_DOCS = 10_000
VOCAB = 20_000
ZIPF_S = 1.0
ZIPF_Q = 2.7  # Mandelbrot shift: flattens the very top ranks
DOC_LEN_MEDIAN = 165
DOC_LEN_SIGMA = 0.45
HEAD_RANKS = (0, 60)
TORSO_RANKS = (60, 3_000)
TAIL_RANKS = (3_000, VOCAB)
# per query slot: 1 head, 2 torso, 1 tail in every 4 slots
STRATA_CYCLE = ("head", "torso", "tail", "torso")
QUERY_LENGTHS = (1, 2, 3, 4, 5, 6)
LEXICON_RANKS = 4_000
POST_MIN_DF = 500


def _word(i: int) -> str:
    """Deterministic alphabetic word for vocabulary slot ``i``."""
    letters = []
    i += 26 * 26  # at least three letters
    while i:
        i, r = divmod(i, 26)
        letters.append(chr(ord("a") + r))
    return "".join(reversed(letters))


def _sdf_bin(sdf: int) -> str:
    """Log10 bucket label for a query's summed document frequency."""
    if sdf <= 0:
        return "0"
    lo = 10 ** int(math.log10(sdf))
    return f"{lo}-{lo * 10 - 1}"


def make_corpus(out_dir, seed: int, n_queries: int, n_post: int) -> dict:
    """Write docs.jsonl, queries.tsv, qrels.txt, lexicon.tsv into ``out_dir``.

    Returns the realized descriptors and the ids of the post-retrieval
    subset, which the program never sees.
    """
    rng = np.random.default_rng([seed, 1])
    ranks = np.arange(VOCAB)
    weights = 1.0 / (ranks + 1 + ZIPF_Q) ** ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    word_of_rank = rng.permutation(VOCAB)  # which word sits at which rank

    lengths = np.clip(
        np.round(DOC_LEN_MEDIAN * np.exp(DOC_LEN_SIGMA * rng.standard_normal(N_DOCS))),
        20, 2_000).astype(np.int64)
    rank_draws = np.minimum(np.searchsorted(cdf, rng.random(int(lengths.sum()))), VOCAB - 1)
    doc_of_token = np.repeat(np.arange(N_DOCS), lengths)

    # (doc, rank) postings from the draws, computed without the package
    keys = np.unique(doc_of_token * VOCAB + rank_draws)
    post_doc, post_rank = np.divmod(keys, VOCAB)
    df = np.bincount(post_rank, minlength=VOCAB)
    order = np.argsort(post_rank, kind="stable")
    docs_by_rank = np.split(post_doc[order], np.cumsum(df)[:-1])

    words = [_word(int(w)) for w in word_of_rank]
    doc_ids = [f"D{i:05d}" for i in range(N_DOCS)]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    with open(f"{out_dir}/docs.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for i in range(N_DOCS):
            text = " ".join(words[r] for r in rank_draws[bounds[i]:bounds[i + 1]].tolist())
            fh.write(json.dumps({"id": doc_ids[i], "text": text}) + "\n")

    strata = {
        "head": np.arange(*HEAD_RANKS),
        "torso": np.arange(*TORSO_RANKS),
        "tail": np.arange(*TAIL_RANKS),
    }
    strata = {k: v[df[v] > 0] for k, v in strata.items()}
    q_lengths = np.resize(np.array(QUERY_LENGTHS), n_queries)
    rng.shuffle(q_lengths)
    slot = 0
    queries = []
    for qi, qlen in enumerate(q_lengths.tolist()):
        chosen: list[int] = []
        while len(chosen) < qlen:
            pool = strata[STRATA_CYCLE[slot % len(STRATA_CYCLE)]]
            slot += 1
            r = int(pool[rng.integers(pool.size)])
            if r not in chosen:
                chosen.append(r)
        queries.append((f"Q{qi:04d}", chosen))

    qrels_lines = []
    for qid, chosen in queries:
        rarest = min(chosen, key=lambda r: df[r])
        cand = docs_by_rank[rarest]
        n_rel = min(cand.size, 1 + int(rng.integers(0, 20)))
        relevant = rng.choice(cand, size=n_rel, replace=False)
        judged_non = rng.choice(N_DOCS, size=10, replace=False)
        grades = {int(d): 0 for d in judged_non}
        grades.update({int(d): 1 + int(rng.integers(0, 2)) for d in relevant})
        for d in sorted(grades):
            qrels_lines.append(f"{qid} 0 {doc_ids[d]} {grades[d]}\n")
    with open(f"{out_dir}/queries.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for qid, chosen in queries:
            fh.write(f"{qid}\t{' '.join(words[r] for r in chosen)}\n")
    with open(f"{out_dir}/qrels.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(qrels_lines)
    with open(f"{out_dir}/lexicon.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for r in range(LEXICON_RANKS):
            total = 1 + int(rng.integers(0, 12))
            fh.write(f"{words[r]}\t{total}\t{int(rng.integers(0, total + 1))}\n")

    sdf = [int(df[chosen].sum()) for _, chosen in queries]
    # The post-retrieval subset holds only queries that retrieve at least
    # POST_MIN_DF documents, so every one runs at the full feedback depth and
    # the subset's cost does not swing with the seed.
    broad = [i for i, (_, chosen) in enumerate(queries) if int(df[chosen].max()) >= POST_MIN_DF]
    post = rng.choice(broad, size=n_post, replace=False)
    return {
        "descriptors": {
            "docs": N_DOCS,
            "tokens": int(lengths.sum()),
            "postings": int(keys.size),
            "vocabulary": int((df > 0).sum()),
            "queries": n_queries,
            "post_subset": n_post,
            "query_length_hist": dict(sorted(Counter(q_lengths.tolist()).items())),
            "sum_df_hist": dict(sorted(Counter(_sdf_bin(s) for s in sdf).items(),
                                       key=lambda kv: int(kv[0].split("-")[0]))),
            "post_subset_sum_df": sorted(sdf[i] for i in post.tolist()),
        },
        "post_qids": sorted(queries[i][0] for i in post.tolist()),
    }


# ---------------------------------------------------------------------------
# design matrix

FAMILIES = {
    "idf": ("AvgIDF", "MaxIDF", "AvNP"),
    "scq": ("SumSCQ", "AvgSCQ", "MaxSCQ"),
    "var": ("SumVAR", "AvgVAR", "MaxVAR"),
    "post": ("Clarity", "WIG", "NQC", "UEF-NQC", "UEF-WIG", "UEF-Clarity"),
}
TIED_COLUMN = "AvP"
WITHIN_RHO = 0.80
CROSS_RHO = 0.30
TIED_RHO = 0.20  # AvP latent vs every other column
TARGET_RHO = (0.35, 0.25, 0.20, 0.40)  # AP latent vs each family
ZERO_AP_SHARE = 0.2


def _target_correlation() -> tuple[list[str], np.ndarray]:
    names = [n for cols in FAMILIES.values() for n in cols]
    fam = [k for k, cols in enumerate(FAMILIES.values()) for _ in cols]
    m = len(names)
    sigma = np.empty((m + 2, m + 2))
    for i in range(m):
        for j in range(m):
            sigma[i, j] = 1.0 if i == j else (WITHIN_RHO if fam[i] == fam[j] else CROSS_RHO)
    sigma[m, :m] = sigma[:m, m] = TIED_RHO
    sigma[m + 1, :m] = sigma[:m, m + 1] = [TARGET_RHO[f] for f in fam]
    sigma[m, m + 1] = sigma[m + 1, m] = TIED_RHO
    sigma[m, m] = sigma[m + 1, m + 1] = 1.0
    return names, sigma


def make_design(path, seed: int, n_rows: int) -> dict:
    """Write a wide design TSV at ``path`` and return its realized descriptors."""
    rng = np.random.default_rng([seed, 2])
    names, sigma = _target_correlation()
    d = sigma.shape[0]
    # Columns of q are centered and exactly orthonormal, so q @ chol.T has
    # sample correlation exactly sigma, whatever the seed.
    z = rng.standard_normal((n_rows, d))
    z -= z.mean(axis=0)
    q, r = np.linalg.qr(z)
    q *= np.sign(np.diag(r)) * math.sqrt(n_rows - 1)
    latent = q @ np.linalg.cholesky(sigma).T
    m = len(names)
    scales = np.linspace(1.0, 9.0, m)
    columns = {n: 2.0 + scales[j] * (latent[:, j] - latent[:, j].min()) for j, n in enumerate(names)}
    # AvP: average sense counts are coarse fractions, so the column is heavily tied
    columns[TIED_COLUMN] = 1.0 + np.floor(
        np.argsort(np.argsort(latent[:, m])) * 12 / n_rows) / 2.0
    u = latent[:, m + 1]
    lo, hi = np.quantile(u, [ZERO_AP_SHARE, 0.995])
    ap = np.clip((u - lo) / (hi - lo), 0.0, 1.0) ** 1.5
    all_names = names + [TIED_COLUMN]
    x = np.column_stack([columns[n] for n in all_names])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("query_id\t" + "\t".join(all_names) + "\tAP\n")
        for i in range(n_rows):
            cells = "\t".join(repr(float(v)) for v in x[i])
            fh.write(f"P{i:05d}\t{cells}\t{float(ap[i])!r}\n")

    corr = np.corrcoef(x, rowvar=False)
    fam = [k for k, cols in enumerate(FAMILIES.values()) for _ in cols]
    within = [corr[i, j] for i in range(m) for j in range(i + 1, m) if fam[i] == fam[j]]
    cross = [corr[i, j] for i in range(m) for j in range(i + 1, m) if fam[i] != fam[j]]
    xs = (x - x.mean(axis=0)) / x.std(axis=0)
    return {
        "descriptors": {
            "rows": n_rows,
            "columns": len(all_names),
            "within_family_rho": float(np.mean(within)),
            "cross_family_rho": float(np.mean(cross)),
            "condition_number": float(np.linalg.cond(xs)),
            "zero_ap_share": float(np.mean(ap == 0.0)),
            "tied_column_levels": int(np.unique(columns[TIED_COLUMN]).size),
        },
    }
