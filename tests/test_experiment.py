import math
import re
from pathlib import Path

import numpy as np
import pytest

from qppfuse import fusion
from qppfuse.evaluation import ReportRow, predictor_correlation_matrix
from qppfuse.experiment import (
    ExperimentConfig,
    HarnessError,
    SplitPlan,
    build_score_table,
    fit_combiner,
    hypothesis_report,
    import_external_scores,
    make_split_plan,
    run_experiment,
    split_fixed,
    split_leave_one_out,
    split_predictions,
    split_random_halves,
)
from qppfuse.fusion import ScoreTable, cv_select, fit_penalized, lambda_grid, lasso_kkt_residual
from qppfuse.seeding import derive_seed


def toy_config(toy_dir, out="", **overrides) -> ExperimentConfig:
    config = ExperimentConfig.from_file(toy_dir / "experiment.cfg")
    config.out = str(out) if out else ""
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestSplits:
    def test_halves_minimal(self):
        plan = split_random_halves(["a", "b", "c", "d"], repeats=1, seed=0)
        train, test = plan.pairs[0]
        assert len(train) == 2 and len(test) == 2
        assert set(train) | set(test) == {"a", "b", "c", "d"}
        assert not set(train) & set(test)

    def test_halves_deterministic(self):
        ids = [f"q{i}" for i in range(10)]
        assert split_random_halves(ids, 5, seed=7) == split_random_halves(ids, 5, seed=7)
        assert split_random_halves(ids, 5, seed=7) != split_random_halves(ids, 5, seed=8)

    def test_halves_all_partitions(self):
        ids = [f"q{i}" for i in range(100)]
        plan = split_random_halves(ids, repeats=30, seed=3)
        assert len(plan.pairs) == 30
        plan.validate(ids)
        for train, test in plan.pairs:
            assert len(train) == 50

    def test_halves_odd_count_rounds_up(self):
        plan = split_random_halves([f"q{i}" for i in range(7)], repeats=2, seed=0)
        for train, test in plan.pairs:
            assert len(train) == 4 and len(test) == 3

    def test_halves_too_few(self):
        with pytest.raises(HarnessError):
            split_random_halves(["a", "b", "c"], repeats=1, seed=0)

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_halves_need_a_repeat(self, repeats):
        with pytest.raises(HarnessError, match="split.repeats must be >= 1"):
            split_random_halves([f"q{i}" for i in range(6)], repeats=repeats, seed=0)

    def test_loo(self):
        plan = split_leave_one_out(["a", "b", "c"])
        assert len(plan.pairs) == 3
        assert {test[0] for _, test in plan.pairs} == {"a", "b", "c"}
        plan.validate(["a", "b", "c"])

    def test_loo_two_queries(self):
        assert len(split_leave_one_out(["a", "b"]).pairs) == 2

    def test_loo_too_few(self):
        with pytest.raises(HarnessError):
            split_leave_one_out(["a"])

    def test_fixed(self):
        plan = split_fixed(["a", "b", "c"], ["a", "b"], ["c"])
        assert plan.pairs == ((("a", "b"), ("c",)),)

    def test_fixed_rejects_bad_partition(self):
        with pytest.raises(HarnessError):
            split_fixed(["a", "b", "c"], ["a"], ["c"])

    def test_validate_rejects_overlap(self):
        plan = SplitPlan("fixed", 0, ((("a", "b"), ("b", "c")),))
        with pytest.raises(HarnessError, match="overlap"):
            plan.validate(["a", "b", "c"])


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "halves", 0) == derive_seed(1, "halves", 0)
        assert derive_seed(1, "halves", 0) != derive_seed(1, "halves", 1)
        assert derive_seed(1, "halves", 0) != derive_seed(2, "halves", 0)

    def test_adding_tasks_preserves_earlier_seeds(self):
        first = [derive_seed(9, "halves", i) for i in range(5)]
        second = [derive_seed(9, "halves", i) for i in range(10)]
        assert second[:5] == first


class TestImportExternalScores:
    def test_full_coverage(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\t0.5\nq2\t0.25\n")
        column = import_external_scores(path, ["q1", "q2"])
        assert column == {"q1": 0.5, "q2": 0.25}

    def test_missing_id_rejected_with_listing(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\t0.5\n")
        with pytest.raises(HarnessError, match="q2"):
            import_external_scores(path, ["q1", "q2"])

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\t0.5\nq1\t0.6\n")
        with pytest.raises(HarnessError, match="duplicate"):
            import_external_scores(path, ["q1"])

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\tabc\n")
        with pytest.raises(HarnessError, match="non-numeric"):
            import_external_scores(path, ["q1"])

    def test_extra_ids_tolerated(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\t0.5\nq9\t0.1\n")
        assert import_external_scores(path, ["q1"]) == {"q1": 0.5}


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.mu == 1000.0 and config.k == 1000
        assert config.repeats == 30 and config.k_folds == 5
        assert config.protocol == "halves"

    def test_from_file(self, toy_dir):
        config = ExperimentConfig.from_file(toy_dir / "experiment.cfg")
        assert config.mu == 1000.0
        assert config.k_fb == 10
        assert config.combiners[0] == "OLS"
        assert config.pre_predictors == ("MaxIDF", "AvgSCQ")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("retrieval.muu = 1000\n")
        with pytest.raises(HarnessError, match="unknown config key"):
            ExperimentConfig.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("corpus.docs = nowhere.jsonl\n")
        with pytest.raises(HarnessError, match="not found"):
            ExperimentConfig.from_file(path)

    def test_external_scores_resolve_against_config_dir(self, tmp_path, monkeypatch):
        confdir = tmp_path / "conf"
        (confdir / "scores").mkdir(parents=True)
        scores = confdir / "scores" / "x.tsv"
        scores.write_text("q1\t0.5\n")
        (confdir / "exp.cfg").write_text(f"external.scores = X=scores/x.tsv, Y={scores}\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        config = ExperimentConfig.from_file(Path("..") / "conf" / "exp.cfg")
        (_, x_path), (_, y_path) = config.external_scores
        assert Path(x_path).resolve() == scores.resolve() and Path(y_path) == scores
        assert import_external_scores(x_path, ["q1"]) == {"q1": 0.5}

    def test_missing_external_scores_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("external.scores = X=nowhere.tsv\n")
        with pytest.raises(HarnessError, match=r"bad\.cfg:1: config key external\.scores: "
                                               r"external\.scores not found: .*nowhere\.tsv"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("mu", ["0", "-5"])
    def test_nonpositive_mu_rejected(self, tmp_path, mu):
        path = tmp_path / "bad.cfg"
        path.write_text(f"retrieval.mu = {mu}\n")
        with pytest.raises(HarnessError, match="retrieval.mu must be > 0"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("line", ["retrieval.k = 1e3", "retrieval.mu = fast",
                                      "tokenize.stem = maybe", "external.scores = X"])
    def test_bad_value_names_line_and_key(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(HarnessError, match=rf"bad\.cfg:3: config key {key}: "):
            ExperimentConfig.from_file(path)

    def test_duplicate_predictor_names_rejected(self):
        config = ExperimentConfig(external_scores=(("NQC", "x"),))
        with pytest.raises(HarnessError, match="unique"):
            config.validate()

    def test_resolved_items_round_trip(self, toy_dir, tmp_path):
        config = ExperimentConfig.from_file(toy_dir / "experiment.cfg")
        dump = tmp_path / "resolved.cfg"
        with open(dump, "w") as fh:
            for key, value in config.resolved_items():
                fh.write(f"{key} = {value}\n")
        reparsed = ExperimentConfig.from_file(dump, base_dir=".")
        assert reparsed == config

    @pytest.mark.parametrize("line", [
        "corpus.format = xml", "retrieval.k = 0", "postret.k_fb = 0", "postret.wig_k = 0",
        "postret.wig_k = -1", "postret.nqc_k = 0", "postret.uef_sim = cosine",
        "predictors.pre = MaxIDF,Magic", "combiners = OLS,Magic", "fusion.k_folds = 1",
        "fusion.grid_size = 0", "fusion.grid_ratio = 0", "fusion.enet_alpha = 1.5",
        "fusion.bolasso_b = 1", "fusion.bolasso_threshold = 0", "split.protocol = random",
        "split.repeats = 0", "corr.metric = spearman", "postret.uef_m = 0",
        "postret.uef_m = -3", "fusion.n_traps = -4", "split.tuning_fraction = -1",
        "split.tuning_fraction = 0", "split.tuning_fraction = 1.5",
        "fusion.grid_ratio = 1", "fusion.grid_ratio = 5", "hypothesis.h1_mean = 1.5",
        "hypothesis.h2_mean = -2", "hypothesis.h3_rho = -3", "hypothesis.h3_frac = -1",
        "hypothesis.h3_frac = 0", "hypothesis.h3_frac = 1.5"])
    def test_bad_value_fails_its_check_at_its_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(HarnessError, match=rf"bad\.cfg:3: config key {key}: "):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"k_folds": 1}, "config key fusion.k_folds: fusion.k_folds must be >= 2, got 1"),
        ({"combiners": ("OLS", "Magic")}, "config key combiners: combiners has unknown names: Magic"),
        ({"protocol": "fixed"}, "fixed protocol needs split.train_file and split.test_file"),
    ])
    def test_validate_names_the_key(self, overrides, message):
        with pytest.raises(HarnessError, match=re.escape(message)):
            ExperimentConfig(**overrides).validate()

    def test_readme_config_reference_is_the_default_config(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config reference", 1)[1].split("```\n", 2)[1]
        path = tmp_path / "reference.cfg"
        path.write_text(block)
        assert ExperimentConfig.from_file(path) == ExperimentConfig()
        listed = [line.split("=", 1)[0].strip() for line in block.splitlines()
                  if not line.lstrip().startswith("#")]
        assert listed == [key for key, _ in ExperimentConfig().resolved_items()]


class TestBuildScoreTable:
    def test_toy_table(self, toy_dir):
        config = toy_config(toy_dir)
        table, excluded, ranked_lists, index = build_score_table(config)
        assert len(table.query_ids) == 12
        assert excluded == {}
        assert table.column_names == ["MaxIDF", "AvgSCQ", "NQC", "Clarity"]
        assert np.all((table.target >= 0) & (table.target <= 1))

    def test_avp_without_lexicon_fails_before_ingest(self):
        # corpus.docs is unset: reaching ingest would fail with another error
        with pytest.raises(HarnessError, match="AvP/AvNP require corpus.lexicon"):
            build_score_table(ExperimentConfig())

    def test_unjudged_query_excluded(self, toy_dir, tmp_path):
        queries = (toy_dir / "queries.tsv").read_text() + "q99\tnebula comet\n"
        qpath = tmp_path / "queries.tsv"
        qpath.write_text(queries)
        config = toy_config(toy_dir, queries=str(qpath))
        table, excluded, _, _ = build_score_table(config)
        assert "q99" in excluded and "relevant" in excluded["q99"]
        assert len(table.query_ids) == 12

    def test_degenerate_query_excluded(self, toy_dir, tmp_path):
        queries = (toy_dir / "queries.tsv").read_text() + "q98\txyzzy qwerty\n"
        qpath = tmp_path / "queries.tsv"
        qpath.write_text(queries)
        config = toy_config(toy_dir, queries=str(qpath))
        _, excluded, _, _ = build_score_table(config)
        assert "q98" in excluded and "collection" in excluded["q98"]

    def test_external_column_joined(self, toy_dir, tmp_path):
        base = toy_config(toy_dir)
        table, _, _, _ = build_score_table(base)
        spath = tmp_path / "neural.tsv"
        with open(spath, "w") as fh:
            for i, qid in enumerate(table.query_ids):
                fh.write(f"{qid}\t{0.1 * i}\n")
        config = toy_config(toy_dir, external_scores=(("BERT-QPP", str(spath)),))
        table2, _, _, _ = build_score_table(config)
        assert table2.column_names[-1] == "BERT-QPP"
        np.testing.assert_allclose(table2.columns["BERT-QPP"],
                                   [0.1 * i for i in range(12)])


class TestRunExperiment:
    def test_deterministic_artifacts(self, toy_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config_a = toy_config(toy_dir, out=out_a, repeats=3, bolasso_b=10)
        config_b = toy_config(toy_dir, out=out_b, repeats=3, bolasso_b=10)
        run_experiment(config_a)
        run_experiment(config_b)
        for name in ("report_aggregate.tsv", "report_splits.tsv", "corr_matrix.tsv",
                     "score_table.tsv", "run.txt", "excluded.tsv", "hypothesis.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_aggregate_is_mean_of_splits(self, toy_dir):
        config = toy_config(toy_dir, repeats=4, bolasso_b=10)
        result = run_experiment(config)
        for i, row in enumerate(result.aggregate):
            for metric in ("tau", "rho", "smare", "rmse"):
                values = [getattr(split[i], metric) for split in result.per_split]
                values = [v for v in values if v is not None and not math.isnan(v)]
                expected = float(np.mean(values)) if values else math.nan
                actual = getattr(row, metric)
                if math.isnan(expected):
                    assert math.isnan(actual)
                else:
                    assert actual == pytest.approx(expected, abs=1e-12)

    def test_single_predictor_ols_equivalence(self, toy_dir):
        # one predictor + OLS: the combiner IS the single-predictor fit
        config = toy_config(toy_dir, repeats=4,
                            pre_predictors=("MaxIDF",), post_predictors=(),
                            combiners=("OLS",))
        result = run_experiment(config)
        for split_rows in result.per_split:
            single, combined = split_rows
            assert single.predictor == "MaxIDF" and combined.predictor == "OLS"
            assert combined.tau == pytest.approx(single.tau, abs=1e-9)
            assert combined.rho == pytest.approx(single.rho, abs=1e-9)
            assert combined.smare == pytest.approx(single.smare, abs=1e-9)
            assert combined.rmse == pytest.approx(single.rmse, abs=1e-9)

    def test_identity_target_column(self, toy_dir, tmp_path):
        # an external column exactly equal to AP predicts perfectly, as long
        # as the train rows span the AP range (test values are clamped to
        # the train min-max box)
        base = toy_config(toy_dir)
        table, _, _, _ = build_score_table(base)
        spath = tmp_path / "oracle.tsv"
        with open(spath, "w") as fh:
            for qid, ap in zip(table.query_ids, table.target):
                fh.write(f"{qid}\t{float(ap)!r}\n")
        order = np.argsort(table.target)
        extremes = [table.query_ids[order[0]], table.query_ids[order[-1]]]
        train_ids = list(dict.fromkeys(extremes + table.query_ids))[:8]
        test_ids = [q for q in table.query_ids if q not in train_ids]
        train_file = tmp_path / "train.txt"
        test_file = tmp_path / "test.txt"
        train_file.write_text("\n".join(train_ids) + "\n")
        test_file.write_text("\n".join(test_ids) + "\n")
        config = toy_config(toy_dir, protocol="fixed", train_file=str(train_file),
                            test_file=str(test_file), k_folds=2,
                            external_scores=(("Oracle", str(spath)),))
        result = run_experiment(config)
        oracle_row = next(r for r in result.per_split[0] if r.predictor == "Oracle")
        assert oracle_row.tau == pytest.approx(1.0, abs=1e-9)
        assert oracle_row.rho == pytest.approx(1.0, abs=1e-9)
        assert oracle_row.smare == pytest.approx(0.0, abs=1e-9)
        assert oracle_row.rmse == pytest.approx(0.0, abs=1e-9)

    def test_loo_protocol_pools_predictions(self, toy_dir):
        config = toy_config(toy_dir, protocol="loo",
                            combiners=("OLS", "Ridge-CV"), k_folds=2)
        result = run_experiment(config)
        assert len(result.plan.pairs) == 12
        assert len(result.per_split) == 1  # one pooled evaluation
        pooled = result.per_split[0]
        for agg_row, pooled_row in zip(result.aggregate, pooled):
            assert agg_row.predictor == pooled_row.predictor
            for metric in ("tau", "rho", "smare", "rmse"):
                assert getattr(agg_row, metric) == getattr(pooled_row, metric)
        # pooled correlations run over the full query set
        row = pooled[0]
        assert row.ci_low is not None

    def test_fixed_protocol(self, toy_dir, tmp_path):
        base = toy_config(toy_dir)
        table, _, _, _ = build_score_table(base)
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("\n".join(table.query_ids[:8]) + "\n")
        test.write_text("\n".join(table.query_ids[8:]) + "\n")
        config = toy_config(toy_dir, protocol="fixed", train_file=str(train),
                            test_file=str(test), combiners=("OLS", "LASSO-CV"),
                            k_folds=2)
        result = run_experiment(config)
        assert len(result.per_split) == 1
        assert result.plan.pairs[0][0] == tuple(table.query_ids[:8])

    def test_fixed_protocol_refits_on_train_at_tuned_lam(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 3))
        train = ScoreTable(query_ids=[f"q{i}" for i in range(40)],
                           columns={f"p{j}": x[:, j] for j in range(3)},
                           target=x @ [0.5, -0.3, 0.0] + 0.5 * rng.standard_normal(40))
        config = ExperimentConfig(protocol="fixed", tuning_fraction=0.25, k_folds=2,
                                  grid_size=20)
        seed = 5
        # the tuning subset fit_combiner draws: 10 of the 40 train rows
        rng_tune = np.random.default_rng(derive_seed(seed, "tuning-sample"))
        tuning = train.subset(np.sort(rng_tune.choice(40, size=10, replace=False)))
        grid = lambda_grid(train, num=20, ratio=config.grid_ratio)
        lam_star, tuned = cv_select(tuning, "lasso", lam_grid=grid, k_folds=2,
                                    seed=derive_seed(seed, "cv"))
        # tuning on all of train would pick another lam
        assert lam_star != cv_select(train, "lasso", lam_grid=grid, k_folds=2,
                                     seed=derive_seed(seed, "cv"))[0]
        model = fit_combiner("LASSO-CV", train, config, seed)
        assert model == fit_penalized(train, "lasso", lam_star)
        assert model != tuned


class TestToyFusionCorrectness:
    def test_chosen_lasso_and_enet_models_satisfy_kkt(self, toy_dir, monkeypatch):
        # every LASSO-CV and E-Net model of the first toy splits must solve its
        # own problem at the chosen lam; BOLASSO's inner CV calls are not kept
        config = toy_config(toy_dir)
        table, _, _, _ = build_score_table(config)
        plan = make_split_plan(config, table.query_ids)
        cv_select_orig, bolasso_orig = fusion.cv_select, fusion.bolasso
        in_bolasso = [0]
        chosen = []

        def capturing_cv_select(tbl, method, *args, **kwargs):
            lam, model = cv_select_orig(tbl, method, *args, **kwargs)
            if not in_bolasso[0]:
                chosen.append((tbl, method, kwargs["alpha"], lam, model))
            return lam, model

        def counting_bolasso(*args, **kwargs):
            in_bolasso[0] += 1
            try:
                return bolasso_orig(*args, **kwargs)
            finally:
                in_bolasso[0] -= 1

        monkeypatch.setattr(fusion, "cv_select", capturing_cv_select)
        monkeypatch.setattr(fusion, "bolasso", counting_bolasso)
        n_splits = 4
        for s, (train_ids, test_ids) in enumerate(plan.pairs[:n_splits]):
            seed = derive_seed(config.seed, config.protocol, s, "fit")
            split_predictions(table, train_ids, test_ids, config, seed)
        # one LASSO-CV and one E-Net per split; Ridge-CV has no KKT conditions
        methods = sorted(method for _, method, _, _, _ in chosen)
        assert methods == ["enet"] * n_splits + ["lasso"] * n_splits + ["ridge"] * n_splits
        for tbl, method, alpha, lam, model in chosen:
            if method != "ridge":
                l1_share = 1.0 if method == "lasso" else alpha
                assert lasso_kkt_residual(tbl, model, lam, l1_share) <= 1e-6


def _fixture_matrix(values):
    names = [f"p{i}" for i in range(len(values))]
    return predictor_correlation_matrix(
        {n: np.asarray(v, dtype=float) for n, v in zip(names, values)})


def _rows(**named_rho):
    return [ReportRow(name, tau=r, rho=r, smare=0.2, rmse=0.2)
            for name, r in named_rho.items()]


class TestHypothesisReport:
    def _matrix(self, pairwise):
        # build a CorrMatrix directly from a hand-specified symmetric matrix
        from qppfuse.evaluation import CorrMatrix

        m = np.array(pairwise, dtype=float)
        names = [f"p{i}" for i in range(m.shape[0])]
        return CorrMatrix(names=names, matrix=m, metric="pearson")

    def test_h1_high_correlation_zero_delta(self):
        matrix = self._matrix([[1.0, 0.9, 0.9], [0.9, 1.0, 0.9], [0.9, 0.9, 1.0]])
        report = hypothesis_report(matrix, _rows(a=0.5, b=0.45), _rows(ols=0.5))
        assert report.regime == "H1"
        assert report.consistent

    def test_h2_low_correlation_positive_delta(self):
        matrix = self._matrix([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]])
        report = hypothesis_report(matrix, _rows(a=0.5), _rows(ols=0.6))
        assert report.regime == "H2"
        assert report.consistent

    def test_h3_negative_pairs_negative_delta(self):
        # 2 of 10 pairs at -0.4 (20%), the rest high
        m = np.full((5, 5), 0.8)
        np.fill_diagonal(m, 1.0)
        m[0, 1] = m[1, 0] = -0.4
        m[2, 3] = m[3, 2] = -0.4
        matrix = self._matrix(m)
        report = hypothesis_report(matrix, _rows(a=0.5), _rows(ols=0.4))
        assert report.regime == "H3"
        assert report.consistent
        assert report.frac_negative == pytest.approx(0.2)

    def test_none_regime(self):
        matrix = self._matrix([[1.0, 0.4], [0.4, 1.0]])
        report = hypothesis_report(matrix, _rows(a=0.5), _rows(ols=0.5))
        assert report.regime == "none"
