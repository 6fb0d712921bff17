import shutil

import numpy as np
import pytest

from qppfuse.cli import main
from qppfuse.corpus import load_stats
from qppfuse.fusion import ScoreTable


@pytest.fixture(scope="module")
def toy_cfg(toy_dir):
    return str(toy_dir / "experiment.cfg")


def run_cli(*args) -> int:
    return main(list(args))


def loo_rmse(x, y) -> float:
    """Closed-form leave-one-out RMSE of the one-variable fit y ~ x.

    The held-out residual of row i is e_i / (1 - h_ii), with e the full-fit
    residual and h_ii = 1/n + (x_i - mean x)^2 / Sxx the leverage.
    """
    xc = x - x.mean()
    sxx = float(xc @ xc)
    residual = y - y.mean() - (float(xc @ (y - y.mean())) / sxx) * xc
    leverage = 1.0 / x.size + xc**2 / sxx
    return float(np.sqrt(np.mean((residual / (1.0 - leverage)) ** 2)))


class TestCliBasics:
    def test_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("index")

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate", "--config", "x")

    def test_bad_config_path_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("index", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSubcommands:
    def test_index(self, toy_cfg, toy_index, tmp_path, capsys):
        out = tmp_path / "idx"
        assert run_cli("index", "--config", toy_cfg, "--out", str(out)) == 0
        assert load_stats(out / "index_stats.txt") == toy_index
        stats = (out / "index_stats.txt").read_text().splitlines()
        assert stats[1].startswith("N\t50")
        assert "indexed 50 documents" in capsys.readouterr().out

    def test_index_needs_no_queries(self, toy_dir, toy_index, tmp_path):
        config = tmp_path / "docs_only.cfg"
        config.write_text(f"corpus.docs = {toy_dir / 'docs.jsonl'}\n")
        assert run_cli("index", "--config", str(config), "--out", str(tmp_path)) == 0
        assert load_stats(tmp_path / "index_stats.txt") == toy_index

    def test_index_rejects_a_lone_surrogate_before_writing(self, tmp_path, capsys):
        # a "\ud800" escape decodes to a string UTF-8 cannot encode, so no dump could hold it
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"id": "d1", "text": "a b"}\n{"id": "d2", "text": "caf\\ud800 x"}\n')
        config = tmp_path / "index.cfg"
        config.write_text(f"corpus.docs = {docs}\ntokenize.split_non_alnum = false\n")
        out = tmp_path / "out"
        assert run_cli("index", "--config", str(config), "--out", str(out)) == 1
        assert f"error: {docs}:2: 'id' or 'text' holds a lone surrogate" in capsys.readouterr().err
        assert not (out / "index_stats.txt").exists()

    def test_retrieve(self, toy_cfg, tmp_path):
        out = tmp_path / "run"
        assert run_cli("retrieve", "--config", toy_cfg, "--out", str(out)) == 0
        lines = (out / "run.txt").read_text().splitlines()
        assert len(lines) > 12
        cells = lines[0].split()
        assert len(cells) == 6 and cells[1] == "Q0" and cells[3] == "1"

    def test_predict_pre(self, toy_cfg, tmp_path):
        out = tmp_path / "pre"
        assert run_cli("predict-pre", "--config", toy_cfg, "--out", str(out)) == 0
        long_lines = (out / "pre_scores.tsv").read_text().splitlines()
        assert len(long_lines) == 12 * 10  # queries x predictors
        wide = (out / "pre_scores_wide.tsv").read_text().splitlines()
        assert wide[0].split("\t")[1] == "AvgIDF"
        assert len(wide) == 13

    def test_predict_post(self, toy_cfg, tmp_path):
        out = tmp_path / "post"
        assert run_cli("predict-post", "--config", toy_cfg, "--out", str(out)) == 0
        long_lines = (out / "post_scores.tsv").read_text().splitlines()
        assert len(long_lines) == 12 * 6
        names = {line.split("\t")[1] for line in long_lines}
        assert names == {"Clarity", "WIG", "NQC", "UEF-NQC", "UEF-WIG", "UEF-Clarity"}

    def test_corpus_subcommands_match_the_experiment_table(self, toy_cfg, tmp_path):
        # one query stage: predict-pre and predict-post see what the experiment scores
        for cmd in ("predict-pre", "predict-post", "experiment"):
            assert run_cli(cmd, "--config", toy_cfg, "--out", str(tmp_path / cmd)) == 0
        table = ScoreTable.read_tsv(tmp_path / "experiment" / "score_table.tsv")
        assert len(table.query_ids) == 12
        assert table.column_names == ["MaxIDF", "AvgSCQ", "NQC", "Clarity"]
        for cmd, wide in (("predict-pre", "pre_scores_wide.tsv"),
                          ("predict-post", "post_scores_wide.tsv")):
            header, *rows = (tmp_path / cmd / wide).read_text().splitlines()
            names = header.split("\t")[1:]
            cells = {row.split("\t")[0]: dict(zip(names, row.split("\t")[1:])) for row in rows}
            assert list(cells) == table.query_ids
            for name in set(names) & set(table.column_names):
                assert [cells[q][name] for q in table.query_ids] == [
                    f"{v:.6f}" for v in table.columns[name]], name

    def test_bad_lexicon_fails_only_the_commands_that_read_it(self, toy_dir, tmp_path, capsys):
        bundle = tmp_path / "toy"
        shutil.copytree(toy_dir, bundle)
        (bundle / "lexicon.tsv").write_text("dog\tmany\t1\n")
        config = str(bundle / "experiment.cfg")
        for cmd, code in (("index", 0), ("retrieve", 0), ("predict-post", 0),
                          ("predict-pre", 1), ("experiment", 1)):
            capsys.readouterr()
            assert run_cli(cmd, "--config", config, "--out", str(tmp_path / cmd)) == code, cmd
            assert ("lexicon.tsv:1: non-integer sense count" in capsys.readouterr().err) == code

    def test_experiment_then_design_consumers(self, toy_cfg, toy_dir, tmp_path):
        out = tmp_path / "exp"
        assert run_cli("experiment", "--config", toy_cfg, "--seed", "7",
                       "--out", str(out)) == 0
        for name in ("report_aggregate.tsv", "report_splits.tsv", "corr_matrix.tsv",
                     "hypothesis.tsv", "score_table.tsv", "run.txt",
                     "excluded.tsv", "config_used.txt"):
            assert (out / name).exists(), name

        # the written score table is a valid design matrix for fuse/evaluate/heatmap
        design = out / "score_table.tsv"
        table = ScoreTable.read_tsv(design)
        assert len(table.query_ids) == 12

        cfg2 = tmp_path / "design.cfg"
        cfg2.write_text(
            f"design = {design}\n"
            "combiners = OLS,Ridge-CV\n"
            "fusion.k_folds = 3\n"
            # a design names its own columns; the commands below need no predictor list
            "predictors.pre =\n"
            "predictors.post =\n"
        )
        out2 = tmp_path / "fused"
        assert run_cli("fuse", "--config", str(cfg2), "--out", str(out2)) == 0
        assert (out2 / "model_OLS.txt").exists()
        assert (out2 / "model_Ridge-CV.txt").exists()
        predictions = (out2 / "predictions.tsv").read_text().splitlines()
        assert predictions[0] == "query_id\tOLS\tRidge-CV"
        assert len(predictions) == 13

        out3 = tmp_path / "eval"
        assert run_cli("evaluate", "--config", str(cfg2), "--out", str(out3)) == 0
        report = (out3 / "report.tsv").read_text().splitlines()
        assert report[0].startswith("predictor\ttau\trho")
        assert len(report) == 1 + len(table.column_names)

        out4 = tmp_path / "heat"
        assert run_cli("heatmap", "--config", str(cfg2), "--out", str(out4)) == 0
        matrix = (out4 / "corr_matrix.tsv").read_text().splitlines()
        assert matrix[0].split("\t")[1:] == table.column_names

    def test_evaluate_rmse_is_leave_one_out(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 9
        x = rng.standard_normal((n, 3))
        table = ScoreTable(query_ids=[f"q{i}" for i in range(n)],
                           columns={f"p{j}": x[:, j] for j in range(3)},
                           target=rng.uniform(0.0, 1.0, n))
        design = tmp_path / "design.tsv"
        table.write_tsv(design)
        cfg = tmp_path / "design.cfg"
        cfg.write_text(f"design = {design}\n")
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "report.tsv").read_text().splitlines()
        rmse_col = lines[0].split("\t").index("rmse")
        assert len(lines) == 1 + len(table.column_names)
        for line in lines[1:]:
            cells = line.split("\t")
            expected = loo_rmse(table.columns[cells[0]], table.target)
            assert float(cells[rmse_col]) == pytest.approx(expected, abs=5e-5)

    @staticmethod
    def _evaluate_rmse(tmp_path, columns, target):
        n = len(target)
        table = ScoreTable(query_ids=[f"q{i}" for i in range(n)],
                           columns={name: np.array(v) for name, v in columns.items()},
                           target=np.array(target))
        table.write_tsv(tmp_path / "design.tsv")
        cfg = tmp_path / "design.cfg"
        cfg.write_text(f"design = {tmp_path / 'design.tsv'}\n")
        assert run_cli("evaluate", "--config", str(cfg), "--out", str(tmp_path / "eval")) == 0
        header, *rows = (tmp_path / "eval" / "report.tsv").read_text().splitlines()
        rmse_col = header.split("\t").index("rmse")
        return {cells[0]: cells[rmse_col] for cells in (row.split("\t") for row in rows)}

    def test_evaluate_two_rows(self, tmp_path):
        # each left-out row leaves one row, whose AP is the prediction
        rmse = self._evaluate_rmse(tmp_path, {"p0": [1.0, 2.0], "p1": [5.0, 3.0]}, [0.2, 0.3])
        assert rmse == {"p0": "0.1000", "p1": "0.1000"}

    def test_evaluate_three_rows(self, tmp_path):
        rmse = self._evaluate_rmse(tmp_path, {"p0": [1.0, 2.0, 3.0], "p1": [2.0, 1.0, 2.0]},
                                   [0.1, 0.2, 0.3])
        assert rmse == {"p0": "0.0000", "p1": "0.1633"}

    def test_evaluate_logs_intercept_only_once_per_column(self, tmp_path, caplog):
        caplog.set_level("INFO", logger="qppfuse.evaluation")
        n = 30
        self._evaluate_rmse(tmp_path, {"flat": [0.5] * n, "lone": [1.0] + [0.0] * (n - 1),
                                       "varied": list(range(n))}, np.linspace(0.0, 1.0, n))
        assert len([r for r in caplog.records if "intercept-only" in r.getMessage()]) == 2

    def test_seed_flag_changes_split_outcomes(self, toy_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("experiment", "--config", toy_cfg, "--seed", "1", "--out", str(out_a))
        run_cli("experiment", "--config", toy_cfg, "--seed", "2", "--out", str(out_b))
        assert ((out_a / "report_splits.tsv").read_bytes()
                != (out_b / "report_splits.tsv").read_bytes())
