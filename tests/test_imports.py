"""The package namespace and the import boundary of the design-side commands.

``import qppfuse`` loads no submodule: each public name resolves from its home
module when it is read. ``fuse``, ``evaluate``, ``heatmap`` and ``experiment`` on a
design table run without the corpus layers; the runs here are in fresh
interpreters, so an import the package made earlier in the suite cannot hide one.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qppfuse
from qppfuse.fusion import ScoreTable

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SUBMODULES = ("cli", "corpus", "evaluation", "experiment", "fusion", "post_retrieval",
              "pre_retrieval", "retrieval", "seeding")
CORPUS_SIDE = {"qppfuse.corpus", "qppfuse.retrieval", "qppfuse.pre_retrieval",
               "qppfuse.post_retrieval"}
LOADED = "print(*sorted(m for m in sys.modules if m.startswith('qppfuse.')))"


def fresh(code: str, *args) -> str:
    """Standard output of ``code`` in a new interpreter with ``src/`` first on its path;
    ``sys.argv[2:]`` holds ``args``."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
         str(SRC), *map(str, args)],
        capture_output=True, text=True, check=True, cwd=REPO).stdout


def test_import_loads_no_submodule():
    assert fresh("import qppfuse; " + LOADED).split() == []


@pytest.fixture(scope="module")
def design_config(tmp_path_factory):
    """A 16-query, 3-predictor design table and a quick config on it."""
    tmp = tmp_path_factory.mktemp("design")
    rng = np.random.default_rng(7)
    x = rng.random((16, 3))
    target = np.clip(0.6 * x[:, 0] + 0.2 * rng.random(16), 0.0, 1.0)
    ScoreTable([f"q{i}" for i in range(16)], {f"p{j}": x[:, j] for j in range(3)},
               target).write_tsv(tmp / "design.tsv")
    config = tmp / "design.cfg"
    config.write_text("design = design.tsv\nfusion.k_folds = 2\nfusion.bolasso_b = 5\n"
                      "split.repeats = 2\n")
    return config


@pytest.mark.parametrize("command", ["fuse", "evaluate", "heatmap", "experiment"])
def test_design_command_leaves_the_corpus_layers_out(design_config, tmp_path, command):
    out = fresh("from qppfuse.cli import main; "
                "assert main([sys.argv[2], '--config', sys.argv[3], '--out', sys.argv[4]]) == 0; "
                + LOADED, command, design_config, tmp_path / command)
    loaded = set(out.splitlines()[-1].split())
    assert "qppfuse.experiment" in loaded and not loaded & CORPUS_SIDE, out
    assert any((tmp_path / command).iterdir())


def test_corpus_experiment_loads_the_corpus_layers(toy_dir, tmp_path):
    # the other side of the boundary: the query stage imports what it runs
    out = fresh("from qppfuse.cli import main; "
                "assert main(['experiment', '--config', sys.argv[2], '--out', sys.argv[3]]) == 0; "
                + LOADED, toy_dir / "experiment.cfg", tmp_path)
    assert CORPUS_SIDE <= set(out.splitlines()[-1].split()), out
    assert (tmp_path / "run.txt").exists()


def test_public_names_are_their_home_modules_objects():
    for name in qppfuse.__all__:
        value = getattr(qppfuse, name)
        homes = [module for module in map(importlib.import_module,
                                          (f"qppfuse.{m}" for m in SUBMODULES))
                 if name in getattr(module, "__all__", ())]
        assert homes and all(getattr(module, name) is value for module in homes), name


def test_submodule_names_resolve_to_the_submodules():
    for name in SUBMODULES:
        assert getattr(qppfuse, name) is importlib.import_module(f"qppfuse.{name}")


def test_dir_lists_every_public_name_and_submodule():
    assert set(qppfuse.__all__) | set(SUBMODULES) <= set(dir(qppfuse))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'build_indexes'"):
        qppfuse.build_indexes
    assert not hasattr(qppfuse, "Rows")  # a corpus name that the package does not export
    with pytest.raises(ImportError):
        from qppfuse import build_indexes  # noqa: F401


def test_moved_names_keep_their_old_homes():
    from qppfuse import evaluation, experiment, retrieval, seeding
    from qppfuse.post_retrieval import POST_PREDICTORS
    from qppfuse.pre_retrieval import PRE_PREDICTORS, write_scores_long, write_scores_wide
    assert PRE_PREDICTORS is experiment.PRE_PREDICTORS
    assert POST_PREDICTORS is experiment.POST_PREDICTORS
    assert write_scores_long is evaluation.write_scores_long
    assert write_scores_wide is evaluation.write_scores_wide
    assert retrieval.BLOCK_CELLS == evaluation.BLOCK_CELLS == seeding.BLOCK_CELLS == 16384


def test_readme_quick_start_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = fresh(code).splitlines()
    assert len(lines) == 2 and float(lines[0]) > 0 and "AvgIDF" in lines[1], lines


def test_a_name_rebound_in_its_home_shows_through(monkeypatch):
    # a tracer or patch installed in the home module, and undone there, leaves no stale copy
    from qppfuse import retrieval
    original = retrieval.retrieve
    monkeypatch.setattr(retrieval, "retrieve", len)
    assert qppfuse.retrieve is len
    monkeypatch.undo()
    assert qppfuse.retrieve is original
