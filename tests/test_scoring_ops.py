"""Operations that change bits stay out of the scoring modules, checked on the AST.

Retrieval, RM1, the RM re-ranking and the pre-retrieval predictors must give
the bits of their per-cell Python loops. numpy's SIMD ``np.log`` and ``np.exp``
(AVX-512 among them) differ from ``math.log`` and ``math.exp`` in the last bit
on some inputs, BLAS products (``@``, ``np.dot``) do not add in sequence, and
``np.sum`` and ``np.mean`` add pairwise. Sums of floats there are sequential
``np.cumsum`` or ``seeding.seq_sum``, a left-to-right loop. Logs and exps are
``math.log`` and ``math.exp``. The ``statistics`` module is banned too: its
``pstdev`` rounds twice on 3.10 and once from 3.11 on; VAR computes that std
exactly instead.

Builtin ``sum`` adds floats in sequence only up to Python 3.11; from 3.12 on it
compensates, so ``sum([1e16, 1.0, -1e16])`` reads 1.0 there and 0.0 before.
No module that writes a float artifact (the three scoring modules,
``evaluation``, ``fusion`` and ``experiment``) uses it: their float sums go
through ``seq_sum``, which gives the 3.10-3.11 bits on every Python.
"""

import ast
import math
import random
import sys
from pathlib import Path

import pytest

from qppfuse.seeding import seq_sum

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qppfuse"
SCORING_MODULES = [PACKAGE / "retrieval.py", PACKAGE / "post_retrieval.py",
                   PACKAGE / "pre_retrieval.py"]
ARTIFACT_MODULES = SCORING_MODULES + [PACKAGE / "evaluation.py", PACKAGE / "fusion.py",
                                      PACKAGE / "experiment.py"]
NUMPY_BANNED = {"log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "dot", "vdot", "inner",
                "matmul", "einsum", "tensordot", "sum", "mean", "average", "nansum", "nanmean"}
METHOD_BANNED = {"sum", "mean", "dot"}


def statistics_imports(source: str) -> list[str]:
    """Imports of the ``statistics`` module, as ``line: message`` strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(f"{node.lineno}: imports statistics" for a in node.names
                         if a.name.split(".")[0] == "statistics")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "statistics":
            found.append(f"{node.lineno}: imports from statistics")
    return found


def builtin_sums(source: str) -> list[str]:
    """Uses of the builtin ``sum`` (calls, or the name passed on), as ``line: message`` strings."""
    return [f"{node.lineno}: uses builtin sum" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)]


def violations(source: str) -> list[str]:
    """Banned operations in one module's source, as ``line: message`` strings."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(a.asname or a.name for a in node.names if a.name == "numpy")
    found = statistics_imports(source) + builtin_sums(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                if alias.name in NUMPY_BANNED:
                    found.append(f"{node.lineno}: imports numpy's {alias.name}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: matrix product @")
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in numpy_names:
                if node.attr in NUMPY_BANNED or node.attr == "reduce":
                    found.append(f"{node.lineno}: uses {root.id}...{node.attr}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in METHOD_BANNED):
            found.append(f"{node.lineno}: calls .{node.func.attr}()")
    return found


@pytest.mark.parametrize("path", SCORING_MODULES, ids=lambda p: p.name)
def test_scoring_module_keeps_bit_identical_ops(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", ARTIFACT_MODULES, ids=lambda p: p.name)
def test_artifact_module_uses_no_builtin_sum(path):
    assert builtin_sums(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_statistics(path):
    assert statistics_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.log(x)",
    "import numpy as np\nnp.exp(x)",
    "import numpy\nnumpy.dot(a, b)",
    "a @ b",
    "a @= b",
    "import numpy as np\nnp.sum(x)",
    "x.sum(axis=0)",
    "import numpy as np\nnp.mean(x)",
    "x.mean()",
    "x.dot(y)",
    "import numpy as np\nnp.add.reduce(x)",
    "import numpy as np\nnp.linalg.norm(x) + np.matmul(a, b)",
    "from numpy import log",
    "import numpy as xp\nxp.log(x)",
    "import statistics\nstatistics.pstdev(x)",
    "import statistics as st",
    "import math, statistics",
    "from statistics import pstdev",
    "from statistics import fmean as mean",
    "s = sum(v)",
    "s = sum(x * x for x in v)",
    "totals = list(map(sum, rows))",
])
def test_checker_flags(source):
    assert violations(source)


def test_checker_allows_the_sequential_forms():
    source = ("import math\nimport numpy as np\n"
              "s = seq_sum(v)\nc = np.cumsum(b, axis=0)[-1]\nl = math.log(x)\ne = math.exp(y)\n"
              "w = np.bincount(i, weights=v)\np = a * b / c\n")
    assert violations(source) == []


class TestSeqSum:
    def test_adds_left_to_right(self):
        # a compensated sum (builtin sum from Python 3.12 on) keeps the 1.0
        assert seq_sum([1e16, 1.0, -1e16]) == 0.0
        assert seq_sum([1.0, 1e16, -1e16]) == 0.0
        assert seq_sum([1e16, -1e16, 1.0]) == 1.0

    def test_negative_zeros_sum_to_positive_zero(self):
        for values in ([-0.0], [-0.0, -0.0, -0.0]):
            total = seq_sum(values)
            assert total == 0.0 and math.copysign(1.0, total) == 1.0

    def test_empty_input_gives_start(self):
        assert seq_sum([]) == 0.0 and isinstance(seq_sum([]), float)
        assert seq_sum([], 0) == 0 and isinstance(seq_sum([], 0), int)
        assert math.copysign(1.0, seq_sum(iter(()), -0.0)) == -1.0

    def test_integer_start_keeps_big_ints_exact(self):
        values = [2**70 + 1, 3**50, -(2**70), 7]
        total = seq_sum(values, 0)
        assert total == 3**50 + 8 and isinstance(total, int)
        assert seq_sum((c * p * p for c, p in [(3, 2**60), (2, -(5**30))]), 0) == 3 * 2**120 + 2 * 5**60

    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="builtin sum of floats is compensated from Python 3.12 on")
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_builtin_sum_before_3_12(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            values = [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-20, 20)
                      for _ in range(rng.randint(1, 40))]
            assert seq_sum(values).hex() == sum(values).hex()
            squares = [v * v for v in values]
            assert seq_sum(squares, 0.5).hex() == sum(squares, 0.5).hex()
