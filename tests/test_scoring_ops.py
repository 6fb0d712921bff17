"""Operations that change bits stay out of the scoring modules, checked on the AST.

Retrieval, RM1 and the RM re-ranking must give the bits of their per-cell
Python loops. numpy's SIMD ``np.log`` and ``np.exp`` (AVX-512 among them) differ
from ``math.log`` and ``math.exp`` in the last bit on some inputs, BLAS
products (``@``, ``np.dot``) do not add in sequence, and ``np.sum`` and
``np.mean`` add pairwise. Sums there are sequential ``np.cumsum`` or
Python's ``sum``; logs and exps are ``math.log`` and ``math.exp``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qppfuse"
SCORING_MODULES = [PACKAGE / "retrieval.py", PACKAGE / "post_retrieval.py"]
NUMPY_BANNED = {"log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "dot", "vdot", "inner",
                "matmul", "einsum", "tensordot", "sum", "mean", "average", "nansum", "nanmean"}
METHOD_BANNED = {"sum", "mean", "dot"}


def violations(source: str) -> list[str]:
    """Banned operations in one module's source, as ``line: message`` strings."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(a.asname or a.name for a in node.names if a.name == "numpy")
    found = []
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
])
def test_checker_flags(source):
    assert violations(source)


def test_checker_allows_the_sequential_forms():
    source = ("import math\nimport numpy as np\n"
              "s = sum(v)\nc = np.cumsum(b, axis=0)[-1]\nl = math.log(x)\ne = math.exp(y)\n"
              "w = np.bincount(i, weights=v)\np = a * b / c\n")
    assert violations(source) == []
