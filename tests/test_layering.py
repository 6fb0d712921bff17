"""Static layering rules for the package source, checked on the AST only.

No module may import a code-executing deserializer (loading a user file must
not run code), and no module may reach into another module's private names:
cross-module seams go through public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qppfuse"
MODULES = sorted(PACKAGE.glob("*.py"))
UNSAFE = {"pickle", "marshal", "shelve"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name


def violations(source: str) -> list[str]:
    """Rule breaks in one module's source, as ``line: message`` strings."""
    tree = ast.parse(source)
    found = []
    module_aliases = set()  # local names bound to sibling package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in UNSAFE:
                    found.append(f"{node.lineno}: imports {alias.name}")
                if alias.name.split(".")[0] == PACKAGE.name:
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in UNSAFE and node.level == 0:
                found.append(f"{node.lineno}: imports from {node.module}")
            if _package_module(node):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{node.lineno}: imports private {alias.name}")
                    elif node.module is None or node.module == PACKAGE.name:
                        module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases and _private(node.attr)):
            found.append(f"{node.lineno}: reads private {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_respects_layering(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import pickle",
    "import marshal as m",
    "from shelve import open",
    "from .experiment import _fit_combiner",
    "from qppfuse.fusion import _cd_solve",
    "from . import fusion\nfusion._CV_FITTERS",
    "import qppfuse.fusion as fu\nfu._centered",
])
def test_checker_flags(source):
    assert violations(source)


def test_checker_allows_public_and_own_private_names():
    source = ("from . import fusion\nfrom .seeding import derive_seed\n"
              "def _helper():\n    return fusion.ScoreTable, derive_seed\n_helper()\n")
    assert violations(source) == []
