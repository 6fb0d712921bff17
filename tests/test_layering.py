"""Static layering rules for the package source, checked on the AST only.

No module may import a code-executing deserializer (loading a user file must
not run code), and no module may reach into another module's private names:
cross-module seams go through public names. Every import, at any nesting and
inside ``try`` blocks too, is of the standard library, numpy (the one runtime
dependency) or the package itself, so the dependency list in pyproject.toml
stays complete and no optional-accelerator fork creeps in. No module calls
the builtins ``exec``, ``eval`` or ``compile``: the package runs only the
code it ships, never source generated at run time. No ``setdefault`` call
takes a fresh default (a container display or a call): that default is built
on every call, even when the key is already there. No module but ``seeding``
opens a file (builtin or ``io`` ``open``, or a path's ``open``, ``read_text``,
``write_text``, ``read_bytes`` or ``write_bytes``): every text file is read
and written through ``seeding.read_lines`` and ``seeding.write_lines``, so
there is one text-file format. The design side (``seeding``, ``fusion``,
``evaluation``, ``experiment`` and ``cli``) imports only design-side modules
outside function bodies, so no import chain from it reaches a corpus-side module
(``corpus``, ``retrieval``, ``pre_retrieval``, ``post_retrieval``): commands on a
design table start without them, and a corpus command imports them where it runs.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qppfuse"
MODULES = sorted(PACKAGE.glob("*.py"))
UNSAFE = {"pickle", "marshal", "shelve"}
ALLOWED = set(sys.stdlib_module_names) | {"numpy", PACKAGE.name}
CODE_RUNNERS = {"exec", "eval", "compile"}
FRESH_DEFAULTS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp, ast.Call)
FILE_OPENERS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
FILE_MODULE = "seeding.py"  # the one module that opens files
DESIGN_SIDE = {"seeding", "fusion", "evaluation", "experiment", "cli"}
CORPUS_SIDE = {"corpus", "retrieval", "pre_retrieval", "post_retrieval"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name


def violations(source: str, opens_files: bool = False) -> list[str]:
    """Rule breaks in one module's source, as ``line: message`` strings; ``opens_files``
    exempts the module from the file-opening rule."""
    tree = ast.parse(source)
    found = []
    module_aliases = set()  # local names bound to sibling package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in UNSAFE:
                    found.append(f"{node.lineno}: imports {alias.name}")
                elif top not in ALLOWED:
                    found.append(f"{node.lineno}: imports undeclared {alias.name}")
                if top == PACKAGE.name:
                    module_aliases.add(alias.asname or top)
        elif isinstance(node, ast.ImportFrom):
            top = node.module.split(".")[0] if node.level == 0 else PACKAGE.name
            if top in UNSAFE:
                found.append(f"{node.lineno}: imports from {node.module}")
            elif top not in ALLOWED:
                found.append(f"{node.lineno}: imports from undeclared {node.module}")
            if _package_module(node):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{node.lineno}: imports private {alias.name}")
                    elif node.module is None or node.module == PACKAGE.name:
                        module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in CODE_RUNNERS):
            found.append(f"{node.lineno}: calls {node.func.id}")
        if isinstance(node, ast.Call) and not opens_files:
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "open" or (isinstance(node.func, ast.Attribute) and name in FILE_OPENERS):
                found.append(f"{node.lineno}: opens a file with {name}; use seeding's helpers")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault" and len(node.args) == 2
                and isinstance(node.args[1], FRESH_DEFAULTS)):
            found.append(f"{node.lineno}: setdefault builds a fresh default on every call")
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases and _private(node.attr)):
            found.append(f"{node.lineno}: reads private {node.value.id}.{node.attr}")
    return found


def _module_level(tree):
    """The statements that run when the module is imported: all but function bodies."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            yield from _module_level(node)


def module_level_imports(source: str) -> set[str]:
    """The package modules that the module-level imports of ``source`` name, by file stem:
    ``corpus`` for ``from .corpus import Index``, ``from . import corpus`` or ``import
    qppfuse.corpus``; a name taken from the package namespace itself reads ``__init__``."""
    found = set()
    for node in _module_level(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith(PACKAGE.name + ".")}
        elif isinstance(node, ast.ImportFrom) and _package_module(node):
            module = node.module if node.level else node.module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import name: a submodule, or a name of the package namespace
                found |= {alias.name if (PACKAGE / f"{alias.name}.py").exists() else "__init__"
                          for alias in node.names}
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_respects_layering(path):
    assert violations(path.read_text(encoding="utf-8"), path.name == FILE_MODULE) == []


@pytest.mark.parametrize("source", [
    "import pickle",
    "import marshal as m",
    "from shelve import open",
    "from .experiment import _fit_combiner",
    "from qppfuse.fusion import _cd_solve",
    "from . import fusion\nfusion._CV_FITTERS",
    "import qppfuse.fusion as fu\nfu._centered",
    "from numba import njit",
    "import numba",
    "try:\n    from numba import njit\nexcept ImportError:\n    pass",
    "def f():\n    import sklearn.linear_model",
    "from scipy import special",
    "exec('x = 1')",
    "eval('1 + 1')",
    "code = compile('x = 1', '<generated>', 'exec')",
    "ns = {}\nexec(compile(src, '<kernel>', 'exec'), ns)",
    "def f(src):\n    return eval(src, {})",
    "d = {}\nd.setdefault('k', {})['x'] = 1",
    "d = {}\nd.setdefault('k', []).append(1)",
    "d = {}\nd.setdefault('k', {1}).add(2)",
    "d = {}\nd.setdefault('k', set()).add(1)",
    "import numpy as np\nd = {}\nd.setdefault('k', np.zeros(3))",
    "open('data.tsv')",
    "with open('out.tsv', 'w', encoding='utf-8') as fh:\n    fh.write('x')",
    "import io\nio.open('data.tsv')",
    "from pathlib import Path\nwith Path('data.tsv').open() as fh:\n    pass",
    "from pathlib import Path\nPath('data.tsv').read_text(encoding='utf-8')",
    "from pathlib import Path\nPath('out.tsv').write_text('x')",
    "from pathlib import Path\nPath('data.bin').read_bytes()",
    "from pathlib import Path\nPath('out.bin').write_bytes(b'x')",
])
def test_checker_flags(source):
    assert violations(source)


def test_checker_allows_public_and_own_private_names():
    source = ("import ast\nimport re\nfrom . import fusion\nfrom .seeding import derive_seed\n"
              "TOKEN = re.compile(r'\\w+')\n"
              "def _helper(text):\n    return fusion.ScoreTable, derive_seed, ast.literal_eval(text)\n"
              "_helper('1')\nd = {}\nd.setdefault('k', 0)\n")
    assert violations(source) == []


def test_checker_lets_the_file_module_open_files():
    source = "def read(path):\n    with open(path, encoding='utf-8') as fh:\n        return fh.read()\n"
    assert violations(source) and violations(source, opens_files=True) == []


@pytest.mark.parametrize("name", sorted(DESIGN_SIDE))
def test_design_side_imports_only_the_design_side(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert module_level_imports(source) - DESIGN_SIDE == set()


def test_the_two_sides_cover_the_package():
    assert DESIGN_SIDE | CORPUS_SIDE | {"__init__"} == {path.stem for path in MODULES}


@pytest.mark.parametrize("source", [
    "from .corpus import Index",
    "from . import retrieval",
    "from . import fusion, pre_retrieval as pre",
    "import qppfuse.post_retrieval",
    "from qppfuse.corpus import build_index",
    "from qppfuse import retrieval",
    "from . import Index",
    "if True:\n    from .corpus import Index",
    "try:\n    from .retrieval import retrieve\nexcept ImportError:\n    pass",
    "class Config:\n    from .corpus import TokenizerConfig",
])
def test_module_level_checker_flags(source):
    assert module_level_imports(source) - DESIGN_SIDE


@pytest.mark.parametrize("source", [
    "import numpy as np\nfrom . import fusion\nfrom .evaluation import pearson",
    "import qppfuse.fusion\nfrom qppfuse.seeding import derive_seed",
    "def load():\n    from .corpus import build_index\n    return build_index",
    "class Config:\n    def tokenizer(self):\n        from .corpus import TokenizerConfig",
    "async def run():\n    from . import retrieval",
])
def test_module_level_checker_allows(source):
    assert module_level_imports(source) <= DESIGN_SIDE
