"""Lint: ``src/`` imports only the standard library and numpy.

numpy is the one runtime dependency ``pyproject.toml`` declares; a module
that imports anything else (scipy, networkx, ...) works only where that
package happens to be installed.  Relative imports and ``repro`` itself are
the package's own.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
ALLOWED = {"numpy", "repro"}


def imported_roots(tree: ast.AST):
    """``(line, top-level package)`` of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_the_stdlib_and_numpy():
    foreign = [
        f"{path.relative_to(SRC)}:{line}: {root}"
        for path in sorted(SRC.rglob("*.py"))
        for line, root in imported_roots(ast.parse(path.read_text()))
        if root not in ALLOWED and root not in sys.stdlib_module_names
    ]
    assert not foreign, "undeclared runtime dependencies:\n" + "\n".join(foreign)


def test_the_lint_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom scipy import stats\nfrom . import sibling\nimport numpy.linalg")
    assert list(imported_roots(tree)) == [(1, "os"), (2, "scipy"), (4, "numpy")]
