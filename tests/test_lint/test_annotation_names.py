"""Lint: every name an annotation in ``src/`` uses is bound in its module.

``from __future__ import annotations`` keeps annotations unevaluated, so a
name nobody imported fails only when something resolves the hints
(``typing.get_type_hints``, a dataclass introspection, a documentation
build).  This walks every argument, return and variable annotation, string
annotations included, and requires each name in it to be bound in the
module: by an import (``if TYPE_CHECKING:`` imports count), a ``def``, a
``class``, an assignment, or a builtin.
"""

import ast
import builtins
import pathlib
import typing

import pytest

from repro.cloud.provider import CloudProvider

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def bound_names(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level (under ``if``/``try`` too),
    plus every class and function it defines at any depth."""
    names = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
    return names


def annotation_names(annotation: ast.expr) -> set[str]:
    """The names an annotation expression uses, through string annotations
    (but not through the string values of ``Literal[...]``)."""
    found = set()
    pending = [annotation]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            pending.append(ast.parse(node.value, mode="eval").body)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value).endswith("Literal"):
            pending.append(node.value)
        else:
            pending.extend(ast.iter_child_nodes(node))
    return found


def annotations(tree: ast.Module):
    """``(line, annotation)`` for every annotation in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            for arg in every:
                if arg is not None and arg.annotation is not None:
                    yield arg.lineno, arg.annotation
            if node.returns is not None:
                yield node.lineno, node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.lineno, node.annotation


def unbound_annotation_names() -> list[str]:
    unbound = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = bound_names(tree)
        for line, annotation in annotations(tree):
            for name in sorted(annotation_names(annotation) - bound):
                unbound.append(f"{path.relative_to(SRC)}:{line}: {name}")
    return unbound


def test_every_annotation_name_is_bound_in_its_module():
    assert unbound_annotation_names() == []


@pytest.mark.parametrize("method", ["_serve", "submit", "_attempt", "_complete"])
def test_the_provider_hints_resolve(method):
    assert typing.get_type_hints(getattr(CloudProvider, method))
