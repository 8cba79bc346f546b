"""Lint: no function in ``src/`` is over 60 lines, bar a shrinking allowlist.

A function's length is its ``def`` line through its last line, docstring
included (``end_lineno - lineno + 1``; decorators not counted).  ``ALLOWED``
names the functions that were already longer when the gate went in, each
with its length then: an entry may not grow, and one that drops to 60 lines
or fewer must leave the list, so the list can only shrink.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
LIMIT = 60

#: "module:qualified name" -> its length (lines) when it was allowlisted.
ALLOWED = {
    "engine/compiler.py:compile_circuit": 102,
    "engine/executor.py:_apply_ops": 68,
    "noise/generator.py:CalibrationGenerator.generate": 69,
    "persist/format.py:read_checkpoint_file": 62,
    "sched/kernel.py:EventKernel.run_until_time": 69,
    "sched/tournament.py:run_cell": 73,
    "simulator/mixing.py:noisy_probabilities_batch": 73,
    "telemetry/trace.py:Tracer.to_chrome": 73,
    "vqa/gradient.py:sampled_parameter_shift_gradient": 65,
}


def function_lengths():
    """``{"module:qualified name": lines}`` for every function in ``src/``."""
    lengths = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if not isinstance(child, ast.ClassDef):
                    lengths[f"{module}:{inner}"] = child.end_lineno - child.lineno + 1
            visit(child, module, inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return lengths


def test_no_function_is_over_the_limit_unless_allowlisted():
    lengths = function_lengths()
    too_long = {name: n for name, n in lengths.items() if n > LIMIT and name not in ALLOWED}
    assert not too_long, f"over {LIMIT} lines: split them into named steps"


def test_the_allowlist_only_shrinks():
    lengths = function_lengths()
    gone = sorted(name for name in ALLOWED if name not in lengths)
    short = sorted(name for name in ALLOWED if lengths.get(name, 0) <= LIMIT)
    grown = {name: lengths[name] for name in ALLOWED if lengths.get(name, 0) > ALLOWED[name]}
    assert not gone, "renamed or deleted: take them off the allowlist"
    assert not short, f"now {LIMIT} lines or fewer: take them off the allowlist"
    assert not grown, "an allowlisted function may not grow"
