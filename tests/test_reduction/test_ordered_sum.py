"""The one float-reduction order, pinned to the bytes of Python 3.10/3.11.

``repro.reduction.ordered_sum`` adds left to right from ``+0.0``, as builtin
``sum`` did before 3.12; from 3.12 on the builtin compensates, so several of
these assertions would fail with it.  The module is loaded from its file, and
this test imports neither NumPy nor pytest, so it also runs as a script on a
Python without either: ``python3 tests/test_reduction/test_ordered_sum.py``.
"""

import ast
import importlib.util
import math
import pathlib
import random
import sys

_PATH = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "reduction.py"
_SPEC = importlib.util.spec_from_file_location("ordered_reduction", _PATH)
reduction = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reduction)
ordered_sum = reduction.ordered_sum


def test_the_module_imports_no_numpy():
    imported = set()
    for node in ast.walk(ast.parse(_PATH.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "typing"}


def test_a_cancelled_term_stays_lost():
    # Compensated: 1.0.  Left to right: 1e16 + 1.0 rounds back to 1e16.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0


def test_each_partial_sum_rounds_once():
    # Compensated: 0x1.3333333333333p-1, the correctly rounded 0.6.
    assert ordered_sum([0.1, 0.2, 0.3]).hex() == "0x1.3333333333334p-1"
    assert ordered_sum([0.3, 0.2, 0.1]).hex() == "0x1.3333333333333p-1"


def test_the_sum_starts_from_positive_zero():
    total = ordered_sum([-0.0, -0.0])
    assert total == 0.0 and math.copysign(1.0, total) == 1.0
    empty = ordered_sum([])
    assert type(empty) is float and math.copysign(1.0, empty) == 1.0
    assert ordered_sum(iter([2.5, 0.25])) == 2.75


def test_it_is_the_written_out_loop():
    stream = random.Random(20231)
    for _ in range(200):
        values = [
            stream.choice([1.0, 1e-8, 1e16, 3.0e-300]) * stream.uniform(-1.0, 1.0)
            for _ in range(stream.randrange(1, 70))
        ]
        total = 0.0
        for value in values:
            total = total + value
        assert ordered_sum(values).hex() == total.hex()
        if sys.version_info < (3, 12):  # where the goldens were recorded
            assert ordered_sum(values).hex() == sum(values).hex()


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
    print("Python", sys.version.split()[0])
