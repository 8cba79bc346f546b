"""Lint: float sums on the pinned path go through the one reduction order.

The modules whose floats reach a pinned hex value (``devices/``, ``noise/``,
``simulator/``, ``hamiltonian/``, ``core/weighting.py``, ``vqa/gradient.py``)
may not call builtin ``sum``, ``math.fsum``, ``np.sum``, ``.sum(`` or
``np.add.reduce`` unless the call is listed in ``ALLOWED`` below with the
reason its order cannot move a pinned bit.  A float sum uses
``repro.reduction.ordered_sum`` / ``ordered_row_sums`` instead: builtin
``sum`` is compensated from Python 3.12 on, and NumPy's ``sum`` is pairwise
from 8 terms on.
"""

import ast
import functools
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
SCANNED = ["devices", "noise", "simulator", "hamiltonian", "core/weighting.py", "vqa/gradient.py"]

#: (module, enclosing function, call) -> why its order cannot move a pinned bit.
ALLOWED = {
    ("simulator/result.py", "Counts.__init__", "sum(clean.values())"):
        "integer counts: an int sum is exact in any order",
    ("simulator/result.py", "Counts.to_array", "vec.sum()"):
        "integer counts held as floats: every partial sum is an exact integer below 2**53",
    ("simulator/sampler.py", "sample_distribution_batch", "sum(blocks)"):
        "integer row counts of the stacked jobs",
    ("simulator/sampler.py", "checked_distributions", "clipped.sum(axis=1)"):
        "NumPy row total of a distribution: its order is NumPy's on every Python, "
        "pinned by the sampler and training goldens",
    ("simulator/sampler.py", "apply_readout_error_batch", "out.sum(axis=1)"):
        "NumPy row total that renormalizes a confused distribution: NumPy's order on every Python",
    ("simulator/statevector.py", "Statevector.probabilities", "tensor.sum(axis=trace_axes)"):
        "NumPy marginal over traced qubits: NumPy's order on every Python",
    ("hamiltonian/grouping.py", "MeasurementGroup._expectation_from_mapping", "sum(counts.values())"):
        "integer shot total of a histogram",
    ("hamiltonian/grouping.py", "_expectations_from_draws", "draws.sum(axis=1)"):
        "integer shot totals of multinomial draw rows",
}


def is_reduction(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "sum"
    if isinstance(func, ast.Attribute):
        spelled = ast.unparse(func)
        return func.attr in ("sum", "fsum") or spelled.endswith("add.reduce")
    return False


def reductions(path: pathlib.Path):
    """``(enclosing function, call source)`` of every reduction call in ``path``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and is_reduction(child):
                found.append((scope, ast.unparse(child)))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


@functools.cache
def scanned_calls():
    calls = []
    for entry in SCANNED:
        target = SRC / entry
        for path in sorted(target.rglob("*.py")) if target.is_dir() else [target]:
            module = path.relative_to(SRC).as_posix()
            calls += [(module, scope, call) for scope, call in reductions(path)]
    return tuple(calls)


def test_every_reduction_on_the_pinned_path_is_allowed():
    unlisted = [call for call in scanned_calls() if call not in ALLOWED]
    assert not unlisted, (
        "float sums on the pinned path go through repro.reduction "
        f"(or into ALLOWED with a reason): {unlisted}"
    )


def test_every_allowed_call_still_exists():
    stale = set(ALLOWED) - set(scanned_calls())
    assert not stale, f"remove these ALLOWED entries: {sorted(stale)}"


def test_the_lint_sees_each_spelling():
    source = "(sum(x), math.fsum(x), np.sum(x), x.sum(), np.add.reduce(x), x.cumsum(), len(x))"
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    flagged = [ast.unparse(call) for call in calls if is_reduction(call)]
    assert flagged == ["sum(x)", "math.fsum(x)", "np.sum(x)", "x.sum()", "np.add.reduce(x)"]
