"""A loss scored in a batch is the loss scored alone, byte for byte.

``EnergyEstimator.exact_energy`` over a ``(points, P)`` matrix runs every row
through one pass of ``simulate_statevector``'s dense plan: one stacked
``np.matmul`` per gate, which numpy turns into one GEMM per row at the shape
that row has when it runs alone, then ``H @ v`` and ``vdot`` on each
C-contiguous row.  So each batched loss must be bit-equal (``float.hex``) to
the same row scored by itself, whatever the batch size (1-64 rows), however
the rows repeat, whatever the signs of zero angles, and whether the input
matrix is C-ordered, Fortran-ordered or a strided view.

The claim is about BLAS dispatch, so the same property runs again in a child
process under a second OpenBLAS kernel (``OPENBLAS_CORETYPE=Nehalem``, set in
the child's environment only).
"""

import ctypes
import glob
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vqa import heisenberg_vqe_problem, ring_maxcut_qaoa_problem

ESTIMATORS = {
    "ring_maxcut": ring_maxcut_qaoa_problem().estimator,
    "heisenberg": heisenberg_vqe_problem().estimator,
}
SECOND_KERNEL = "Nehalem"

angles = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False),
)


@st.composite
def loss_matrices(draw, num_parameters):
    """1-64 rows picked (with repeats) from a pool of distinct rows, laid out
    C-ordered, Fortran-ordered or as a strided view of a wider buffer."""
    pool = draw(st.lists(
        st.lists(angles, min_size=num_parameters, max_size=num_parameters),
        min_size=1, max_size=64,
    ))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=64))
    matrix = np.array([pool[pick] for pick in picks], dtype=float)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "strided":
        wide = np.full((2 * matrix.shape[0], 3 * num_parameters), np.nan)
        wide[::2, 1::3] = matrix
        view = wide[::2, 1::3]
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        return view
    return np.ascontiguousarray(matrix)


def _openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS dispatched to, when it can be asked."""
    root = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(root / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


class TestBatchedLossIsTheLossAlone:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_row_is_hex_equal_to_the_row_alone(self, name, data):
        estimator = ESTIMATORS[name]
        theta = data.draw(loss_matrices(estimator.num_parameters))
        batched = estimator.exact_energy(theta)
        assert isinstance(batched, np.ndarray) and batched.shape == (theta.shape[0],)
        alone = [estimator.exact_energy(row) for row in theta.tolist()]
        assert [float(value).hex() for value in batched] == [value.hex() for value in alone]

    def test_second_blas_kernel_in_a_child_process(self):
        if os.environ.get("OPENBLAS_CORETYPE"):
            pytest.skip("already the child run under a pinned kernel")
        core = _openblas_core()
        if core is None:
            pytest.skip("numpy is not linked against a bundled OpenBLAS")
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(
            os.environ,
            OPENBLAS_CORETYPE=SECOND_KERNEL,
            PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        probe = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        probe += "import test_batched_exact_loss_properties as t; print(t._openblas_core())"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == SECOND_KERNEL, (core, result.stdout)
        test = "test_each_row_is_hex_equal_to_the_row_alone"
        node = f"{__file__}::TestBatchedLossIsTheLossAlone::{test}"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", node, "-q", "-p", "no:cacheprovider"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
        assert "2 passed" in result.stdout, result.stdout[-2000:]
