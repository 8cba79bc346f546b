"""The engine as it first ran: one rotation factor per element, every row
from ``|0...0>``.

``repro.engine.executor`` builds a pass's runtime factors one array per gate
kind (``_runtime_factors``, planned once per op tuple by
``repro.engine.program.PassPlan``); every combined ``(batch, k, k)`` stack it
hands the contraction must equal ``combined_matrices`` here byte for byte
(tests/test_engine/test_factor_tables.py).  The executor also starts every
row from the program's memoized lead state; ``execute_block`` runs the whole
shared pass from ``|0...0>`` instead, and the states must be byte-equal
(tests/test_engine/test_lead_state.py).
"""

from itertools import accumulate, pairwise

import numpy as np

from repro.engine import executor
from repro.engine.executor import batched_gate_matrices
from repro.engine.program import PassPlan

_EYE2 = np.eye(2, dtype=complex)
_EYE2_C64 = np.eye(2, dtype=np.complex64)


def _element_factor(element, thetas, cdtype):
    """One factor of a fused op: a constant or a ``(batch, k, k)`` stack."""
    single = cdtype == np.dtype(np.complex64)
    if element.matrix is not None:
        return element.matrix.astype(cdtype) if single else element.matrix
    mats = batched_gate_matrices(element.gate, thetas[:, element.slot], dtype=cdtype)
    eye = _EYE2_C64 if single else _EYE2
    if element.lift == 0:
        # kron(m, I): the factor acts on the pair's most significant wire.
        return np.einsum("bij,kl->bikjl", mats, eye).reshape(-1, 4, 4)
    if element.lift == 1:
        return np.einsum("bij,kl->bkilj", mats, eye).reshape(-1, 4, 4)
    return mats


def combined_matrices(op, thetas, cdtype):
    """Multiply an op's factors into one ``(batch, k, k)`` stack.

    The first element acts first, so the combined unitary is
    ``e_n @ ... @ e_1``; broadcasting handles constant factors.
    """
    combined = None
    for element in op.elements:
        factor = _element_factor(element, thetas, cdtype)
        combined = factor if combined is None else factor @ combined
    return combined


def runtime_factors(plan, thetas, cdtype):
    """``executor._runtime_factors``' tables, each factor built alone."""
    tables = [[None] * len(slots) for _, slots, _, _ in plan.kinds]
    tables.append([None] * len(plan.constants))
    for op, factors in zip(plan.ops, plan.factors):
        for element, (table, position) in zip(op.elements if factors else (), factors):
            tables[table][position] = _element_factor(element, thetas, cdtype)
    return tables


def execute_block(program, thetas, cdtype, blocks=None):
    """``executor._execute_block`` with every row starting at ``|0...0>`` and
    the program's whole ``ops`` run over every row."""
    stride = program.stride
    n = program.num_qubits
    edges = [0, *accumulate(blocks or (thetas.shape[0],))]
    states = np.zeros((thetas.shape[0], program.dim), dtype=cdtype)
    states[:, 0] = 1.0
    shared = [slice(a + t, b, stride) for a, b in pairwise(edges) for t in range(stride)]
    states = executor._apply_ops(PassPlan.of(program.ops), states, thetas, shared, n, cdtype)
    alone = [slice(a // stride, b // stride) for a, b in pairwise(edges)]
    for offset, plan in enumerate(program.pass_plans[1]):
        if plan.ops:
            states[offset::stride] = executor._apply_ops(
                plan,
                np.ascontiguousarray(states[offset::stride]),
                np.ascontiguousarray(thetas[offset::stride]),
                alone,
                n,
                cdtype,
            )
    return states
