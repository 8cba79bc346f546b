"""Runtime rotation factors as the engine first built them: one per element.

``repro.engine.executor`` builds a pass's runtime factors one array per gate
kind (``_runtime_factors``, planned once per op tuple by
``repro.engine.program.PassPlan``); every combined ``(batch, k, k)`` stack it
hands the contraction must equal ``combined_matrices`` here byte for byte
(tests/test_engine/test_factor_tables.py).
"""

import numpy as np

from repro.engine.executor import batched_gate_matrices

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
