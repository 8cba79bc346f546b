"""The engine as it first ran: one rotation factor per element, every row
from ``|0...0>``.

``repro.engine.executor`` builds a pass's runtime factors one array per gate
kind (``_runtime_factors``, planned once per op tuple by
``repro.engine.program.PassPlan``); every combined ``(batch, k, k)`` stack it
hands the contraction must equal ``combined_matrices`` here byte for byte
(tests/test_engine/test_factor_tables.py).  The executor also starts every
row from the program's memoized lead state; ``execute_block`` runs the whole
shared pass from ``|0...0>`` instead, and the states must be byte-equal
(tests/test_engine/test_lead_state.py).  A sweep's slot angles come from
``GroupPlan.slot_values``, one masked multiply-add per merged group; it must
equal stacking ``plan_slot_values`` here, one template at a time, byte for
byte (tests/test_engine/test_lowering_plan.py).
"""

from itertools import accumulate, pairwise

import numpy as np

from repro.engine import executor
from repro.engine.executor import batched_gate_matrices
from repro.engine.program import PassPlan

_EYE2 = np.eye(2, dtype=complex)


def _element_factor(element, thetas):
    """One factor of a fused op: a constant or a ``(batch, k, k)`` stack."""
    if element.matrix is not None:
        return element.matrix
    mats = batched_gate_matrices(element.gate, thetas[:, element.slot])
    if element.lift == 0:
        # kron(m, I): the factor acts on the pair's most significant wire.
        return np.einsum("bij,kl->bikjl", mats, _EYE2).reshape(-1, 4, 4)
    if element.lift == 1:
        return np.einsum("bij,kl->bkilj", mats, _EYE2).reshape(-1, 4, 4)
    return mats


def combined_matrices(op, thetas):
    """Multiply an op's factors into one ``(batch, k, k)`` stack.

    The first element acts first, so the combined unitary is
    ``e_n @ ... @ e_1``; broadcasting handles constant factors.
    """
    combined = None
    for element in op.elements:
        factor = _element_factor(element, thetas)
        combined = factor if combined is None else factor @ combined
    return combined


def runtime_factors(plan, thetas):
    """``executor._runtime_factors``' tables, each factor built alone."""
    tables = [[None] * len(slots) for _, slots, _, _ in plan.kinds]
    tables.append([None] * len(plan.constants))
    for op, factors in zip(plan.ops, plan.factors):
        for element, (table, position) in zip(op.elements if factors else (), factors):
            tables[table][position] = _element_factor(element, thetas)
    return tables


def execute_block(program, thetas, blocks=None):
    """``executor._execute_block`` with every row starting at ``|0...0>`` and
    the program's whole ``ops`` run over every row."""
    stride = program.stride
    n = program.num_qubits
    edges = [0, *accumulate(blocks or (thetas.shape[0],))]
    states = np.zeros((thetas.shape[0], program.dim), dtype=complex)
    states[:, 0] = 1.0
    shared = [slice(a + t, b, stride) for a, b in pairwise(edges) for t in range(stride)]
    states = executor._apply_ops(PassPlan.of(program.ops), states, thetas, shared, n)
    alone = [slice(a // stride, b // stride) for a, b in pairwise(edges)]
    for offset, plan in enumerate(program.pass_plans[1]):
        if plan.ops:
            states[offset::stride] = executor._apply_ops(
                plan,
                np.ascontiguousarray(states[offset::stride]),
                np.ascontiguousarray(thetas[offset::stride]),
                alone,
                n,
            )
    return states


def plan_slot_values(plan, theta):
    """Map a ``(points, P)`` parameter matrix to one template's ``(points, S)``
    slot angles through its ``ParameterPlan``."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.shape[1] != plan.num_parameters:
        raise ValueError(
            f"expected {plan.num_parameters} parameters per point, got {theta.shape[1]}"
        )
    out = np.broadcast_to(plan.offset, (theta.shape[0], plan.offset.size)).copy()
    bound = plan.param_index >= 0
    if np.any(bound):
        out[:, bound] += theta[:, plan.param_index[bound]] * plan.coeff[bound]
    return out
