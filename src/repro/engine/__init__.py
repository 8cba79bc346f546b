"""The compiled gate-program execution engine.

This package is the performance core of the execution layer.  It separates
circuit *structure* from parameter *values* so that the per-gate Python
overhead of simulation — instruction walking, matrix rebuilding, axis moves,
state copies, and above all per-point ``QuantumCircuit`` binding — is paid
once per ansatz instead of once per gate per sweep point.

Compile → execute lifecycle
---------------------------
1. **Compile** (:func:`compile_circuit`, usually through the shared
   :class:`ProgramCache`): a circuit's instruction list is lowered once into
   a flat :class:`GateProgram` — a tuple of numeric ops plus a table of
   parameter *slots*, one per parameterized gate position in instruction
   order.  Parameter values are ignored; one program serves every binding of
   the structure.
2. **Plan** (:func:`parameter_plan`, optional): for template sweeps, an
   affine map from a flat ``(points, P)`` parameter matrix to the program's
   ``(points, S)`` slot angles (handles bound constants, free parameters,
   and affine expressions such as weighted QAOA cost layers).  Bound
   circuits skip the plan: :func:`slot_values_from_circuits` reads angles
   straight off instruction records.
3. **Execute** (:func:`execute_program`): one pass over the ops applied to a
   ``(batch, 2**n)`` state stack, with ping-pong buffers for matrix ops and
   in-place elementwise phase multiplies for diagonal ops.  A sweep over
   several templates (a gradient job: one ansatz, one basis change per
   measurement group) executes as *one* merged program
   (:meth:`ProgramCache.merged`, :func:`merge_programs`): the ops the
   templates' programs share run once over all ``points x templates`` rows,
   then each template's remaining ops run on its own rows.

:func:`lower_batch` does steps 1 and 2 for a whole backend batch — bound
circuits or an unbound sweep become ``(program, slot angles, representative
circuit, flat positions)`` groups, each ready for one step-3 call — and is
the one lowering both the ideal and the noisy backend execute from.

Fusion rules
------------
* Runs of single-qubit gates on one wire fuse into a single 2×2 application
  (constants folded at compile time; rotations composed per batch at
  execution time — an O(batch·4) matmul instead of an O(batch·2**n) pass).
* Consecutive two-qubit gates on the same wire pair fuse into one 4×4
  application; single-qubit gates pending on either wire are lifted into the
  pair.
* Diagonal gates (``rz``, ``z``, ``s``, ``sdg``, ``t``, ``cz``, ``rzz``,
  ``cp``, ``id``) become elementwise phase multiplies over precomputed
  per-basis-index masks, and whole diagonal regions — a QAOA cost layer —
  merge into one :class:`DiagonalOp` no matter which wires they touch.
  Gate reordering is validated through wire ownership, so the emitted
  program is always algebraically identical to the instruction sequence.

Bit-ordering contract
---------------------
Identical to :class:`~repro.simulator.statevector.Statevector`: qubit 0 is
the **most significant** bit of a basis-state index, gate matrices are
expressed in the basis ``|qubits[0] qubits[1]>``, and the batched
probabilities returned by :func:`marginal_probabilities` match
``Statevector.probabilities`` row by row (equivalence is pinned to 1e-10 by
the test suite; seeded sampling histories stay bit-exact).
"""

from .cache import ProgramCache, shared_program_cache
from .compiler import DIAGONAL_GATES, compile_circuit
from .executor import (
    batched_gate_matrices,
    execute_program,
    marginal_distribution,
    marginal_probabilities,
)
from .lowering import lower_batch
from .program import (
    DiagonalOp,
    GateProgram,
    MatrixOp,
    ParameterPlan,
    RunElement,
    merge_programs,
    parameter_plan,
    slot_values_from_circuits,
)

__all__ = [
    "GateProgram",
    "MatrixOp",
    "DiagonalOp",
    "RunElement",
    "ParameterPlan",
    "DIAGONAL_GATES",
    "compile_circuit",
    "merge_programs",
    "parameter_plan",
    "slot_values_from_circuits",
    "lower_batch",
    "execute_program",
    "batched_gate_matrices",
    "marginal_distribution",
    "marginal_probabilities",
    "ProgramCache",
    "shared_program_cache",
]
