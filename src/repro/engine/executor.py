"""Executing compiled gate programs over raw parameter matrices.

:func:`execute_program` is the hot loop of the execution layer: given a
:class:`~repro.engine.program.GateProgram` and a ``(batch, num_slots)`` angle
matrix it produces the ``(batch, 2**n)`` final statevectors with

* **no circuit objects** — angles come in as one float matrix,
* **one pass per job** — a merged program (a sweep's templates: one ansatz,
  several measurement bases) runs the ops its templates share over every
  ``points x templates`` row at once and only the differing tails per
  template, each row seeing the arithmetic it sees when its template
  executes alone,
* **ping-pong state buffers** — two preallocated ``(batch, 2**n)`` arrays
  alternate as einsum source/destination, so matrix gates stop allocating a
  fresh contiguous copy per gate (the pre-compiled path paid two copies per
  gate: a ``moveaxis`` materialization and an ``ascontiguousarray``); the
  scratch buffer is only allocated when the program actually contains a
  matrix op — diagonal-only programs (a bare QAOA cost layer) run in one
  buffer,
* **in-place diagonal ops** — phase multiplies mutate the live buffer
  directly; a fused QAOA cost layer is a single elementwise multiply,
* **a memoized lead state** — the leading ops that read no angle (a QAOA
  ``h`` layer) run once per program and dtype, not once per row: every row
  starts as a copy of the state they reach (``GateProgram.lead_states``),
* **big-``n`` execution modes** — ``tile`` processes the batch in row chunks
  so peak memory is one output stack plus two tile-sized working buffers
  (instead of three full ``(batch, 2**n)`` stacks), and ``dtype=complex64``
  halves every buffer again; both are opt-in and the default (untiled,
  complex128) path is bit-exact with the pre-tiling engine.  Tiled results
  match untiled to <=1e-10 — the only divergence source is BLAS reduction
  order in the diagonal-op slot matmul, which may differ with row count.

Bit ordering matches :class:`~repro.simulator.statevector.Statevector`:
qubit 0 is the most significant bit of a basis-state index.
"""

from __future__ import annotations

import time
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np

from ..telemetry import TELEMETRY as _telemetry
from .program import DiagonalOp, GateProgram, MatrixOp, PassPlan

__all__ = [
    "batched_gate_matrices",
    "execute_program",
    "marginal_distribution",
    "marginal_probabilities",
]

#: Lift a factor stack onto a pair's wire 0 (``kron(m, I)``) or wire 1.
_LIFTS = ("sbij,kl->sbikjl", "sbij,kl->sbkilj")


def _resolve_dtype(dtype) -> np.dtype:
    """Validate an execution dtype (complex128 default, complex64 opt-in)."""
    if dtype is None:
        return np.dtype(np.complex128)
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.complex64), np.dtype(np.complex128)):
        raise ValueError(
            f"execution dtype must be complex64 or complex128, got {resolved}"
        )
    return resolved


def batched_gate_matrices(name: str, thetas: np.ndarray, dtype=complex) -> np.ndarray:
    """Stacked ``(batch, dim, dim)`` unitaries for one rotation gate."""
    thetas = np.asarray(thetas, dtype=float)
    half = 0.5 * thetas
    if name == "rx":
        c, s = np.cos(half), np.sin(half)
        mats = np.zeros((thetas.size, 2, 2), dtype=dtype)
        mats[:, 0, 0] = c
        mats[:, 0, 1] = -1j * s
        mats[:, 1, 0] = -1j * s
        mats[:, 1, 1] = c
        return mats
    if name == "ry":
        c, s = np.cos(half), np.sin(half)
        mats = np.zeros((thetas.size, 2, 2), dtype=dtype)
        mats[:, 0, 0] = c
        mats[:, 0, 1] = -s
        mats[:, 1, 0] = s
        mats[:, 1, 1] = c
        return mats
    if name == "rz":
        mats = np.zeros((thetas.size, 2, 2), dtype=dtype)
        mats[:, 0, 0] = np.exp(-1j * half)
        mats[:, 1, 1] = np.exp(1j * half)
        return mats
    if name == "rzz":
        phase = np.exp(-1j * half)
        conj = np.exp(1j * half)
        mats = np.zeros((thetas.size, 4, 4), dtype=dtype)
        mats[:, 0, 0] = phase
        mats[:, 1, 1] = conj
        mats[:, 2, 2] = conj
        mats[:, 3, 3] = phase
        return mats
    if name == "cp":
        mats = np.zeros((thetas.size, 4, 4), dtype=dtype)
        mats[:, 0, 0] = 1.0
        mats[:, 1, 1] = 1.0
        mats[:, 2, 2] = 1.0
        mats[:, 3, 3] = np.exp(1j * thetas)
        return mats
    raise ValueError(f"no batched matrix rule for gate {name!r}")


def _runtime_factors(plan: PassPlan, thetas: np.ndarray, cdtype: np.dtype) -> list[list]:
    """The factors of a pass's matrix ops, per table of ``plan``: a gate kind is
    one :func:`batched_gate_matrices` call over its fresh C-contiguous ``(S, B)``
    angle block plus one lift ``einsum`` per lift side used, its factors the
    C-contiguous ``(B, k, k)`` sub-blocks; constants are cast for complex64."""
    size, eye = thetas.shape[0], np.eye(2, dtype=cdtype)
    tables = []
    for gate, slots, plain, lifted0 in plan.kinds:
        mats = batched_gate_matrices(gate, thetas.T[slots].reshape(-1), dtype=cdtype)
        mats = mats.reshape((len(slots), size) + mats.shape[1:])
        factors = list(mats[:plain])
        for subscripts, run in zip(_LIFTS, (mats[plain:lifted0], mats[lifted0:])):
            if len(run):
                lifted = np.einsum(subscripts, run, eye, order="C")
                factors.extend(lifted.reshape(len(run), size, 4, 4))
        tables.append(factors)
    tables.append([matrix.astype(cdtype, copy=False) for matrix in plan.constants])
    return tables


def _apply_ops(
    plan: PassPlan,
    state: np.ndarray,
    thetas: np.ndarray,
    segments: Sequence[slice],
    num_qubits: int,
    cdtype: np.dtype,
) -> np.ndarray:
    """One ping-pong pass of ``plan.ops`` over a state stack; returns the live buffer.

    Matrix-op factors are built first, one array per gate kind
    (:func:`_runtime_factors`), and an op chains its own with ``@`` in
    application order (``e_n @ ... @ e_1``).  Contractions and phase
    multiplies act on each batch row independently.
    ``np.einsum(out=...)`` casts under the ``'safe'`` rule, so in complex64
    mode every einsum input is materialized at complex64 up front; in-place
    diagonal multiplies use ``'same_kind'`` casting and need no special
    handling.  The one step whose rounding can depend on the row count is the
    slot-angle GEMM of a diagonal op (BLAS picks its reduction order by
    shape), so it runs once per entry of ``segments`` — one template's rows
    of one stacked job — at the shape those rows have when run alone.
    """
    size = thetas.shape[0]
    shape = (size,) + (2,) * num_qubits
    single = cdtype == np.dtype(np.complex64)

    ping = state
    # Scratch allocation is deferred to the first MatrixOp: diagonal-only
    # programs mutate ping in place and never need a second buffer.
    pong: np.ndarray | None = None
    tables = _runtime_factors(plan, thetas, cdtype) if plan.kinds or plan.constants else []

    for op, factors in zip(plan.ops, plan.factors):
        if type(op) is DiagonalOp:
            if op.slots:
                columns = list(op.slots)
                if len(segments) == 1:
                    angles = thetas[:, columns] @ op.coeffs
                else:
                    angles = np.empty((size, ping.shape[1]))
                    for rows in segments:
                        part = np.ascontiguousarray(thetas[rows])
                        angles[rows] = part[:, columns] @ op.coeffs
                if single:
                    phase = np.exp(np.complex64(1j) * angles.astype(np.float32))
                else:
                    phase = np.exp(1j * angles)
                if op.phase is not None:
                    phase *= op.phase
                ping *= phase
            else:
                ping *= op.phase
            continue
        if pong is None:
            pong = np.empty_like(ping)
        k = len(op.qubits)
        if op.tensor is not None:
            tensor = op.tensor.astype(cdtype) if single else op.tensor
            np.einsum(
                op.subscripts,
                tensor,
                ping.reshape(shape),
                out=pong.reshape(shape),
            )
        else:
            mats = None
            for table, position in factors:
                factor = tables[table][position]
                mats = factor if mats is None else factor @ mats
            np.einsum(
                op.subscripts_batched,
                mats.reshape((size,) + (2,) * (2 * k)),
                ping.reshape(shape),
                out=pong.reshape(shape),
            )
        ping, pong = pong, ping
    return ping


def _lead_state(program: GateProgram, cdtype: np.dtype) -> np.ndarray:
    """The program's read-only state after ``ops[:lead]``, built once per dtype
    as a one-row pass from ``|0...0>`` (those ops read no angle)."""
    state = program.lead_states.get(cdtype)
    if state is None:
        start = np.zeros((1, program.dim), dtype=cdtype)
        start[0, 0] = 1.0
        lead = PassPlan.of(program.ops[: program.lead])
        thetas = np.zeros((1, program.num_slots))
        state = _apply_ops(lead, start, thetas, [slice(0, 1)], program.num_qubits, cdtype)[0]
        state.setflags(write=False)
        program.lead_states[cdtype] = state
    return state


def _execute_block(
    program: GateProgram,
    thetas: np.ndarray,
    cdtype: np.dtype,
    blocks: Sequence[int] | None = None,
) -> np.ndarray:
    """Run a program over a (sub-)batch of points.

    Every row starts as a copy of the program's lead state (:func:`_lead_state`:
    ``|0...0>`` when the program opens with an angle), the rest of ``ops``
    runs over every row, then a merged program runs each template's tail on
    that template's rows (``t::stride``), gathered into contiguous buffers
    so every tail op sees exactly the arrays it sees when the template
    executes alone — of its own job alone, when ``blocks`` stacks several
    jobs.  See :func:`execute_program` for ``tile`` and ``blocks``.
    """
    stride = program.stride
    n = program.num_qubits
    edges = [0, *accumulate(blocks or (thetas.shape[0],))]
    states = np.repeat(_lead_state(program, cdtype)[None], thetas.shape[0], axis=0)
    shared = [slice(a + t, b, stride) for a, b in pairwise(edges) for t in range(stride)]
    states = _apply_ops(program.pass_plans[0], states, thetas, shared, n, cdtype)
    alone = [slice(a // stride, b // stride) for a, b in pairwise(edges)]
    for offset, plan in enumerate(program.pass_plans[1]):
        if plan.ops:
            states[offset::stride] = _apply_ops(
                plan,
                np.ascontiguousarray(states[offset::stride]),
                np.ascontiguousarray(thetas[offset::stride]),
                alone,
                n,
                cdtype,
            )
    return states


def execute_program(
    program: GateProgram,
    thetas: np.ndarray | Sequence[Sequence[float]] | None = None,
    *,
    batch: int | None = None,
    dtype=None,
    tile: int | None = None,
    blocks: Sequence[int] | None = None,
) -> np.ndarray:
    """Run a compiled program over a batch of parameter points.

    Every row starts from the program's lead state — the read-only state its
    leading angle-free ops reach from ``|0...0>``, memoized per dtype — and
    runs the remaining ops; the states are byte-equal to running every op on
    every row.

    Args:
        program: the compiled gate program — one circuit structure, or a
            sweep's templates merged (:meth:`ProgramCache.merged`), in
            which case the rows interleave the templates in the sweep's flat
            order (row ``r`` is template ``r % T``) and the ops the templates
            share run once over all of them.
        thetas: ``(batch, num_slots)`` slot-angle matrix (a single point may
            be passed as a 1-D vector).  May be omitted for parameterless
            programs.
        batch: batch size when ``thetas`` is omitted (default 1).
        dtype: execution precision, ``complex64`` or ``complex128`` (the
            default).  Single precision halves every buffer; amplitudes agree
            with double precision to ~1e-6.
        tile: optional row-chunk size.  The batch is executed ``tile`` points
            at a time into one preallocated output, bounding the working set
            at two ``(tile, 2**n)`` buffers.  Every op acts on batch rows
            independently, so tiled rows match the untiled pass to <=1e-10
            (BLAS reduction order in the diagonal slot matmul is the only
            divergence source).
        blocks: row counts of the independent jobs stacked in ``thetas``
            (whole points each, untiled only): the diagonal slot matmul runs
            per job, so every job's rows are bit-equal to that job run alone.

    Returns:
        A ``(batch, 2**n)`` complex array of final statevectors.
    """
    if thetas is None:
        thetas = np.zeros((1 if batch is None else int(batch), 0), dtype=float)
    else:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != program.num_slots:
        raise ValueError(
            f"program expects {program.num_slots} slot angles per point, "
            f"got {thetas.shape[1]}"
        )
    cdtype = _resolve_dtype(dtype)
    size = thetas.shape[0]
    stride = program.stride
    if size % stride:
        raise ValueError(
            f"a program merged from {stride} templates runs whole points: "
            f"{size} rows is not a multiple of {stride}"
        )
    if blocks is not None and (tile or sum(blocks) != size or any(b % stride for b in blocks)):
        raise ValueError(f"blocks {blocks} must split {size} untiled rows into whole points")

    # Telemetry rides on one enabled-check per *program execution*, never
    # per op or per sweep point — the disabled path costs a single branch
    # (the <2% overhead floor in bench_telemetry.py pins this).
    start_ns = time.time_ns() if _telemetry.enabled else 0

    tiles = 1
    if tile is not None:
        tile = int(tile)
        if tile < 1:
            raise ValueError("tile must be >= 1")
        tile = -(-tile // stride) * stride  # tiles hold whole points
        if tile < size:
            out = np.empty((size, program.dim), dtype=cdtype)
            tiles = 0
            for start in range(0, size, tile):
                stop = min(start + tile, size)
                out[start:stop] = _execute_block(program, thetas[start:stop], cdtype)
                tiles += 1
            if _telemetry.enabled:
                _record_execution(program, size, tiles, start_ns)
            return out
    result = _execute_block(program, thetas, cdtype, blocks)
    if _telemetry.enabled:
        _record_execution(program, size, tiles, start_ns)
    return result


def _record_execution(
    program: GateProgram, points: int, tiles: int, start_ns: int
) -> None:
    """Record one compiled execution into the registry and trace.

    Op applications are counted per row, so a merged execution adds what the
    templates' separate executions would have added together.
    """
    matrix_ops = diagonal_ops = 0
    matrix_applied = diagonal_applied = 0
    for ops, rows in [(program.ops, points)] + [
        (tail, points // program.stride) for tail in program.tails
    ]:
        matrices = sum(1 for op in ops if type(op) is MatrixOp)
        matrix_ops += matrices
        diagonal_ops += len(ops) - matrices
        matrix_applied += matrices * rows
        diagonal_applied += (len(ops) - matrices) * rows
    registry = _telemetry.registry
    registry.counter("engine.executions").inc()
    registry.counter("engine.points_executed").inc(points)
    registry.counter("engine.tiles_executed").inc(tiles)
    registry.counter("engine.matrix_ops_applied").inc(matrix_applied)
    registry.counter("engine.diagonal_ops_applied").inc(diagonal_applied)
    end_ns = time.time_ns()
    registry.histogram("engine.execute_seconds").observe((end_ns - start_ns) / 1e9)
    _telemetry.tracer.add_span(
        "engine.execute",
        "engine",
        start_ns,
        end_ns,
        args={
            "points": points,
            "qubits": program.num_qubits,
            "tiles": tiles,
            "matrix_ops": matrix_ops,
            "diagonal_ops": diagonal_ops,
        },
    )


def marginal_probabilities(
    states: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Measurement probabilities over ``qubits`` for every state in a stack.

    Returns a ``(batch, 2**len(qubits))`` array matching
    :meth:`Statevector.probabilities` row by row.
    """
    return marginal_distribution(np.abs(states) ** 2, qubits, num_qubits)


def marginal_distribution(
    probabilities: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Marginalize a ``(batch, 2**n)`` probability stack onto ``qubits``.

    The single home of the trace-axes + measured-order permutation logic;
    :func:`marginal_probabilities` (amplitude stacks) routes through it.  A
    float32 stack (the complex64 execution mode) marginalizes in float32 —
    no silent doubling of the working set.
    """
    full = np.asarray(probabilities)
    if full.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        full = full.astype(float)
    qubits = list(qubits)
    if tuple(qubits) == tuple(range(num_qubits)):
        return full
    batch = full.shape[0]
    tensor = full.reshape([batch] + [2] * num_qubits)
    keep = set(qubits)
    trace_axes = tuple(ax + 1 for ax in range(num_qubits) if ax not in keep)
    marg = tensor.sum(axis=trace_axes) if trace_axes else tensor
    current = sorted(qubits)
    perm = [0] + [current.index(q) + 1 for q in qubits]
    marg = np.transpose(marg, perm)
    return marg.reshape(batch, -1)
