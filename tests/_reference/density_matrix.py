"""The noise map training samples from, as dense density-matrix evolution.

Written without the library's lowering, engine, fusion or simulator: every
gate is its full ``2**n`` unitary (``repro.circuit.gates.gate_matrix`` lifted
by a Kronecker product with the identity, then its axes permuted into place),
and the state is the ``(2**n, 2**n)`` density matrix ``rho -> U rho U^dag``.

The device model, stated once here:

1. coherent over-rotation — the angle of every ``rx``/``ry``/``rz``/``rzz``
   gate is multiplied by ``1 + coherent_bias``; no other gate changes;
2. global depolarizing mix — ``rho -> p rho + (1 - p) I / 2**n`` with ``p``
   the spec's (Eq. 2) success probability;
3. the marginal on ``circuit.measured_qubits`` (all qubits when none are
   measured), first measured qubit as the most significant bit;
4. readout — the Kronecker product of the per-bit confusion matrices
   ``[[1 - p01, p10], [p01, 1 - p10]]``, first measured bit outermost.

``noisy_probabilities_batch`` must equal it to 1e-12
(tests/test_simulator/test_noise_map_oracle.py).
"""

import numpy as np

from repro.circuit.gates import gate_matrix

ROTATIONS = ("rx", "ry", "rz", "rzz")


def full_unitary(matrix, qubits, num_qubits):
    """``matrix`` acting on ``qubits`` (qubit 0 most significant) of ``num_qubits``."""
    rest = [q for q in range(num_qubits) if q not in qubits]
    lifted = np.kron(matrix, np.eye(1 << len(rest)))  # basis order: qubits, then rest
    order = np.argsort(list(qubits) + rest)
    axes = list(order) + [num_qubits + axis for axis in order]
    tensor = lifted.reshape([2] * (2 * num_qubits)).transpose(axes)
    return tensor.reshape(1 << num_qubits, 1 << num_qubits)


def evolve(circuit, bias=0.0):
    """The final density matrix of a bound circuit under coherent bias."""
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for inst in circuit:
        if not inst.is_unitary:
            continue
        scale = 1.0 + bias if inst.name in ROTATIONS else 1.0
        params = tuple(float(p) * scale for p in inst.params)
        unitary = full_unitary(gate_matrix(inst.name, params), inst.qubits, n)
        rho = unitary @ rho @ unitary.conj().T
    return rho


def depolarize(rho, success):
    """Keep ``rho`` with probability ``success``, else the maximally mixed state."""
    dim = rho.shape[0]
    return success * rho + (1.0 - success) * np.eye(dim) / dim


def marginal(rho, measured, num_qubits):
    """Outcome probabilities of the ``measured`` qubits, first one most significant."""
    diagonal = np.real(np.diag(rho))
    outcomes = np.zeros(1 << len(measured))
    for index, probability in enumerate(diagonal):
        outcome = 0
        for qubit in measured:
            outcome = 2 * outcome + ((index >> (num_qubits - 1 - qubit)) & 1)
        outcomes[outcome] += probability
    return outcomes


def readout_pairs(spec, num_bits):
    """Each measured bit's ``(p01, p10)``: the explicit list, else the scalars."""
    if spec.per_qubit_readout:
        return list(spec.per_qubit_readout[:num_bits])
    return [(spec.readout_p01, spec.readout_p10)] * num_bits


def confuse(probabilities, pairs):
    """Observed-outcome probabilities through the per-bit confusion product."""
    confusion = np.ones((1, 1))
    for p01, p10 in pairs:
        confusion = np.kron(confusion, [[1.0 - p01, p10], [p01, 1.0 - p10]])
    return confusion @ probabilities


def noisy_probabilities(circuit, spec):
    """The measured-register distribution the device model samples shots from."""
    measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
    rho = depolarize(evolve(circuit, spec.coherent_bias), spec.success_probability)
    probabilities = marginal(rho, measured, circuit.num_qubits)
    return confuse(probabilities, readout_pairs(spec, len(measured)))
