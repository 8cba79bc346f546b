"""A device job's noise spec, one circuit at a time, as the library built it.

``QPU._timeline_with_metadata`` must reproduce these specs bit for bit
(tests/test_devices/test_noise_spec_oracle.py).
"""

from repro.devices.qpu import SECONDS_PER_HOUR, _success_from_averages
from repro.simulator.mixing import MixingNoiseSpec


def noise_spec(qpu, footprint, cycle, factor):
    period = qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
    snapshot = qpu.reported_calibration(cycle * period)
    t1s = [q.t1 for q in snapshot.qubits]
    t2s = [q.t2 for q in snapshot.qubits]
    sq_errors = [g.error for g in snapshot.single_qubit_gates]
    cx_errors = [g.error for g in snapshot.two_qubit_gates.values()]
    mu_g1 = snapshot.average_single_qubit_gate_time
    n = len(t1s)
    t1_avg = sum(t1 / factor for t1 in t1s) / n
    t2_avg = sum(min(t2 / factor, 2 * t1 / factor) for t1, t2 in zip(t1s, t2s)) / n
    scaled_p01 = [min(1.0, max(0.0, q.readout_p01 * factor)) for q in snapshot.qubits]
    scaled_p10 = [min(1.0, max(0.0, q.readout_p10 * factor)) for q in snapshot.qubits]
    omega = sum(0.5 * (p01 + p10) for p01, p10 in zip(scaled_p01, scaled_p10)) / n
    gamma = sum(min(1.0, max(0.0, e * factor)) for e in sq_errors) / n
    beta = (
        sum(min(1.0, max(0.0, e * factor)) for e in cx_errors) / len(cx_errors)
        if cx_errors
        else 0.0
    )
    success = _success_from_averages(
        footprint,
        mu_g1=mu_g1,
        mu_g2=snapshot.average_cx_gate_time or mu_g1,
        t1=t1_avg,
        t2=t2_avg,
        gamma=gamma,
        beta=beta,
        omega=omega,
        crosstalk=qpu.spec.noise_profile.crosstalk,
        connectivity=qpu.topology.average_degree,
    )
    per_qubit = tuple(zip(scaled_p01, scaled_p10))[: max(1, footprint.num_measurements)]
    bias = qpu.spec.noise_profile.coherent_bias * factor
    return MixingNoiseSpec(success, per_qubit_readout=per_qubit, coherent_bias=bias)
