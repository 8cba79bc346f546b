"""A device job's noise, as the library built it before the wave pass.

``noise_spec`` is one circuit at a time over the snapshot's qubits and
couplings; ``_noise_record`` is the per-job array pass that followed it (one
record per job, one sum per circuit and row).  The wave pass
``repro.devices.qpu._wave_noise`` must reproduce both bit for bit
(tests/test_devices/test_noise_spec_oracle.py).  Both sum in the library's
one float-reduction order (``repro.reduction.ordered_sum``, left to right
from ``0.0``), as builtin ``sum`` did on Python 3.10/3.11: from 3.12 on the
builtin compensates, and would move the last bit of some rows.
"""

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.devices.qpu import SECONDS_PER_HOUR, _success_from_averages
from repro.reduction import ordered_sum
from repro.simulator.mixing import MixingNoiseSpec, NoiseRecord


def noise_spec(qpu, footprint, cycle, factor):
    period = qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
    snapshot = qpu.reported_calibration(cycle * period)
    t1s = [q.t1 for q in snapshot.qubits]
    t2s = [q.t2 for q in snapshot.qubits]
    sq_errors = [g.error for g in snapshot.single_qubit_gates]
    cx_errors = [g.error for g in snapshot.two_qubit_gates.values()]
    mu_g1 = snapshot.average_single_qubit_gate_time
    n = len(t1s)
    t1_avg = ordered_sum(t1 / factor for t1 in t1s) / n
    t2_avg = ordered_sum(min(t2 / factor, 2 * t1 / factor) for t1, t2 in zip(t1s, t2s)) / n
    scaled_p01 = [min(1.0, max(0.0, q.readout_p01 * factor)) for q in snapshot.qubits]
    scaled_p10 = [min(1.0, max(0.0, q.readout_p10 * factor)) for q in snapshot.qubits]
    omega = ordered_sum(0.5 * (p01 + p10) for p01, p10 in zip(scaled_p01, scaled_p10)) / n
    gamma = ordered_sum(min(1.0, max(0.0, e * factor)) for e in sq_errors) / n
    beta = (
        ordered_sum(min(1.0, max(0.0, e * factor)) for e in cx_errors) / len(cx_errors)
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


def _noise_record(qpu, footprint, drifts, width):
    """A job's noise record, one row per drift triple ``(age, cycle, factor)``.

    Per calibration cycle the job's drift factors form one column that
    divides the cycle table's times and scales (then clips to ``[0, 1]``)
    its error rows; each scaled row, cut to its length, is summed left to
    right and the Eq. 2 core runs per circuit on Python floats.
    The readout rows are the scaled ``(p01, p10)`` of the first ``width``
    qubits.
    """
    noise = qpu.spec.noise_profile
    connectivity = qpu.topology.average_degree
    success = []
    readouts = []
    for cycle, run in groupby(drifts, key=itemgetter(1)):
        column = np.array([factor for _, _, factor in run])[:, None]
        table, n, n_cx, mu_g1, mu_g2 = qpu._cycle_table(cycle)
        t1, t2, t1x2 = table[:3] / column
        errors = np.minimum(np.maximum(table[3:] * column, 0.0), 1.0)
        p01, p10, gammas, betas = errors
        rows = np.array((t1, np.minimum(t2, t1x2), 0.5 * (p01 + p10), gammas))[..., :n]
        readouts.append(errors[:2, :, :width].transpose(1, 2, 0))  # (p01, p10) last
        for qubit_rows, cx_row in zip(
            rows.transpose(1, 0, 2).tolist(), betas[:, :n_cx].tolist()
        ):
            t1_avg, t2_avg, omega, gamma = [ordered_sum(row) / n for row in qubit_rows]
            # An empty CX row sums to 0, so beta is 0.0 without couplings.
            beta = ordered_sum(cx_row) / max(1, n_cx)
            probability = _success_from_averages(
                footprint,
                mu_g1=mu_g1,
                mu_g2=mu_g2,
                t1=t1_avg,
                t2=t2_avg,
                gamma=gamma,
                beta=beta,
                omega=omega,
                crosstalk=noise.crosstalk,
                connectivity=connectivity,
            )
            success.append(probability)
    factors = np.array([factor for _, _, factor in drifts])
    return NoiseRecord(
        np.array(success),
        noise.coherent_bias * factors,
        readouts[0] if len(readouts) == 1 else np.concatenate(readouts),
        np.zeros(len(success), dtype=bool),
    )
