"""The public result path, pinned as literals.

``CloudJob.results`` and a direct :meth:`QPU.execute_batch` call are what a
caller outside the training loop reads: per circuit its counts, duration,
queue time, backend name and three metadata floats.  These pins are the
values of a three-job provider wave on two devices (a sweep job on Belem, a
bound-circuit job on Bogota, then a second sweep job on Belem, whose submit
resolves the first two) and of ``fig4_ghz``'s direct ``execute_batch`` call
(two GHZ runs from one generator at a calibration age of 6 hours).  Floats
are compared as ``float.hex`` strings, so any change to how the results are
built must leave every byte in place.  Run this file as a script to print
the values in :data:`PINNED`'s layout.
"""

from __future__ import annotations

import numpy as np

from repro.circuit import ParameterSweep, ghz_state, qaoa_maxcut_ansatz
from repro.cloud.clock import hours
from repro.cloud.provider import CloudProvider
from repro.devices.catalog import build_qpu
from repro.devices.qpu import CircuitFootprint
from repro.transpiler import transpile

METADATA = ("calibration_age_hours", "drift_factor", "success_probability")


def _row(result) -> list:
    return [
        dict(sorted(result.counts.items())),
        result.duration_seconds.hex(),
        result.queue_seconds.hex(),
        result.backend_name,
        [result.metadata[key].hex() for key in METADATA],
    ]


def provider_wave() -> list[list]:
    """Each job's results, in submit order, read only after the last submit."""
    provider = CloudProvider([build_qpu("Belem"), build_qpu("Bogota")], seed=7, shots=48)
    template = qaoa_maxcut_ansatz(3, [(0, 1), (1, 2)])
    footprint = CircuitFootprint.from_circuit(template)
    sweep = ParameterSweep([template], [[0.3, 0.7], [0.9, -0.4]])
    bound = [ghz_state(2), template.assign_by_order([0.1, 0.2])]
    jobs = [
        provider.submit("Belem", sweep, footprint, now=0.0),
        provider.submit("Bogota", bound, footprint, now=10.0),
        provider.submit("Belem", ParameterSweep([template], [[0.5, 0.5]]), footprint, now=20.0),
    ]
    return [[_row(result) for result in job.results] for job in jobs]


def fig4_direct() -> list[list]:
    """``fig4_ghz_validation``'s call: one transpiled GHZ circuit per run."""
    qpu = build_qpu("Belem")
    circuit = ghz_state(3)
    transpiled = transpile(circuit, qpu.topology)
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(2):
        (result,) = qpu.execute_batch([circuit], transpiled.footprint, 40, now=hours(6.0), rng=rng)
        rows.append(_row(result))
    return rows


PINNED = {"fig4_direct": [[{"000": 13, "001": 1, "010": 2, "101": 3, "111": 21},
                  "0x1.113719394ae9bp+5", "0x0.0p+0", "Belem",
                  ["0x1.8000000000000p+2", "0x1.236df8c5a53d9p+0",
                   "0x1.c13a5066118cdp-1"]],
                 [{"000": 13,
                   "001": 3,
                   "010": 1,
                   "011": 1,
                   "100": 1,
                   "101": 1,
                   "110": 1,
                   "111": 19},
                  "0x1.113719394ae9bp+5", "0x0.0p+0", "Belem",
                  ["0x1.8000000000000p+2", "0x1.236df8c5a53d9p+0",
                   "0x1.c13a5066118cdp-1"]]],
 "provider_wave": [[[{"000": 10,
                      "001": 6,
                      "010": 3,
                      "011": 8,
                      "100": 5,
                      "101": 2,
                      "110": 4,
                      "111": 10},
                     "0x1.ea0aaa9234795p+4", "0x1.011ee794b4848p+4", "Belem",
                     ["0x1.248bd690298c8p-8", "0x1.055b05a34f2fap+0",
                      "0x1.c718a53c14fbbp-1"]],
                    [{"000": 1,
                      "001": 7,
                      "010": 11,
                      "011": 3,
                      "100": 10,
                      "101": 11,
                      "110": 4,
                      "111": 1},
                     "0x1.ea098337d10fcp+4", "0x1.011ee794b4848p+4", "Belem",
                     ["0x1.1da9aa0594572p-7", "0x1.055a681dc4d53p+0",
                      "0x1.c718c506b8416p-1"]]],
                   [[{"00": 25, "01": 3, "10": 1, "11": 19}, "0x1.2376c5db09f27p+5",
                     "0x1.4aaa5ecb908dep+4", "Bogota",
                     ["0x1.1722580fae653p-7", "0x1.03143e1808d78p+0",
                      "0x1.d49b349d78c7dp-1"]],
                    [{"000": 8,
                      "001": 7,
                      "010": 5,
                      "011": 6,
                      "100": 4,
                      "101": 3,
                      "110": 6,
                      "111": 9},
                     "0x1.2376d446049ccp+5", "0x1.4aaa5ecb908dep+4", "Bogota",
                     ["0x1.bcf1dbf61a743p-7", "0x1.03144ae8e7a7cp+0",
                      "0x1.d49b3294affc6p-1"]]],
                   [[{"000": 9,
                      "001": 4,
                      "010": 1,
                      "011": 5,
                      "100": 6,
                      "101": 1,
                      "110": 7,
                      "111": 15},
                     "0x1.ea084311d7371p+4", "0x1.c0d6311b98c34p+4", "Belem",
                     ["0x1.b561f5409fb90p-7", "0x1.0559bd5ed92e7p+0",
                      "0x1.c718e77c9d44dp-1"]]]]}


def test_provider_wave_results_keep_their_bytes():
    assert provider_wave() == PINNED["provider_wave"]


def test_fig4_direct_execute_batch_keeps_its_bytes():
    assert fig4_direct() == PINNED["fig4_direct"]


if __name__ == "__main__":  # print the values as PINNED's source
    import pprint

    values = {"provider_wave": provider_wave(), "fig4_direct": fig4_direct()}
    print("PINNED = " + pprint.pformat(values, width=90, compact=True).replace("'", '"'))
