"""Counts-to-energy as the library decoded it per ``Counts``: a hits gather.

``repro.hamiltonian.grouping._expectations_from_draws`` decodes a stack of
dense draw rows against zero-padded signed-coefficient tables; for every
sampler-built ``Counts`` it must reproduce ``expectation_from_hits`` here,
and so the per-outcome dict loop, byte for byte
(tests/test_properties/test_counts_decode_properties.py).
"""

import numpy as np

from repro.reduction import ordered_sum


def expectation_from_hits(group, counts):
    """One group's contribution from a ``Counts``' ``(indices, counts)`` hits:
    one gather from the group's ``(2**n, terms)`` signed-coefficient table and
    one sequential accumulate in outcome-major, term-inner order."""
    indices, hit_counts = counts.hits
    total_shots = int(hit_counts.sum())
    if total_shots == 0:
        return 0.0
    if counts.num_bits != group.num_qubits:
        raise ValueError("bitstring width does not match the Pauli width")
    contributions = np.empty(1 + indices.size * len(group.terms))
    contributions[0] = 0.0
    contributions[1:] = (
        (hit_counts / total_shots)[:, None] * group._signed_coefficients[indices]
    ).reshape(-1)
    return float(np.add.accumulate(contributions)[-1])


def energy_from_hits(groups, counts_per_group):
    """The estimator's energy: group values summed left to right from ``+0.0``
    (``ordered_sum``: builtin ``sum`` is compensated from Python 3.12 on)."""
    return ordered_sum(
        expectation_from_hits(group, counts) for group, counts in zip(groups, counts_per_group)
    )
