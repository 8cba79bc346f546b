"""Shots drawn job by job, as device jobs drew them before waves.

``repro.simulator.sampler.sample_distribution_batch`` checks a whole wave's
``(rows, 2**m)`` matrix once and then draws each job's rows from that job's
stream; ``draw_job_by_job`` checks, clips and renormalizes each job's rows on
their own and draws them in one multinomial call.  Draws and every stream's
end state must be equal (tests/test_simulator/test_wave_sampler.py).
"""

import numpy as np


def draw_job_by_job(probabilities, blocks, shots, streams):
    """One ``(rows, 2**m)`` draw matrix per job, jobs in order."""
    draws, stop = [], 0
    for size, count, stream in zip(blocks, shots, streams):
        probs = np.asarray(probabilities[stop : stop + size], dtype=float)
        stop += size
        if (probs < -1e-9).any():
            raise ValueError("probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        totals = probs.sum(axis=1)
        if (totals <= 0).any():
            raise ValueError("probability vector sums to zero")
        draws.append(stream.multinomial(count, probs / totals[:, None]))
    return draws
