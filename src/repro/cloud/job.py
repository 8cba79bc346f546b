"""Cloud job records.

A job is one :class:`CloudJob` record from submit to counts: the provider
serves it, the device fills its clock half, a training client adds its task
and ``PCorrect``, and the provider's stacked resolve adds its counts.  It is
defined in :mod:`repro.devices.qpu`, which fills and resolves it (``devices``
does not import ``cloud``).
"""

from __future__ import annotations

from ..devices.qpu import CloudJob, JobStatus

__all__ = ["JobStatus", "CloudJob"]
