"""Completion spy: the jobs each device queue of a scheduler finishes.

A device queue is not asked to keep its finished jobs, so a test that checks
per-job facts after a run records them as they complete.  The spy wraps each
queue's ``_complete`` on the instance: the first service a queue starts arms
its completion event with the bound ``_complete`` it finds there, and every
later service re-arms that same event, so the spy must be in place before the
first job starts service.
"""

from __future__ import annotations


def spy_completions(scheduler) -> dict[str, list]:
    """``{device: [job, ...]}``, filled in completion order as ``scheduler`` runs.

    Call it once the devices are registered and before any job has started
    service; a queue whose completion event is already armed is refused.
    """
    finished: dict[str, list] = {}
    for name, queue in scheduler.queues.items():
        if queue._service_event is not None:
            raise RuntimeError(f"{name}: a service already started; spy before the run")
        jobs = finished[name] = []

        def spied(now, queue=queue, jobs=jobs, complete=queue._complete):
            jobs.append(queue.in_service)
            complete(now)

        queue._complete = spied
    return finished
