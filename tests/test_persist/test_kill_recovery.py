"""SIGKILL recovery: a killed training *process* resumes bit-exactly.

``test_resume.py`` crashes the run with an exception inside the process;
here a real training subprocess is killed without warning as soon as its
first checkpoint generation lands, so nothing in it gets to flush, close or
clean up, and what recovery finds is what the OS was left holding — a
generation whose in-flight jobs are stored with their physics still parked,
and a history that exists only as the journal's epoch frames.  The same
store, damaged the way crashes damage stores (a torn journal tail, a
bit-flipped newest generation), must fall back exactly one generation and
still reproduce the never-killed run.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import EQCConfig, EQCEnsemble, EnergyObjective, heisenberg_vqe_problem, resume
from repro.persist.format import CheckpointCorruptError, read_checkpoint_file
from repro.persist.journal import read_journal
from repro.persist.store import RunDirectory

DEVICES = ("x2", "Belem", "Bogota", "Quito")
SHOTS = 1024
SEED = 1
#: Long enough that the child is mid-run when the parent sees generation one.
NUM_EPOCHS = 40
KILL_TIMEOUT_SECONDS = 120.0


def train(**config):
    objective = EnergyObjective(heisenberg_vqe_problem().estimator)
    ensemble = EQCEnsemble(
        objective, EQCConfig(device_names=DEVICES, shots=SHOTS, seed=SEED, **config)
    )
    return ensemble.train(np.zeros(objective.num_parameters), num_epochs=NUM_EPOCHS)


if __name__ == "__main__":  # the child: trains until the parent kills it
    train(checkpoint_every=1, run_store=sys.argv[1])
    sys.exit(0)

from test_resume import history_key  # noqa: E402  (a pytest-only sibling import)


@pytest.fixture(scope="module")
def baseline():
    return train()


@pytest.fixture(scope="module")
def killed(tmp_path_factory):
    """A run directory whose writer was SIGKILLed, plus an untouched copy."""
    store = tmp_path_factory.mktemp("killed-store")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.Popen([sys.executable, __file__, str(store)], env=env)
    run = RunDirectory(store / "run-000001")
    try:
        deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
        while not run.checkpoint_paths():
            assert child.poll() is None, f"the child exited (rc={child.returncode}) unkilled"
            assert time.monotonic() < deadline, "no checkpoint before the kill timeout"
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    copy = store / "run-damaged"
    shutil.copytree(run.path, copy)
    return run, RunDirectory(copy)


def newest_readable_generation(run):
    for path in reversed(run.checkpoint_paths()):
        try:
            return read_checkpoint_file(path)
        except CheckpointCorruptError:
            continue
    raise AssertionError("the kill left no readable generation")


def test_killed_process_resumes_bit_exact(killed, baseline):
    run, _ = killed
    assert run.status() == "running"
    assert run.checkpoint_paths()
    # The generation recovery restores from holds jobs still parked (the one
    # dispatched in the iteration that wrote it, at least) and no epoch record.
    sections = newest_readable_generation(run)
    assert any(entry["parked"] is not None for entry in sections["pending"])
    assert sections["history"]["records"] == [] and sections["history"]["record_count"] >= 1
    history = resume(run, EnergyObjective(heisenberg_vqe_problem().estimator))
    assert history_key(history) == history_key(baseline)
    assert run.status() == "complete"
    journal = read_journal(run.journal_path)
    assert journal.torn_tail_bytes == 0
    assert journal.committed_updates == history.total_updates


def test_damaged_store_falls_back_one_generation(killed, baseline):
    _, run = killed
    with open(run.journal_path, "ab") as handle:
        handle.write(b'deadbeef {"update": 999999, "torn mid-')
    newest = run.checkpoint_paths()[-1]
    blob = bytearray(newest.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    newest.write_bytes(bytes(blob))

    history = resume(run, EnergyObjective(heisenberg_vqe_problem().estimator))
    assert history_key(history) == history_key(baseline)
    assert history.metadata["persist"]["fallbacks"] == 1
    assert read_journal(run.journal_path).torn_tail_bytes == 0
