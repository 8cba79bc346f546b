"""Execution results: measurement counts and metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Mapping

import numpy as np

__all__ = ["Counts", "ExecutionResult"]

#: Widths for which the full bitstring-label table is precomputed; wider
#: registers format labels on demand (the table would hold 2**n strings).
_MAX_CACHED_LABEL_BITS = 12


@lru_cache(maxsize=_MAX_CACHED_LABEL_BITS + 1)
def _bitstring_labels(num_bits: int) -> tuple[str, ...]:
    """All ``2**num_bits`` outcome labels, built once per register width."""
    return tuple(format(index, f"0{num_bits}b") for index in range(1 << num_bits))


class Counts(Mapping[str, int]):
    """Measurement outcome histogram keyed by bitstring.

    Bitstrings follow the library convention: character ``i`` is the outcome
    of measured qubit ``i`` (qubit 0 leftmost).  A histogram built from a
    mapping takes integral, non-negative counts under ``0``/``1`` labels of
    one width (``ValueError`` otherwise).

    A sampler-built histogram is a row view of its sampler call's one draw
    matrix (a whole wave), decoded once per estimator into the memo its rows
    share (:meth:`~repro.hamiltonian.expectation.EnergyEstimator.energy_from_counts`);
    :attr:`hits` and the label dict are built from the row on first read.
    """

    #: Sampler-built only: the draw matrix (this histogram is its row ``_row``)
    #: and the matrix's per-estimator point energies, shared by its rows.
    _draws: np.ndarray | None = None
    _decoded: dict | None = None

    def __init__(self, data: Mapping[str, int], shots: int | None = None) -> None:
        clean: dict[str, int] = {}
        for key, value in data.items():
            if str(key).strip("01"):
                raise ValueError(f"outcome {key!r} is not a bitstring of 0s and 1s")
            if value < 0 or not float(value).is_integer():
                raise ValueError(f"count {value!r} of outcome {key!r} is not an integer >= 0")
            if value:
                clean[str(key)] = int(value)
        widths = {len(k) for k in clean}
        if len(widths) > 1:
            raise ValueError("all bitstrings in a Counts object must share one width")
        self._data = clean
        self._num_bits = len(next(iter(clean))) if clean else 0
        self._shots = int(shots) if shots is not None else sum(clean.values())
        if self._shots < sum(clean.values()):
            raise ValueError("shots is smaller than the sum of counts")

    @classmethod
    def _rows(cls, draws: np.ndarray, num_bits: int, shots: int, rows: range, decoded: dict):
        """Trusted constructor for the samplers: a view of each of ``rows`` of a
        multinomial draw matrix (each of those rows holds ``shots`` shots, so
        only zero shots are empty), sharing the matrix's ``decoded`` memo."""
        width, histograms = (num_bits if shots else 0), []
        for row in rows:
            histogram = cls.__new__(cls)
            vars(histogram).update(_draws=draws, _row=row, _shots=shots, _num_bits=width)
            histogram._decoded = decoded
            histograms.append(histogram)
        return histograms

    @cached_property
    def hits(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Drawn ``(outcome indices, counts)`` in mapping order (sampler-built only)."""
        if self._draws is None:
            return None
        row = self._draws[self._row]
        (indices,) = np.nonzero(row)
        return indices, row[indices]

    @cached_property
    def _data(self) -> dict[str, int]:
        # Only a sampler-built histogram gets here (__init__ sets _data).
        indices, counts = self.hits  # type: ignore[misc]
        pairs = zip(indices.tolist(), counts.tolist())
        if self._num_bits <= _MAX_CACHED_LABEL_BITS:
            labels = _bitstring_labels(self._num_bits)
            return {labels[index]: count for index, count in pairs}
        width = f"0{self._num_bits}b"
        return {format(index, width): count for index, count in pairs}

    # Mapping protocol -----------------------------------------------------
    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Counts({dict(sorted(self._data.items()))}, shots={self._shots})"

    # ----------------------------------------------------------------------
    @property
    def shots(self) -> int:
        """Total number of shots taken (may exceed the sum if some were lost)."""
        return self._shots

    @property
    def num_bits(self) -> int:
        """Width of the measured register (0 for an empty histogram)."""
        return self._num_bits

    def probability(self, bitstring: str) -> float:
        """Empirical probability of one outcome."""
        if self._shots == 0:
            return 0.0
        return self._data.get(bitstring, 0) / self._shots

    def probabilities(self) -> dict[str, float]:
        """Empirical probabilities of every observed outcome."""
        if self._shots == 0:
            return {}
        return {k: v / self._shots for k, v in self._data.items()}

    def to_array(self) -> np.ndarray:
        """Dense probability vector of length ``2**num_bits``."""
        n = self.num_bits
        vec = np.zeros(1 << n if n else 1, dtype=float)
        for key, value in self._data.items():
            vec[int(key, 2)] = value
        total = vec.sum()
        return vec / total if total > 0 else vec

    def most_frequent(self) -> str:
        """The most frequent outcome (ties broken lexicographically)."""
        if not self._data:
            raise ValueError("empty Counts has no most frequent outcome")
        return min(self._data, key=lambda k: (-self._data[k], k))

    def merge(self, other: "Counts") -> "Counts":
        """Combine two histograms of the same width."""
        if self._data and other._data and self.num_bits != other.num_bits:
            raise ValueError("cannot merge Counts of different widths")
        merged = dict(self._data)
        for key, value in other._data.items():
            merged[key] = merged.get(key, 0) + value
        return Counts(merged, shots=self._shots + other._shots)


@dataclass
class ExecutionResult:
    """The full result of executing one circuit on a backend.

    Attributes:
        counts: measurement histogram (``None`` while the job's physics is parked).
        shots: number of shots requested.
        backend_name: device (or simulator) the job ran on.
        duration_seconds: simulated wall-clock execution time (queue excluded).
        queue_seconds: simulated time spent waiting in the device queue.
        metadata: free-form extras (calibration age, success probability, ...).
    """

    counts: Counts | None
    shots: int
    backend_name: str = "ideal"
    duration_seconds: float = 0.0
    queue_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Queueing plus execution time."""
        return self.duration_seconds + self.queue_seconds
