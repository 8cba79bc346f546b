"""Per-device queueing and congestion models.

The second and third challenges the paper motivates EQC with are
*prohibitively long execution time* (shared cloud devices sit behind long,
congestion-dependent queues) and *large utilization variance* (users pile
onto the best-rated devices, leaving others idle).  The queue model captures
both:

* every device has a base queue delay drawn lognormally around a
  device-specific congestion level;
* congestion follows a diurnal pattern (shared community load);
* popular devices (higher ``popularity``) see systematically longer queues,
  which is how the simulated fleet reproduces the paper's wild spread of
  single-device training times (hours on Belem, weeks on Santiago, months on
  Manhattan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._fields import require
from .clock import SECONDS_PER_HOUR

__all__ = [
    "QueueModel",
    "DEFAULT_QUEUE_MODELS",
    "queue_model_for",
]


@dataclass(frozen=True)
class QueueModel:
    """Stochastic queue-delay model for one device.

    Attributes:
        mean_wait_seconds: median queue wait when congestion is average (>= 0).
        sigma: lognormal spread of the wait (>= 0).
        popularity: 0..1 community load factor; higher = busier device.
        diurnal_amplitude: relative amplitude of the day/night swing, in [0, 1].
    """

    mean_wait_seconds: float = 60.0
    sigma: float = 0.6
    popularity: float = 0.5
    diurnal_amplitude: float = 0.4

    def __post_init__(self) -> None:
        require(self, "mean_wait_seconds", self.mean_wait_seconds, low=0.0)
        require(self, "sigma", self.sigma, low=0.0)
        require(self, "popularity", self.popularity, low=0.0, high=1.0)
        require(self, "diurnal_amplitude", self.diurnal_amplitude, low=0.0, high=1.0)

    # ------------------------------------------------------------------
    def congestion_factor(self, now_seconds: float) -> float:
        """Deterministic load multiplier at a simulation time (>= ~0.5)."""
        hour_of_day = (now_seconds / SECONDS_PER_HOUR) % 24.0
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * (hour_of_day - 6.0) / 24.0
        )
        load = 0.5 + self.popularity
        return max(0.25, diurnal * load)

    def sample_wait(self, now_seconds: float, rng: np.random.Generator) -> float:
        """Sample a queue wait (seconds) for a job submitted at ``now_seconds``."""
        if self.mean_wait_seconds == 0:
            return 0.0
        base = rng.lognormal(mean=math.log(self.mean_wait_seconds), sigma=self.sigma)
        return float(base * self.congestion_factor(now_seconds))


#: Queue characteristics for the Table I devices.  Popular, well-rated
#: devices (Santiago, Manhattan, Toronto) carry the heaviest community load —
#: the imbalance the paper's Section I describes.
DEFAULT_QUEUE_MODELS: dict[str, QueueModel] = {
    "Lima": QueueModel(mean_wait_seconds=45.0, popularity=0.35),
    "x2": QueueModel(mean_wait_seconds=20.0, popularity=0.15),
    "Belem": QueueModel(mean_wait_seconds=40.0, popularity=0.35),
    "Quito": QueueModel(mean_wait_seconds=55.0, popularity=0.40),
    "Manila": QueueModel(mean_wait_seconds=60.0, popularity=0.45),
    "Santiago": QueueModel(mean_wait_seconds=900.0, popularity=0.85, sigma=0.9),
    "Bogota": QueueModel(mean_wait_seconds=70.0, popularity=0.45),
    "Lagos": QueueModel(mean_wait_seconds=80.0, popularity=0.50),
    "Casablanca": QueueModel(mean_wait_seconds=50.0, popularity=0.40),
    "Toronto": QueueModel(mean_wait_seconds=300.0, popularity=0.75, sigma=1.1),
    "Manhattan": QueueModel(mean_wait_seconds=5000.0, popularity=0.95, sigma=1.0),
}

_FALLBACK = QueueModel()


def queue_model_for(device_name: str) -> QueueModel:
    """The queue model for a device (a generic default for unknown names)."""
    return DEFAULT_QUEUE_MODELS.get(device_name, _FALLBACK)

