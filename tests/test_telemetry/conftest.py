"""Shared fixtures for the telemetry tests."""

from __future__ import annotations

import pytest

from repro.telemetry import TELEMETRY


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts from (and restores) a disabled, empty TELEMETRY."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()
