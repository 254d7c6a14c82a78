"""Latency models used by network links, tools, and runtime cost models."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class LatencyModel:
    """Base class: callable objects returning a delay (seconds) per sample."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Always the same delay."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise SimulationError("latency must be non-negative")
        self.seconds = float(seconds)

    def sample(self, rng: np.random.Generator) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"ConstantLatency({self.seconds * 1e3:.3f} ms)"


def milliseconds(value: float) -> float:
    """Convert milliseconds to the simulator's native seconds."""
    return value / 1e3


def microseconds(value: float) -> float:
    """Convert microseconds to the simulator's native seconds."""
    return value / 1e6
