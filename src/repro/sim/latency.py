"""Latency models used by network links, tools, and runtime cost models."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class LatencyModel:
    """Base class: callable objects returning a delay (seconds) per sample."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected value of the latency; used by analytical checks in tests."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Always the same delay."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise SimulationError("latency must be non-negative")
        self.seconds = float(seconds)

    def sample(self, rng: np.random.Generator) -> float:
        return self.seconds

    def mean(self) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"ConstantLatency({self.seconds * 1e3:.3f} ms)"


class UniformLatency(LatencyModel):
    """Uniformly distributed delay in ``[low, high]`` seconds."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise SimulationError(f"invalid uniform latency bounds [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency([{self.low * 1e3:.3f}, {self.high * 1e3:.3f}] ms)"


class NormalLatency(LatencyModel):
    """Normally distributed delay, truncated at zero."""

    def __init__(self, mean: float, std: float) -> None:
        if mean < 0 or std < 0:
            raise SimulationError("mean/std must be non-negative")
        self._mean = float(mean)
        self._std = float(std)

    def sample(self, rng: np.random.Generator) -> float:
        return max(0.0, float(rng.normal(self._mean, self._std)))

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"NormalLatency(mean={self._mean * 1e3:.3f} ms, std={self._std * 1e3:.3f} ms)"


def milliseconds(value: float) -> float:
    """Convert milliseconds to the simulator's native seconds."""
    return value / 1e3


def microseconds(value: float) -> float:
    """Convert microseconds to the simulator's native seconds."""
    return value / 1e6
