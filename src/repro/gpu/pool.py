"""A pool of simulated accelerators for data-parallel cluster serving.

The paper deploys Pie on a single L4; scaling it to heavy traffic means
running N replicas of the inference layer, each with its own device and
its own physical memory (KV pages are *not* shared across devices — moving
a page between devices is an explicit copy, see
:meth:`~repro.gpu.memory.PhysicalKvPage.copy_page_from`).

:class:`DevicePool` owns the per-device :class:`~repro.gpu.device.SimDevice`
and :class:`~repro.gpu.memory.DeviceMemory` pairs and aggregates their
execution statistics.  *Which* device an inferlet lands on is a control
layer decision (:mod:`repro.core.router`); the pool only models the
hardware.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ReproError
from repro.gpu.config import GpuConfig
from repro.gpu.device import DeviceStats, SimDevice, sum_stats
from repro.gpu.memory import DeviceMemory
from repro.model.config import ModelConfig
from repro.sim.simulator import Simulator


class DevicePool:
    """N simulated devices, each with its own memory and idle notification."""

    def __init__(
        self,
        sim: Simulator,
        model_config: ModelConfig,
        gpu_config: Optional[GpuConfig] = None,
        name_prefix: str = "gpu",
    ) -> None:
        gpu_config = gpu_config or GpuConfig()
        if gpu_config.num_devices <= 0:
            raise ReproError("a device pool needs at least one device")
        self.sim = sim
        self.gpu_config = gpu_config
        self.model_config = model_config
        self.devices: List[SimDevice] = []
        self.memories: List[DeviceMemory] = []
        for index in range(gpu_config.num_devices):
            self.devices.append(SimDevice(sim, name=f"{name_prefix}{index}"))
            self.memories.append(DeviceMemory(model_config, gpu_config))

    def __len__(self) -> int:
        return len(self.devices)

    # -- cluster-level state ---------------------------------------------------

    def aggregate_stats(self) -> DeviceStats:
        """Sum of every device's :class:`DeviceStats`."""
        return sum_stats(DeviceStats, (device.stats for device in self.devices))

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of virtual time the devices spent busy."""
        elapsed = elapsed if elapsed is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        busy = sum(device.stats.busy_seconds for device in self.devices)
        return min(1.0, busy / (elapsed * len(self.devices)))
