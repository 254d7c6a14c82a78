"""Simulated GPU substrate.

The inference layer of the paper runs on an NVIDIA L4; here it runs on a
:class:`SimDevice` — a serial executor with a virtual-time cost model — over
a :class:`DeviceMemory` holding the physical KV pages and embedding slots.
The actual tensor math is performed by :class:`repro.model.TinyTransformer`;
the device only decides *when* results become available.

For cluster serving, a :class:`DevicePool` holds ``num_devices`` such
device/memory pairs; the control layer's router places inferlets onto them.
"""

from repro.gpu.config import GpuConfig
from repro.gpu.memory import DeviceMemory, EmbedStore, KvPageStore, PhysicalKvPage
from repro.gpu.kernels import KernelCostModel, ForwardRow
from repro.gpu.host_pool import HostMemoryPool, kv_page_bytes
from repro.gpu.device import DeviceBatch, DeviceStats, SimDevice
from repro.gpu.pool import DevicePool

__all__ = [
    "GpuConfig",
    "DeviceMemory",
    "EmbedStore",
    "KvPageStore",
    "PhysicalKvPage",
    "KernelCostModel",
    "ForwardRow",
    "HostMemoryPool",
    "kv_page_bytes",
    "DeviceBatch",
    "DeviceStats",
    "SimDevice",
    "DevicePool",
]
