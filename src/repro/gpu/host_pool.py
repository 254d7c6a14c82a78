"""The host-memory KV tier: a per-node staging pool for swapped pages.

Device HBM is the scarce resource of the serving node; host DRAM is one to
two orders of magnitude larger.  Following "Pie: Pooling CPU Memory for LLM
Inference" (PAPERS.md), a :class:`HostMemoryPool` lets the control layer
*swap* the KV pages of suspended inferlets — agents blocked on external
tool calls hold pages for tens of milliseconds while computing nothing —
out to host memory and restore them on wake-up, instead of destroying them
through termination.

The pool is deliberately dumb hardware: it stores page snapshots and
models the PCIe transfer cost (:meth:`HostMemoryPool.transfer_seconds`, the
same fixed-plus-linear cost-term style as
:class:`repro.gpu.kernels.KernelCostModel`).
*Which* pages move, and when, is a control-layer policy decision
(:mod:`repro.core.swap`).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import ResourceError
from repro.gpu.config import GpuConfig
from repro.gpu.memory import PhysicalKvPage, _Pool
from repro.model.config import ModelConfig
from repro.sim.latency import milliseconds


def kv_page_bytes(model_config: ModelConfig) -> int:
    """Bytes of K/V state held by one physical page (fp32 in this repo)."""
    per_slot = 2 * model_config.n_layers * model_config.n_kv_heads * model_config.d_head
    return model_config.kv_page_size * per_slot * 4


#: Host<->device PCIe transfer cost in milliseconds, one direction: a fixed
#: per-transfer setup plus a per-page term (a full suspend/resume cycle pays
#: it twice, swap-out + swap-in).
PCIE_TRANSFER_BASE_MS = 0.05
PCIE_TRANSFER_MS_PER_PAGE = 0.02


class HostMemoryPool:
    """``host_kv_pages`` page-sized slots of host DRAM shared by the node.

    The pool is shared by every device shard of the node: a page swapped
    out from any device lands here, and capacity is first-come first-served
    across shards.  A capacity of 0 (the default) disables the tier.
    """

    def __init__(self, model_config: ModelConfig, gpu_config: GpuConfig) -> None:
        self.model_config = model_config
        self.gpu_config = gpu_config
        self.page_bytes = kv_page_bytes(model_config)
        self._pool = _Pool(gpu_config.host_kv_pages, "host kv slot")
        self._slots: Dict[int, PhysicalKvPage] = {}

    # -- capacity ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._pool.capacity > 0

    @property
    def capacity(self) -> int:
        return self._pool.capacity

    @property
    def num_free(self) -> int:
        return self._pool.num_free

    @property
    def num_used(self) -> int:
        return self._pool.num_allocated

    # -- staging -----------------------------------------------------------

    def store(self, page: PhysicalKvPage) -> int:
        """Snapshot a device page into a fresh host slot; returns the slot id."""
        slot = self._pool.allocate(1)[0]
        self._slots[slot] = page.snapshot()
        return slot

    def load(self, slot: int, dst_page: PhysicalKvPage) -> None:
        """Restore a host slot into a device page and release the slot."""
        copy = self._slots.pop(slot, None)
        if copy is None:
            raise ResourceError(f"host kv slot {slot} holds no page")
        dst_page.copy_page_from(copy)
        self._pool.free([slot])

    def discard(self, slots: Iterable[int]) -> None:
        """Drop host slots without restoring them (owner terminated/freed).

        Atomic like ``_Pool.free``: the whole batch (including duplicates
        within it) is validated before any slot is released."""
        slots = list(slots)
        self._pool.free(slots)  # validates double-free/unknown/dupes first
        for slot in slots:
            del self._slots[slot]

    # -- cost model --------------------------------------------------------

    def transfer_seconds(self, n_pages: int) -> float:
        """Seconds to move ``n_pages`` across PCIe in one direction."""
        if n_pages <= 0:
            return 0.0
        return milliseconds(PCIE_TRANSFER_BASE_MS + PCIE_TRANSFER_MS_PER_PAGE * n_pages)

    def transfer_bytes(self, n_pages: int) -> int:
        return n_pages * self.page_bytes
