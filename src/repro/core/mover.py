"""The one way a KV page leaves a device: the cluster's page mover.

Pages cross to the node's host tier (swap, prefix-cache demotion and
fault-in) or to another shard (the disaggregation stream and handoff tail,
a cross-shard import).  :class:`KvMover` does every crossing — the
content-exact copy, the wire and the charge — and each caller keeps only its
decision.  It is built for every model, with every plane off, and has no
knob.  See docs/ARCHITECTURE.md, "Memory hierarchy".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.gpu.host_pool import HostMemoryPool
from repro.gpu.kernels import KernelCostModel
from repro.gpu.memory import PhysicalKvPage
from repro.sim.latency import ConstantLatency, milliseconds
from repro.sim.network import NetworkLink
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.router import DeviceShard
    from repro.gpu.device import SimDevice
    from repro.sim.futures import SimFuture

# Model constants, not configurable.
#: The device-to-device interconnect of one ordered shard pair: one-way
#: latency plus a bandwidth term, approximating a PCIe-class link.
LINK_LATENCY_MS = 0.05
LINK_GBYTES_PER_S = 16.0


class KvMover:
    """Copies KV pages between tiers and shards, and charges the copy.

    Two wires: the node's PCIe to the host pool (its ``PCIE_TRANSFER_*``
    terms) and one FIFO ``kvlink:i->j`` per ordered shard pair, built when
    the pair first moves a page.  Every cost is deterministic arithmetic.
    """

    def __init__(
        self,
        sim: Simulator,
        host_pool: HostMemoryPool,
        cost_model: KernelCostModel,
        trace=None,
    ) -> None:
        self.sim = sim
        self.host_pool = host_pool
        self.cost_model = cost_model
        self.page_bytes = host_pool.page_bytes
        # Flight recorder (repro.core.trace): one "net" span per link
        # reservation.  None = off, no tracer installed on any link.
        self._trace = trace
        self._links: Dict[Tuple[int, int], NetworkLink] = {}

    def charge(
        self, device: "SimDevice", kind: str, seconds: float, size: int
    ) -> "SimFuture":
        """Occupy ``device`` for a copy's ``seconds`` with a batch that
        computes nothing, so work queued behind it waits for the copy."""
        return device.submit(kind=kind, run=lambda: None, cost_seconds=seconds, size=size)

    # -- device <-> host, over the node's PCIe -------------------------------

    def pcie_seconds(self, n_pages: int) -> float:
        return self.host_pool.transfer_seconds(n_pages)

    def charge_pcie(self, device: "SimDevice", kind: str, n_pages: int) -> "SimFuture":
        return self.charge(device, kind, self.pcie_seconds(n_pages), n_pages)

    def to_host(
        self, device: "SimDevice", kind: str, pages: Sequence[PhysicalKvPage]
    ) -> List[int]:
        """Snapshot ``pages`` into fresh host slots; returns the slots."""
        slots = [self.host_pool.store(page) for page in pages]
        self.charge_pcie(device, kind, len(slots))
        return slots

    def from_host(
        self,
        device: "SimDevice",
        kind: str,
        slots: Sequence[int],
        pages: Sequence[PhysicalKvPage],
    ) -> None:
        """Restore host ``slots`` into ``pages``, releasing the slots."""
        for slot, page in zip(slots, pages):
            self.host_pool.load(slot, page)
        self.charge_pcie(device, kind, len(slots))

    # -- device -> device, over the shard pair's link --------------------------

    def link(self, src_index: int, dst_index: int) -> NetworkLink:
        key = (src_index, dst_index)
        if key not in self._links:
            link = NetworkLink(
                self.sim,
                latency=ConstantLatency(milliseconds(LINK_LATENCY_MS)),
                name=f"kvlink:{src_index}->{dst_index}",
                bytes_per_second=LINK_GBYTES_PER_S * 1e9,
            )
            if self._trace is not None:
                link.set_tracer(self._trace_wire)
            self._links[key] = link
        return self._links[key]

    def links(self) -> List[NetworkLink]:
        return [self._links[key] for key in sorted(self._links)]

    def copy(
        self,
        src: "DeviceShard",
        dst: "DeviceShard",
        src_pids: Sequence[int],
        dst_pids: Sequence[int],
    ) -> None:
        """Content-exact copy of ``src_pids`` into the allocated ``dst_pids``."""
        for src_pid, dst_pid in zip(src_pids, dst_pids):
            dst.memory.kv_pages.page(dst_pid).copy_page_from(src.memory.kv_pages.page(src_pid))

    def stage(
        self, src: "DeviceShard", dst: "DeviceShard", src_pids: Sequence[int]
    ) -> Tuple[List[int], float]:
        """Copy ahead as many of ``src_pids`` as ``dst`` has *free* pages for
        (staging never reclaims), each pinned until :meth:`unstage`, and
        send them; returns their pages on ``dst`` and when they arrive."""
        n_pages = min(len(src_pids), dst.resources.kv_pages_free)
        if not n_pages:
            return [], 0.0
        dst_pids = dst.memory.kv_pages.allocate(n_pages)
        for dst_pid in dst_pids:
            dst.resources.pin_kv(dst_pid)
        self.copy(src, dst, src_pids, dst_pids)
        arrival = self.link(src.index, dst.index).reserve(
            n_pages * self.page_bytes, now=self.sim.now
        )
        return dst_pids, arrival

    @staticmethod
    def unstage(dst: "DeviceShard", dst_pids: Sequence[int]) -> None:
        """Drop staging pins: adopted pages keep their owner's reference,
        the rest return to the free pool."""
        for dst_pid in dst_pids:
            dst.resources.unpin_kv(dst_pid)

    def clone_embeds(
        self, src: "DeviceShard", dst: "DeviceShard", src_slots: Sequence[int]
    ) -> List[int]:
        """Fresh slots on ``dst`` with the full state of ``src_slots``."""
        dst_slots = dst.memory.embeds.allocate(len(src_slots))
        for src_slot, dst_slot in zip(src_slots, dst_slots):
            dst.memory.embeds.clone_slot_from(dst_slot, src.memory.embeds, src_slot)
        return dst_slots

    def land(
        self, src_index: int, dst: "DeviceShard", kind: str, n_pages: int, ready: float = 0.0
    ) -> Tuple[float, float]:
        """Send ``n_pages`` already copied to ``dst`` over the pair's link and
        charge ``dst`` once: ``max(0, ready - now) + copy_batch_cost(n)``,
        ``ready`` being when these and any pages staged before have
        arrived.  Returns ``(stall, landing)`` seconds."""
        now = self.sim.now
        if n_pages:
            arrival = self.link(src_index, dst.index).reserve(n_pages * self.page_bytes, now=now)
            ready = max(ready, arrival)
        stall = max(0.0, ready - now)
        landing = self.cost_model.copy_batch_cost(n_pages) if n_pages else 0.0
        if stall + landing > 0.0:
            self.charge(dst.device, kind, stall + landing, n_pages)
        return stall, landing

    # -- the crossover ---------------------------------------------------------

    def beats_recompute(self, move_seconds: float, n_pages: int) -> bool:
        """Is moving ``n_pages`` in ``move_seconds`` cheaper than a prefill
        over every token they hold?"""
        tokens = n_pages * self.cost_model.config.kv_page_size
        return move_seconds < self.cost_model.forward_seconds(prefill_tokens=tokens)

    def _trace_wire(self, link: NetworkLink, start: float, end: float, size_bytes: int) -> None:
        self._trace.complete(link.name, "net", start, end=end, args={"bytes": size_bytes})
