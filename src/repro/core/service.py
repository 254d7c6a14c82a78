"""One model's serving cluster, assembled.

:class:`ModelService` is everything needed to serve one model — devices,
memory, per-shard handlers / resource manager / batch scheduler, the
router, the host KV tier and its swap manager, the KV page mover, and
the KV transfer scheduler (fed only under disaggregation).
:meth:`ModelService.build` puts the parts together; the controller
(:mod:`repro.core.controller`) then only *uses* them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.core.config import PieConfig
from repro.core.handlers import ApiHandlers
from repro.core.metrics import SystemMetrics
from repro.core.mover import KvMover
from repro.core.prefix_cache import PrefixCacheService
from repro.core.resources import ResourceManager
from repro.core.router import ClusterSchedulerStats, DeviceShard, Router
from repro.core.scheduler import BatchScheduler
from repro.core.swap import SwapManager
from repro.core.transfer import KvTransferScheduler
from repro.gpu.host_pool import HostMemoryPool
from repro.gpu.kernels import KernelCostModel
from repro.gpu.pool import DevicePool
from repro.model.registry import ModelEntry
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # imported only for annotations
    from repro.core.inferlet import InferletInstance, LifecycleObserver
    from repro.sim.network import NetworkLink


class ModelService:
    """Everything needed to serve one model: a cluster of device shards.

    Each shard pairs one simulated device with its own memory, API handlers,
    resource manager and adaptive batch scheduler; the :class:`Router`
    assigns every inferlet to exactly one shard, and every call reads the
    shard it lives on (``instance.placements[model]``); the service itself
    holds what the shards share: the model entry, the cost model, the
    device and host pools, the KV mover, the swap manager and the transfer
    scheduler.
    """

    def __init__(
        self,
        entry: ModelEntry,
        cost_model: KernelCostModel,
        pool: DevicePool,
        shards: List[DeviceShard],
        router: Router,
        host_pool: HostMemoryPool,
        mover: KvMover,
        swap: SwapManager,
        transfer: KvTransferScheduler,
    ) -> None:
        self.entry = entry
        self.cost_model = cost_model
        self.pool = pool
        self.shards = shards
        self.router = router
        for shard in shards:
            shard.service = self
        self.host_pool = host_pool
        # Every KV page crossing to the host tier or another shard.
        self.mover = mover
        self.swap = swap
        # Prefill/decode disaggregation's KV transfer scheduler
        # (repro.core.transfer): fed by prefill-role shards only, so with
        # no role split it holds no state.
        self.transfer = transfer

    # -- cluster views ----------------------------------------------------------

    def shard_for(self, owner: str) -> DeviceShard:
        """The shard holding the address space of the inferlet ``owner``
        (query by id for tests and tools; API calls read the record)."""
        for shard in self.shards:
            if shard.resources.has_space(owner):
                return shard
        raise SchedulingError(f"inferlet {owner!r} was never placed on this model's cluster")

    def move(
        self,
        instance: "InferletInstance",
        dst: DeviceShard,
        kv_map: Dict[int, int],
        emb_map: Dict[int, int],
    ) -> None:
        """Re-home a quiescent inferlet (``shard.quiescent(instance)``) on
        ``dst``: the one move behind the disaggregation handoff and the
        failover relaunch.

        ``kv_map`` / ``emb_map`` are the owner's vid -> *destination*
        physical id maps; the caller has allocated those pages and slots
        and put the contents there.  The address space moves whole, host-tier
        slots included (the host pool is per-node), so live handles keep
        resolving; the queues keep their counters and priority, and the
        placement record is rewritten last, so the next API call lands on
        ``dst``.
        """
        owner = instance.instance_id
        src = instance.placements[self.entry.name]
        if dst.prefix_cache is not None:
            # The destination cache must not inherit, for the adopted
            # slots, token identities it recorded for a previous owner.
            dst.prefix_cache.forget_embeds(list(emb_map.values()))
        src.resources.move_space(owner, dst.resources, kv_map, emb_map)
        for queue in src.scheduler.queues_for_owner(owner):
            src.scheduler.detach_queue(queue.key)
            dst.scheduler.adopt_queue(queue)
        self.router.migrate(instance, dst.index)

    def links(self) -> List["NetworkLink"]:
        """Every shard-pair KV link built so far (the mover's)."""
        return self.mover.links()

    def cluster_stats(self) -> ClusterSchedulerStats:
        """Scheduler statistics merged across every device of the cluster."""
        return ClusterSchedulerStats.from_shards(self.shards)

    def find_export_shard(self, name: str) -> Optional[DeviceShard]:
        for shard in self.shards:
            if shard.resources.has_export(name):
                return shard
        return None

    def list_exports(self) -> List[str]:
        names: List[str] = []
        for shard in self.shards:
            names.extend(shard.resources.list_exports())
        return sorted(names)

    @classmethod
    def build(
        cls,
        sim: Simulator,
        config: PieConfig,
        entry: ModelEntry,
        metrics: SystemMetrics,
        ensure_capacity,
        observers: Tuple[LifecycleObserver, ...],
    ) -> "ModelService":
        """Assemble the cluster serving ``entry``.  ``observers`` are the
        controller's (the timeline keeper, and the tracer when tracing is
        on): each part that tells
        them something is handed them here, once.
        ``ensure_capacity(shard, instance, kv_pages, embeds)`` is the
        controller's swap-first / terminate-last reclamation: swap-in and
        the handoff tail compete for room through the same path
        allocations use."""
        cost_model = KernelCostModel(entry.config)
        pool = DevicePool(
            sim, entry.config, config.gpu, name_prefix=f"gpu:{entry.name}:"
        )
        # The host KV tier is per-node: one pool shared by every device
        # shard of this model (capacity 0 disables swapping entirely).
        host_pool = HostMemoryPool(entry.config, config.gpu)
        mover = KvMover(sim, host_pool, cost_model, observers)
        swap = SwapManager(sim, mover, config.control, metrics, ensure_capacity, observers)
        shards: List[DeviceShard] = []
        for index, (device, memory) in enumerate(zip(pool.devices, pool.memories)):
            if config.gpu.num_devices == 1:
                # Exact single-device compatibility, device name included.
                device.name = f"gpu:{entry.name}"
            handlers = ApiHandlers(entry, memory, cost_model)
            scheduler = BatchScheduler(
                sim,
                device,
                handlers,
                config.scheduler,
                config.gpu,
                config.control,
                metrics=metrics,
                observers=observers,
                shard_index=index,
            )
            resources = ResourceManager(memory, model_name=entry.name, host_pool=host_pool)
            if swap.enabled:
                # Admission: never dispatch commands of a suspended owner.
                scheduler.set_dispatch_guard(resources.is_swapped)
            shard = DeviceShard(
                index=index,
                device=device,
                memory=memory,
                handlers=handlers,
                scheduler=scheduler,
                resources=resources,
            )
            if config.control.prefix_cache:
                shard.prefix_cache = PrefixCacheService(
                    resources=resources,
                    memory=memory,
                    mover=mover,
                    device=device,
                    metrics=metrics,
                )
                resources.set_kv_free_listener(shard.prefix_cache.on_physical_freed)
                # A miss copies from the other shards' caches: the list this
                # loop fills, complete before the first forward.
                shard.prefix_cache.set_peers(shard, shards)
            shards.append(shard)
        control = config.control
        disaggregated = control.placement_policy == "disaggregated"
        if disaggregated:
            # Role split: the first prefill_shards shards admit and prefill,
            # the rest only ever receive inferlets through the handoff.
            for shard in shards:
                shard.role = (
                    "prefill" if shard.index < control.prefill_shards else "decode"
                )
        router = Router(
            shards, policy=control.placement_policy, prefill_shards=control.prefill_shards
        )
        transfer = KvTransferScheduler(sim, router, mover, metrics, ensure_capacity, observers)
        for shard in shards:
            if shard.role == "prefill":
                # Stream each head slice's committed pages while the
                # residual prefill is still queued.
                shard.scheduler.set_chunk_listener(transfer.on_chunk_complete)
        return cls(
            entry=entry,
            cost_model=cost_model,
            pool=pool,
            shards=shards,
            router=router,
            host_pool=host_pool,
            mover=mover,
            swap=swap,
            transfer=transfer,
        )
