"""One model's serving cluster, assembled.

:class:`ModelService` is everything needed to serve one model — devices,
memory, per-shard handlers / resource manager / batch scheduler, the
router, the host KV tier and its swap manager, the KV page mover, and
(with disaggregation on) the KV transfer scheduler.
:meth:`ModelService.build` puts the parts together; the controller
(:mod:`repro.core.controller`) then only *uses* them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

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
    from repro.core.inferlet import InferletInstance
    from repro.gpu.device import SimDevice
    from repro.gpu.memory import DeviceMemory
    from repro.sim.network import NetworkLink


class ModelService:
    """Everything needed to serve one model: a cluster of device shards.

    Each shard pairs one simulated device with its own memory, API handlers,
    resource manager and adaptive batch scheduler; the :class:`Router`
    assigns every inferlet to exactly one shard.  The ``memory`` / ``device``
    / ``scheduler`` / ``resources`` attributes address shard
    0 so existing single-device code (and ``num_devices=1`` deployments,
    where shard 0 is the whole cluster) keeps working unchanged.
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
        transfer: Optional[KvTransferScheduler] = None,
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
        # (repro.core.transfer); None whenever the knob is off, and every
        # hook that would reach it is then skipped entirely.
        self.transfer = transfer

    # -- shard-0 compatibility accessors ---------------------------------------

    @property
    def memory(self) -> "DeviceMemory":
        return self.shards[0].memory

    @property
    def device(self) -> "SimDevice":
        return self.shards[0].device

    @property
    def scheduler(self) -> BatchScheduler:
        return self.shards[0].scheduler

    @property
    def resources(self) -> ResourceManager:
        return self.shards[0].resources

    # -- cluster views ----------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.shards)

    def shard_for(self, owner: str) -> DeviceShard:
        """The shard the inferlet ``owner`` was placed on."""
        return self.router.shard_for(owner)

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
        and put the contents there.  Host-tier slots ride along (the host
        pool is per-node), live handles keep resolving, the queues keep
        their counters and priority, and the placement record is rewritten
        last but one, so the next API call lands on ``dst``.
        """
        owner = instance.instance_id
        src = instance.placements[self.entry.name]
        if dst.prefix_cache is not None:
            # The destination cache must not inherit, for the adopted
            # slots, token identities it recorded for a previous owner.
            dst.prefix_cache.forget_embeds(list(emb_map.values()))
        _, _, swapped_kv, next_kv_vid, next_emb_vid = (
            src.resources.detach_space_for_migration(owner)
        )
        dst.resources.adopt_migrated_space(
            owner, kv_map, emb_map, swapped_kv, next_kv_vid, next_emb_vid
        )
        for queue in src.scheduler.queues_for_owner(owner):
            src.scheduler.detach_queue(queue.key)
            dst.scheduler.adopt_queue(queue)
        self.router.migrate(instance, dst.index)
        self.swap.note_migrated(owner, dst)

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
        qos=None,
        trace=None,
        retry=None,
    ) -> "ModelService":
        """Assemble the cluster serving ``entry``.  ``qos`` / ``trace`` /
        ``retry`` are the optional planes' services (None = knob off): each
        part that can use one is handed it here, once.
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
        mover = KvMover(sim, host_pool, cost_model, trace=trace)
        swap = SwapManager(
            sim,
            mover,
            config.control,
            metrics,
            ensure_capacity,
            qos=qos,
            trace=trace,
        )
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
                trace=trace,
                shard_index=index,
                qos=qos,
            )
            resources = ResourceManager(
                memory,
                model_name=entry.name,
                host_pool=host_pool,
                trace=trace,
                shard_index=index,
            )
            if swap.enabled:
                # Admission: never dispatch commands of a suspended owner.
                scheduler.set_dispatch_guard(swap.is_swapped)
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
            shards,
            policy=control.placement_policy,
            is_swapped=swap.is_swapped if swap.enabled else None,
            placement_weight=qos.placement_weight if qos is not None else None,
            prefill_shards=control.prefill_shards,
            trace=trace,
        )
        transfer: Optional[KvTransferScheduler] = None
        if disaggregated:
            transfer = KvTransferScheduler(
                sim,
                router,
                mover,
                metrics,
                ensure_capacity,
                qos=qos,
                trace=trace,
                retry=retry,
            )
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
