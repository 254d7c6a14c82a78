"""The control layer (§5.2).

The controller sits between inferlets and the inference layer.  It

* handles non-GPU API calls directly (runtime queries, messaging, I/O);
* manages allocation and the virtual address mappings of ``Embed`` and
  ``KvPage`` resources, applying the FCFS termination policy when demand
  exceeds capacity;
* places inferlets onto the devices of each model's cluster (the router,
  :mod:`repro.core.router`) when ``num_devices > 1``;
* translates inference-layer API calls into :class:`Command` objects and
  feeds them to the per-device batch scheduler of the inferlet's shard;
* models the per-call overheads of the two layers (Figure 10, Table 3).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.errors import (
    FaultInjectedError,
    OutOfResourcesError,
    ReproError,
    ResourceError,
    RetriesExhaustedError,
    ShardUnavailableError,
)
from repro.core.command_queue import Command
from repro.core.config import PieConfig
from repro.core.handles import Embed, KvPage, Queue
from repro.core.handlers import ApiHandlers
from repro.core.health import BrownoutController, ShardHealthService
from repro.core.inferlet import InferletInstance
from repro.core.messaging import ExternalServices, MessageBus
from repro.core.metrics import SystemMetrics, TenantMetrics
from repro.core.monitor import MonitorService
from repro.core.prefix_cache import PrefixCacheService
from repro.core.qos import QosService
from repro.core.resources import ResourceManager
from repro.core.retry import RetryPolicy
from repro.core.router import ClusterSchedulerStats, DeviceShard, Router
from repro.core.scheduler import BatchScheduler, SchedulerStats
from repro.core.swap import SwapManager
from repro.core.trace import TraceRecorder
from repro.core.transfer import KvTransferScheduler
from repro.gpu.host_pool import HostMemoryPool
from repro.gpu.kernels import KernelCostModel
from repro.gpu.pool import DevicePool
from repro.sim.faults import FaultInjector
from repro.core.traits import api_layer
from repro.model.registry import ModelEntry, ModelRegistry
from repro.sim.futures import SimFuture
from repro.sim.latency import microseconds, milliseconds
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # imported only for the ModelService property annotations
    from repro.gpu.device import SimDevice
    from repro.gpu.memory import DeviceMemory


class ModelService:
    """Everything needed to serve one model: a cluster of device shards.

    Each shard pairs one simulated device with its own memory, API handlers,
    resource manager and adaptive batch scheduler; the :class:`Router`
    assigns every inferlet to exactly one shard.  The ``memory`` / ``device``
    / ``handlers`` / ``scheduler`` / ``resources`` attributes address shard
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
        swap: SwapManager,
        transfer: Optional[KvTransferScheduler] = None,
    ) -> None:
        self.entry = entry
        self.cost_model = cost_model
        self.pool = pool
        self.shards = shards
        self.router = router
        self.host_pool = host_pool
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
    def handlers(self) -> ApiHandlers:
        return self.shards[0].handlers

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


class Controller:
    """The central controller of the control layer."""

    def __init__(
        self,
        sim: Simulator,
        config: PieConfig,
        registry: ModelRegistry,
        external: Optional[ExternalServices] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.registry = registry
        self.external = external or ExternalServices(sim)
        self.bus = MessageBus(sim)
        self.metrics = SystemMetrics()
        # The flight recorder (repro.core.trace): None when the knob is
        # off — no recorder exists, no subsystem carries a hook, and the
        # serving path is byte-identical to the pre-tracing system.  When
        # on, every emission is read-only, so the simulation itself is
        # still bit-identical (tokens and virtual timestamps).
        self.trace: Optional[TraceRecorder] = None
        if config.control.tracing:
            self.trace = TraceRecorder(
                sim,
                max_events=config.control.trace_max_events,
                sample_seconds=milliseconds(config.control.trace_sample_ms),
            )
        # The QoS control plane (repro.core.qos): admission, SLO-aware
        # dispatch, priority-aware preemption and fair share.  None when the
        # knob is off — every hook below is then skipped and the serving
        # path is bit-identical to the pre-QoS system.
        self.qos: Optional[QosService] = None
        if config.control.qos:
            self.qos = QosService(
                sim,
                self.metrics,
                tenants=config.control.tenants,
                default_class=config.control.qos_default_class,
                aging_ms=config.control.qos_aging_ms,
                trace=self.trace,
            )
        # The live monitoring plane (repro.core.monitor): labeled metric
        # registry, SLO burn-rate alerting, and a virtual-clock scraper.
        # None when the knob is off — same structural-inertness contract
        # as the trace/qos hooks above.
        self.monitor: Optional[MonitorService] = None
        if config.control.monitoring:
            self.monitor = MonitorService(
                sim, config.control, self.metrics, trace=self.trace
            )
            for spec in config.control.tenants:
                self.monitor.register_slo(spec)
        # The chaos plane (repro.sim.faults / repro.core.retry /
        # repro.core.health): all None when ControlLayerConfig.faults is
        # off — the deterministic fault schedule, the retry policy for tool
        # calls and refused handoffs, and the heartbeat-driven health /
        # failover service.  Each draws randomness only from its own seeded
        # stream, so faults=on perturbs the workload solely through the
        # faults themselves.
        self.faults: Optional[FaultInjector] = None
        self.retry: Optional[RetryPolicy] = None
        self.health: Optional[ShardHealthService] = None
        self.brownout: Optional[BrownoutController] = None
        if config.control.faults:
            self.retry = RetryPolicy.from_config(
                config.control, seed=config.control.fault_seed
            )
            self.faults = FaultInjector(
                sim,
                config.control.fault_plan,
                seed=config.control.fault_seed,
                trace=self.trace,
                metrics=self.metrics,
            )
        self._services: Dict[str, ModelService] = {}
        self._instances: Dict[str, InferletInstance] = {}
        self._queue_ids = itertools.count(1)
        self._terminate_hook: Optional[Callable[[InferletInstance, str], None]] = None
        for name in registry.names():
            self._services[name] = self._build_service(registry.get(name))
        if config.control.faults:
            self.health = ShardHealthService(self, config.control)
            for service in self._services.values():
                service.router.health_probe = self.health.placeable
            self.faults.bind(health=self.health, links_fn=self._live_links)
            self.faults.arm()
        if config.control.brownout:
            # Validated by PieConfig: brownout requires qos + monitoring.
            self.brownout = BrownoutController(self, config.control)
            self.monitor.add_alert_listener(self.brownout.on_alert)
        if self.trace is not None:
            self._install_telemetry_sampler()
        if self.monitor is not None:
            self._install_monitor_collector()

    def _build_service(self, entry: ModelEntry) -> ModelService:
        cost_model = KernelCostModel(entry.config)
        pool = DevicePool(
            self.sim, entry.config, self.config.gpu, name_prefix=f"gpu:{entry.name}:"
        )
        # The host KV tier is per-node: one pool shared by every device
        # shard of this model (capacity 0 disables swapping entirely).
        host_pool = HostMemoryPool(entry.config, self.config.gpu)
        swap = SwapManager(
            self.sim,
            host_pool,
            cost_model,
            self.config.control,
            self.metrics,
            qos=self.qos,
            trace=self.trace,
        )
        shards: List[DeviceShard] = []
        for index, (device, memory) in enumerate(zip(pool.devices, pool.memories)):
            if self.config.gpu.num_devices == 1:
                # Exact single-device compatibility, device name included.
                device.name = f"gpu:{entry.name}"
            handlers = ApiHandlers(entry, memory, cost_model, self.config.default_top_k)
            scheduler = BatchScheduler(
                self.sim,
                device,
                handlers,
                self.config.scheduler,
                self.config.gpu,
                self.config.control,
                metrics=self.metrics,
                trace=self.trace,
                shard_index=index,
            )
            resources = ResourceManager(
                memory, model_name=entry.name, host_pool=host_pool
            )
            if self.trace is not None:
                resources.set_trace(self.trace, index)
            if swap.enabled:
                # Admission: never dispatch commands of a suspended owner.
                scheduler.set_dispatch_guard(swap.is_swapped)
            if self.qos is not None:
                scheduler.set_qos(self.qos)
            shard = DeviceShard(
                index=index,
                device=device,
                memory=memory,
                handlers=handlers,
                scheduler=scheduler,
                resources=resources,
            )
            if self.config.control.prefix_cache:
                shard.prefix_cache = PrefixCacheService(
                    resources=resources,
                    memory=memory,
                    host_pool=host_pool,
                    device=device,
                    metrics=self.metrics,
                    config=self.config.control,
                )
                resources.set_kv_free_listener(shard.prefix_cache.on_physical_freed)
            shards.append(shard)
        control = self.config.control
        if control.disaggregation:
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
            placement_weight=self.qos.placement_weight if self.qos is not None else None,
            prefill_shards=control.prefill_shards if control.disaggregation else 0,
            trace=self.trace,
        )
        transfer: Optional[KvTransferScheduler] = None
        if control.disaggregation:
            transfer = KvTransferScheduler(
                self.sim,
                shards,
                router,
                cost_model,
                control,
                self.metrics,
                swap,
                qos=self.qos,
                trace=self.trace,
            )
            for shard in shards:
                if shard.role == "prefill":
                    # Stream each head slice's committed pages while the
                    # residual prefill is still queued.
                    shard.scheduler.set_chunk_listener(transfer.on_chunk_complete)
        service = ModelService(
            entry=entry,
            cost_model=cost_model,
            pool=pool,
            shards=shards,
            router=router,
            host_pool=host_pool,
            swap=swap,
            transfer=transfer,
        )
        if transfer is not None:
            if self.retry is not None:
                # Refused handoffs back off and retry instead of waiting
                # for a sample completion a quiescent owner never emits.
                transfer.set_retry(self.retry)
            # The handoff tail allocates on the decode shard through the
            # same swap-first / terminate-last reclamation ladder.
            transfer.bind_capacity_hook(
                lambda shard, instance, kv_pages, embeds: self._ensure_capacity(
                    service, shard, instance, kv_pages=kv_pages, embeds=embeds
                )
            )
        # Swap-in may itself need reclamation; route it through the same
        # swap-first / terminate-last capacity path allocations use.
        swap.bind_capacity_hook(
            lambda shard, instance, n_pages: self._ensure_capacity(
                service, shard, instance, kv_pages=n_pages
            )
        )
        return service

    def _install_telemetry_sampler(self) -> None:
        """Wire the flight recorder's periodic per-shard telemetry.

        Every sample is a pure read of simulator state — queue depths,
        busy-time deltas, pool occupancy, link busy fractions — so the
        timer's presence changes no virtual timestamp anywhere.  The timer
        only re-arms while inferlets are live (``active_fn``); inferlet
        registration pokes it back awake, so the event queue stays
        drainable between workload waves."""
        trace = self.trace
        period = trace.sample_seconds
        gpu = self.config.gpu
        previous: Dict[Any, Dict[str, float]] = {}

        def sample(recorder: TraceRecorder) -> None:
            budget = (
                self.config.control.max_batch_tokens or gpu.max_batch_tokens
                if self.config.control.chunked_prefill
                else gpu.max_batch_tokens
            )
            for model, service in self._services.items():
                for shard in service.shards:
                    key = (model, shard.index)
                    last = previous.setdefault(
                        key, {"busy": 0.0, "tokens": 0.0, "batches": 0.0}
                    )
                    busy = shard.device.stats.busy_seconds
                    stats = shard.scheduler.stats
                    tokens = float(stats.forward_tokens_dispatched)
                    batches = float(stats.batches_by_kind.get("forward", 0))
                    d_batches = batches - last["batches"]
                    mean_tokens = (
                        (tokens - last["tokens"]) / d_batches if d_batches else 0.0
                    )
                    recorder.counter(
                        "telemetry",
                        {
                            "queue_depth": shard.scheduler.total_pending,
                            "busy_frac": min(
                                1.0, (busy - last["busy"]) / period if period else 0.0
                            ),
                            "kv_occupancy": 1.0
                            - shard.resources.kv_pages_free / gpu.num_kv_pages,
                            "embed_occupancy": 1.0
                            - shard.resources.embeds_free / gpu.num_embed_slots,
                            "batch_tokens_mean": mean_tokens,
                            "batch_token_util": (
                                mean_tokens / budget if budget else 0.0
                            ),
                        },
                        shard=shard.index,
                    )
                    last["busy"] = busy
                    last["tokens"] = tokens
                    last["batches"] = batches
                if service.host_pool.enabled:
                    recorder.counter(
                        "host_kv",
                        {
                            "occupancy": service.host_pool.num_used
                            / service.host_pool.capacity
                        },
                    )
                if service.transfer is not None:
                    for link in service.transfer.links():
                        key = ("link", link.name)
                        last = previous.setdefault(key, {"busy": 0.0})
                        busy = link.busy_seconds
                        recorder.counter(
                            link.name,
                            {
                                "busy_frac": min(
                                    1.0,
                                    (busy - last["busy"]) / period if period else 0.0,
                                )
                            },
                        )
                        last["busy"] = busy

        trace.install_sampler(sample, lambda: self.concurrent_inferlets > 0)

    def _install_monitor_collector(self) -> None:
        """Wire the monitor's per-scrape gauge collection.

        Numeric fields are discovered once at install time from probe
        instances (not per tick via ``asdict``, which would deep-copy the
        histograms at every scrape).  Each tick publishes the current
        SystemMetrics / per-tenant / per-shard counters plus live
        occupancy readings into the registry as gauges; every read is a
        pure inspection of simulator state, so the scrape timer changes
        no virtual timestamp anywhere."""
        monitor = self.monitor
        gpu = self.config.gpu

        def numeric_fields(probe) -> List[str]:
            return [
                name
                for name in vars(probe)
                if isinstance(getattr(probe, name), (int, float))
                and not isinstance(getattr(probe, name), bool)
            ]

        system_fields = numeric_fields(self.metrics)
        tenant_fields = numeric_fields(TenantMetrics(tenant="_probe"))
        shard_fields = numeric_fields(SchedulerStats())
        system_gauges = {
            name: monitor.registry.gauge(
                f"pie_system_{name}", f"SystemMetrics.{name}"
            )
            for name in system_fields
        }
        tenant_gauges = {
            name: monitor.registry.gauge(
                f"pie_tenant_{name}",
                f"TenantMetrics.{name}",
                labelnames=("tenant",),
            )
            for name in tenant_fields
        }
        shard_gauges = {
            name: monitor.registry.gauge(
                f"pie_shard_{name}",
                f"SchedulerStats.{name}",
                labelnames=("model", "shard"),
            )
            for name in shard_fields
        }
        occupancy = {
            name: monitor.registry.gauge(
                f"pie_shard_{name}",
                help_,
                labelnames=("model", "shard"),
            )
            for name, help_ in (
                ("queue_depth", "Pending commands in the shard scheduler"),
                ("kv_occupancy", "Fraction of GPU KV pages in use"),
                ("embed_occupancy", "Fraction of embed slots in use"),
                ("busy_seconds", "Cumulative device busy time"),
            )
        }

        def collect() -> None:
            for name in system_fields:
                system_gauges[name].labels().set(getattr(self.metrics, name))
            for tenant, record in self.metrics.tenants.items():
                for name in tenant_fields:
                    tenant_gauges[name].labels(tenant=tenant).set(
                        getattr(record, name)
                    )
            for model, service in self._services.items():
                for shard in service.shards:
                    labels = {"model": model, "shard": str(shard.index)}
                    for name in shard_fields:
                        shard_gauges[name].labels(**labels).set(
                            getattr(shard.scheduler.stats, name)
                        )
                    occupancy["queue_depth"].labels(**labels).set(
                        shard.scheduler.total_pending
                    )
                    occupancy["kv_occupancy"].labels(**labels).set(
                        1.0 - shard.resources.kv_pages_free / gpu.num_kv_pages
                    )
                    occupancy["embed_occupancy"].labels(**labels).set(
                        1.0 - shard.resources.embeds_free / gpu.num_embed_slots
                    )
                    occupancy["busy_seconds"].labels(**labels).set(
                        shard.device.stats.busy_seconds
                    )

        monitor.install_collector(collect, lambda: self.concurrent_inferlets > 0)

    # -- services & models ----------------------------------------------------

    def service(self, model: str) -> ModelService:
        try:
            return self._services[model]
        except KeyError:
            raise ReproError(f"model {model!r} is not served; have {sorted(self._services)}") from None

    def available_models(self) -> List[str]:
        return sorted(self._services)

    def available_traits(self, model: str) -> List[str]:
        return self.service(model).entry.traits()

    def available_adapters(self, model: str) -> List[str]:
        return self.service(model).entry.adapters.names()

    def default_model(self) -> str:
        return self.available_models()[0]

    # -- inferlet registration -----------------------------------------------------

    def register_inferlet(self, instance: InferletInstance) -> None:
        self._instances[instance.instance_id] = instance
        self.metrics.register(instance.metrics)
        if self.trace is not None:
            self.trace.poke_sampler()
        if self.monitor is not None:
            self.monitor.poke()
        if self.health is not None:
            self.health.poke()
        for service in self._services.values():
            prefix_hint = instance.program.prefix_hint
            prefix_tokens = None
            # Only cache_affinity and disaggregated placement read the
            # hint; skip the tokenizer work under the other policies.
            if prefix_hint is not None and service.router.policy in (
                "cache_affinity",
                "disaggregated",
            ):
                prefix_tokens = (
                    service.entry.tokenizer.encode(prefix_hint)
                    if isinstance(prefix_hint, str)
                    else list(prefix_hint)
                )
            shard = service.router.place(
                instance.instance_id,
                hint=instance.program.placement_hint,
                prefix_tokens=prefix_tokens,
            )
            shard.resources.create_space(instance.instance_id)
            self.metrics.record_placement(shard.name)

    def unregister_inferlet(self, instance: InferletInstance) -> None:
        self._instances.pop(instance.instance_id, None)
        for service in self._services.values():
            if not service.router.is_placed(instance.instance_id):
                continue
            shard = service.router.shard_for(instance.instance_id)
            for queue in shard.scheduler.queues_for_owner(instance.instance_id):
                shard.scheduler.remove_queue(queue.key)
            if shard.resources.has_space(instance.instance_id):
                # Also discards any host-tier slots the space still holds.
                shard.resources.destroy_space(instance.instance_id)
            service.swap.forget(instance.instance_id)
            if service.transfer is not None:
                # Abort any half-streamed KV: staged destination pages are
                # only pinned by the transfer, so this frees them all.
                service.transfer.forget(instance.instance_id)
            service.router.release(instance.instance_id)

    def set_terminate_hook(self, hook: Callable[[InferletInstance, str], None]) -> None:
        """Called by the lifecycle manager so FCFS reclamation can abort tasks."""
        self._terminate_hook = hook

    @property
    def concurrent_inferlets(self) -> int:
        """Live inferlets: the size of the registry, which only
        :meth:`register_inferlet` and :meth:`unregister_inferlet` change.
        Every terminal status is written together with an unregistration
        (:meth:`terminate_inferlet`, the lifecycle manager's ``_retire``), so
        no finished instance is ever counted — and every API call reads
        this (Figure 10's overhead term)."""
        return len(self._instances)

    def instances(self) -> List[InferletInstance]:
        return list(self._instances.values())

    # -- per-call overhead model (Figure 10) --------------------------------------------

    def control_call_overhead(self) -> float:
        control = self.config.control
        n = max(1, self.concurrent_inferlets)
        return microseconds(
            control.control_call_overhead_base_us
            + control.control_call_overhead_per_inferlet_us * n
        )

    def inference_call_overhead(self) -> float:
        control = self.config.control
        n = max(1, self.concurrent_inferlets)
        return microseconds(
            control.inference_call_overhead_base_us
            + control.inference_call_overhead_per_inferlet_us * n
        )

    def charge_call(self, instance: InferletInstance, api_name: str) -> float:
        """Record an API call and return the overhead it should pay."""
        layer = api_layer(api_name)
        instance.metrics.record_call(api_name, layer)
        if layer == "control":
            return self.control_call_overhead()
        return self.inference_call_overhead()

    def record_output_tokens(self, instance: InferletInstance, count: int = 1) -> None:
        """Count emitted output tokens, stamping TTFT/TPOT timestamps and
        feeding the per-tenant SLO samples when QoS is enabled."""
        if count <= 0:
            return
        now = self.sim.now
        first = instance.metrics.note_output(now, count)
        self.metrics.total_output_tokens += count
        if self.qos is not None:
            self.qos.note_output(instance, now, count, first)
        if self.monitor is not None and first:
            self.monitor.note_first_token(
                instance, now - instance.metrics.launched_at
            )

    # -- command queues -------------------------------------------------------------------

    def create_queue(self, instance: InferletInstance, model: Optional[str] = None) -> Queue:
        model = model or self.default_model()
        service = self.service(model)
        shard = service.shard_for(instance.instance_id)
        qid = next(self._queue_ids)
        # New queues inherit the launch-time priority, so inferlets need
        # not call set_queue_priority per queue after creation.
        priority = instance.default_priority
        handle = Queue(
            qid=qid, owner=instance.instance_id, model=model, priority=priority
        )
        shard.scheduler.create_queue(
            key=(instance.instance_id, qid),
            model=model,
            owner=instance.instance_id,
            priority=priority,
        )
        return handle

    def destroy_queue(self, instance: InferletInstance, handle: Queue) -> None:
        shard = self.service(handle.model).shard_for(handle.owner)
        shard.scheduler.remove_queue((handle.owner, handle.qid))
        handle.closed = True

    def set_queue_priority(self, handle: Queue, priority: int) -> None:
        shard = self.service(handle.model).shard_for(handle.owner)
        shard.scheduler.set_priority((handle.owner, handle.qid), priority)
        handle.priority = priority

    def synchronize(self, handle: Queue) -> SimFuture:
        shard = self.service(handle.model).shard_for(handle.owner)
        queue = shard.scheduler.get_queue((handle.owner, handle.qid))
        future = self.sim.create_future(name="synchronize")
        queue.synchronize(future)
        return future

    # -- resource allocation (with FCFS contention handling) -----------------------------------

    def alloc_kv_pages(
        self, instance: InferletInstance, handle: Queue, count: int
    ) -> List[KvPage]:
        service = self.service(handle.model)
        shard = service.shard_for(instance.instance_id)
        self._ensure_capacity(service, shard, instance, kv_pages=count)
        return shard.resources.alloc_kv_pages(instance.instance_id, count)

    def alloc_embeds(self, instance: InferletInstance, handle: Queue, count: int) -> List[Embed]:
        service = self.service(handle.model)
        shard = service.shard_for(instance.instance_id)
        self._ensure_capacity(service, shard, instance, embeds=count)
        handles = shard.resources.alloc_embeds(instance.instance_id, count)
        if shard.prefix_cache is not None:
            # Reused slots may carry a previous owner's token identity.
            shard.prefix_cache.forget_embeds(
                shard.resources.resolve_emb_many(instance.instance_id, handles)
            )
        return handles

    def _ensure_capacity(
        self,
        service: ModelService,
        shard: DeviceShard,
        requester: InferletInstance,
        kv_pages: int = 0,
        embeds: int = 0,
    ) -> None:
        """Reclamation: swap-first, terminate-last.

        With a host KV tier configured, pressure is first absorbed
        non-destructively: blocked inferlets' pages are staged out to host
        memory (the recompute-vs-transfer model in
        :meth:`repro.core.swap.SwapManager.reclaim_by_swap` decides whether
        a candidate is worth staging).  Only when no swap candidate remains
        does the stock FCFS policy run: terminate the most recently created
        inferlets until the request fits.  If the requester itself is the
        most recently created inferlet, it is the one terminated (first
        come, first served).  Only inferlets placed on the contended shard
        are eligible victims — killing one on another device would free
        nothing here."""
        if self.config.control.contention_policy != "fcfs":
            return
        while (
            shard.resources.kv_pages_free < kv_pages
            or shard.resources.embeds_free < embeds
        ):
            if shard.resources.kv_pages_free < kv_pages and service.swap.reclaim_by_swap(
                shard, exclude=(requester.instance_id,)
            ):
                continue
            # Second rung: demote (or evict) the prefix cache's coldest
            # entries before any live inferlet is terminated.
            if shard.resources.kv_pages_free < kv_pages and service.swap.reclaim_by_cache(
                shard
            ):
                continue
            victim = self._youngest_victim(service, shard)
            if victim is None:
                raise OutOfResourcesError(
                    f"model {service.entry.name!r} ({shard.name}) cannot satisfy the "
                    f"allocation (kv={kv_pages}, emb={embeds}) even after reclamation"
                )
            self.metrics.reclamation_terminations += 1
            shard.scheduler.stats.reclamation_terminations += 1
            if self.trace is not None:
                self.trace.instant(
                    "reclaim_terminate",
                    "sched",
                    shard=shard.index,
                    inferlet=victim.instance_id,
                    args={"requester": requester.instance_id},
                )
            if self.qos is not None:
                self.qos.note_preempted_termination(victim)
            self.terminate_inferlet(victim, reason="resource reclamation (FCFS)")
            if victim.instance_id == requester.instance_id:
                requester.check_alive()  # raises InferletTerminated

    def _youngest_victim(
        self, service: ModelService, shard: DeviceShard
    ) -> Optional[InferletInstance]:
        # Placement order is registration order, so ties resolve as they
        # would walking the registry.
        candidates = [
            self._instances[instance_id]
            for instance_id in service.router.instances_on(shard)
        ]
        if not candidates:
            return None
        # Suspended inferlets occupy no device KV: terminating one frees
        # nearly nothing, so resident inferlets are killed first.
        resident = [
            inst
            for inst in candidates
            if not service.swap.is_swapped(inst.instance_id)
        ]
        pool = resident or candidates
        if self.qos is not None:
            # Terminate-last becomes class-aware: lowest class and most
            # slack first, youngest within a tier (FCFS), so interactive
            # tenants are the last to lose computed state.
            return min(pool, key=lambda inst: self.qos.victim_key(inst))
        return max(pool, key=lambda inst: inst.created_at)

    def terminate_inferlet(
        self, instance: InferletInstance, reason: str, cause: str = ""
    ) -> None:
        instance.mark_terminated(reason, cause=cause)
        self.metrics.inferlets_terminated += 1
        if self._terminate_hook is not None:
            self._terminate_hook(instance, reason)
        self.unregister_inferlet(instance)

    # -- chaos plane: failover -------------------------------------------------

    def _live_links(self) -> List:
        """Every live disaggregation KV link (the injector's fault target)."""
        links: List = []
        for service in self._services.values():
            if service.transfer is not None:
                links.extend(service.transfer.links())
        return links

    def _failover_shard(self, index: int) -> None:
        """Shard ``index`` went down: evacuate or terminate its residents.

        Streams targeting the dead shard re-plan first (their staged pages
        free), then every inferlet placed there is re-materialized on a
        healthy shard when its committed KV lives wholly in the host tier
        (quiescent + fully swapped: the per-node host pool survives a
        device crash) or terminated with ``cause="shard_down"``.
        """
        for service in self._services.values():
            if index >= len(service.shards):
                continue
            dead = service.shards[index]
            if service.transfer is not None:
                service.transfer.on_shard_down(index)
            for instance_id in sorted(service.router.instances_on(dead)):
                instance = self._instances.get(instance_id)
                if instance is None or instance.finished:
                    continue
                if self._try_relaunch(service, dead, instance):
                    self.metrics.failover_relaunches += 1
                    continue
                self.metrics.failover_terminations += 1
                self.terminate_inferlet(
                    instance,
                    reason=f"shard {dead.name} is down (injected crash)",
                    cause="shard_down",
                )

    def _try_relaunch(
        self, service: ModelService, dead: DeviceShard, instance: InferletInstance
    ) -> bool:
        """Re-materialize a fully host-tier-resident inferlet elsewhere.

        Only safe when the owner's *committed* state survives the crash:
        every KV page staged to the host tier (fully swapped), no in-air
        or queued commands.  Embed slots are per-step scratch — their
        device-resident contents died with the device, so fresh zeroed
        slots are provisioned on the destination under the same virtual
        ids; the next forward rewrites them before any sample reads them
        (the Context idiom), exactly as after a cold resume.  The swapped
        host slots and the address-space counters move via the same
        detach/adopt path live migration uses; the next fault-in restores
        the pages onto the new shard's device.
        """
        owner = instance.instance_id
        swap = service.swap
        if not swap.enabled or not swap.is_swapped(owner):
            return False
        if instance.in_air_commands > 0:
            return False
        if not dead.resources.has_space(owner):
            return False
        if dead.resources.kv_mapping(owner):
            return False
        for queue in dead.scheduler.queues_for_owner(owner):
            if queue.pending_count or queue.inflight_count:
                return False
        try:
            dst = service.shards[service.router._place_least_loaded()]
        except ShardUnavailableError:
            return False
        emb_vids = sorted(dead.resources.emb_mapping(owner))
        if dst.resources.memory.embeds.num_free < len(emb_vids):
            return False
        if service.transfer is not None:
            # Any half-streamed KV of the owner is rooted on the dead
            # device; drop the staging (the host tier holds the truth).
            service.transfer.forget(owner)
        _, _, swapped_kv, next_kv_vid, next_emb_vid = (
            dead.resources.detach_space_for_migration(owner)
        )
        emb_map = dict(
            zip(emb_vids, dst.resources.memory.embeds.allocate(len(emb_vids)))
        )
        dst.resources.adopt_migrated_space(
            owner, {}, emb_map, swapped_kv, next_kv_vid, next_emb_vid
        )
        for queue in list(dead.scheduler.queues_for_owner(owner)):
            dead.scheduler.detach_queue(queue.key)
            dst.scheduler.adopt_queue(queue)
        service.router.migrate(owner, dst.index)
        swap.note_migrated(owner, dst)
        if self.trace is not None:
            start = dead.device.down_since
            self.trace.complete(
                "relaunch",
                "fault",
                start if start is not None else self.sim.now,
                end=self.sim.now,
                shard=dst.index,
                inferlet=owner,
                args={"src": dead.index, "dst": dst.index, "embeds": len(emb_vids)},
            )
        return True

    # -- deferred deallocation (ordering preserved through the command queue) --------------------

    def dealloc_kv_pages(
        self, instance: InferletInstance, handle: Queue, pages: Sequence[KvPage]
    ) -> SimFuture:
        shard = self.service(handle.model).shard_for(instance.instance_id)
        pages = list(pages)

        def release() -> None:
            if shard.resources.has_space(instance.instance_id):
                shard.resources.dealloc_kv_pages(instance.instance_id, pages)

        return self.submit_command(
            instance, handle, "dealloc_kv", {"release": release}, reads=frozenset(), writes=frozenset()
        )

    def dealloc_embeds(
        self, instance: InferletInstance, handle: Queue, embeds: Sequence[Embed]
    ) -> SimFuture:
        shard = self.service(handle.model).shard_for(instance.instance_id)
        embeds = list(embeds)

        def release() -> None:
            if shard.resources.has_space(instance.instance_id):
                shard.resources.dealloc_embeds(instance.instance_id, embeds)

        return self.submit_command(
            instance, handle, "dealloc_emb", {"release": release}, reads=frozenset(), writes=frozenset()
        )

    # -- export / import -----------------------------------------------------------------------------

    def export_kv_pages(
        self, instance: InferletInstance, pages: Sequence[KvPage], name: str
    ) -> None:
        if not pages:
            raise ResourceError("export_kvpage requires at least one page")
        service = self.service(pages[0].model)
        shard = service.shard_for(instance.instance_id)
        if service.find_export_shard(name) is not None:
            raise ResourceError(f"export name {name!r} already in use")
        self._fault_in_if_swapped(service, instance)
        shard.resources.export_kv_pages(instance.instance_id, pages, name)

    def import_kv_pages(
        self, instance: InferletInstance, name: str, model: Optional[str] = None
    ) -> List[KvPage]:
        model = model or self._find_export_model(name)
        service = self.service(model)
        src_shard = service.find_export_shard(name)
        if src_shard is None:
            raise ResourceError(f"no export named {name!r} in model {model!r}")
        dst_shard = service.shard_for(instance.instance_id)
        if src_shard is dst_shard:
            return src_shard.resources.import_kv_pages(instance.instance_id, name)
        return self._cross_device_import(service, instance, name, src_shard, dst_shard)

    def _cross_device_import(
        self,
        service: ModelService,
        instance: InferletInstance,
        name: str,
        src_shard: DeviceShard,
        dst_shard: DeviceShard,
    ) -> List[KvPage]:
        """Import pages exported on another device of the same cluster.

        The exported pages stay where they are; the importer gets fresh
        pages on *its* device with the KV contents copied over (the
        simulated equivalent of an NVLink/PCIe transfer).  The transfer
        occupies the destination device for the transfer time — it consumes
        that device's memory bandwidth — so commands issued against the
        migrated pages wait for the copy to land.  ``cache_affinity``
        placement exists to avoid paying this path.

        Note the semantics: a same-shard import *aliases* the exporter's
        physical pages (refcounted sharing, as on a single device) while a
        cross-shard import takes a point-in-time *snapshot*.  Exports are
        therefore treated as immutable published prefixes — the support
        library seals imported pages read-only, and an exporter that
        mutates pages after publishing them gets device-dependent
        visibility."""
        entry = src_shard.resources.export_info(name)
        self._ensure_capacity(service, dst_shard, instance, kv_pages=len(entry.physical_ids))
        handles = dst_shard.resources.alloc_kv_pages(
            instance.instance_id, len(entry.physical_ids)
        )
        physical_ids = dst_shard.resources.resolve_kv_many(instance.instance_id, handles)
        for src_pid, dst_pid in zip(entry.physical_ids, physical_ids):
            src_page = src_shard.memory.kv_pages.page(src_pid)
            dst_shard.memory.kv_pages.page(dst_pid).copy_page_from(src_page)
        control = self.config.control
        transfer_seconds = milliseconds(
            control.cross_device_transfer_base_ms
            + control.cross_device_transfer_ms_per_page * len(physical_ids)
        )
        dst_shard.device.submit(
            kind="kv_transfer",
            run=lambda: None,
            cost_seconds=transfer_seconds,
            size=len(physical_ids),
        )
        entry.imports += 1
        self.metrics.cross_device_imports += 1
        return handles

    def release_export(self, name: str, model: Optional[str] = None) -> None:
        model = model or self._find_export_model(name)
        shard = self.service(model).find_export_shard(name)
        if shard is None:
            raise ResourceError(f"no export named {name!r} in model {model!r}")
        shard.resources.release_export(name)

    def list_exports(self, model: Optional[str] = None) -> List[str]:
        if model is not None:
            return self.service(model).list_exports()
        names: List[str] = []
        for service in self._services.values():
            names.extend(service.list_exports())
        return sorted(names)

    def _find_export_model(self, name: str) -> str:
        for model, service in self._services.items():
            if service.find_export_shard(name) is not None:
                return model
        raise ResourceError(f"no export named {name!r} in any served model")

    # -- command submission ----------------------------------------------------------------------------

    def submit_command(
        self,
        instance: InferletInstance,
        handle: Queue,
        kind: str,
        payload: Dict[str, Any],
        rows: int = 1,
        input_tokens: int = 0,
        context_tokens: int = 0,
        reads: FrozenSet = frozenset(),
        writes: FrozenSet = frozenset(),
    ) -> SimFuture:
        """Create a command and deliver it to the scheduler of the
        inferlet's shard after the inference-layer call overhead has
        elapsed."""
        instance.check_alive()
        service = self.service(handle.model)
        shard = service.shard_for(instance.instance_id)
        future = self.sim.create_future(name=f"{kind}:{instance.instance_id}")
        command = Command(
            kind=kind,
            inferlet_id=instance.instance_id,
            payload=payload,
            future=future,
            issue_time=self.sim.now,
            rows=rows,
            input_tokens=input_tokens,
            context_tokens=context_tokens,
            reads=reads,
            writes=writes,
        )
        if self.trace is not None:
            # Queue-wait span: submission (issue_time) -> popped into a
            # dispatched batch; closed by the shard scheduler, or at the
            # drop sites (delivery window, queue teardown, failed slice).
            command.trace_span = self.trace.begin(
                f"queue:{kind}",
                "queue",
                shard=shard.index,
                inferlet=instance.instance_id,
                args={"tokens": input_tokens} if input_tokens else None,
            )
        if kind == "forward":
            # Counted at completion so commands dropped in the delivery
            # window or at queue teardown (they resolve to None without
            # executing) never inflate the processed-token account.
            def count_forward(fut, tokens=input_tokens):
                if fut.exception() is None and fut.result() is not None:
                    self.metrics.forward_input_tokens += tokens

            future.add_done_callback(count_forward)
        cache = shard.prefix_cache
        if cache is not None and cache.enabled:
            # Track which physical pages in-flight commands reference, so
            # the cache never rebinds a page a command could still observe.
            kv_pids = [rid for tag, rid in (reads | writes) if tag == "kv"]
            if kv_pids:
                cache.note_busy(kv_pids)
                future.add_done_callback(
                    lambda _f, c=cache, p=kv_pids: c.release_busy(p)
                )
        if service.transfer is not None and service.router.on_prefill_shard(
            instance.instance_id
        ):
            # Disaggregation: dirty-track writes against staged pages, track
            # prefill commit progress, and arm the handoff on the sample's
            # completion.  Registered *after* the cache hooks and *before*
            # the caller can await the future, so under FIFO call_soon the
            # handoff runs with busy pins released and the program still
            # suspended.
            service.transfer.on_command_submitted(instance, command)
        overhead = self.inference_call_overhead()
        queue_key = (handle.owner, handle.qid)
        instance.in_air_commands += 1
        self.sim.schedule(
            overhead, self._deliver_command, instance, shard, queue_key, command
        )
        return future

    def _deliver_command(
        self,
        instance: InferletInstance,
        shard: DeviceShard,
        queue_key: Any,
        command: Command,
    ) -> None:
        instance.in_air_commands -= 1
        # The owning inferlet may have finished (or been terminated) between
        # issuing the call and its delivery; its queues are gone and the
        # command is dropped.  Resolving the future keeps any stray awaiters
        # from deadlocking.
        try:
            shard.scheduler.get_queue(queue_key)
        except Exception:
            if self.trace is not None:
                self.trace.end(command.trace_span, args={"dropped": True})
                command.trace_span = None
            if not command.future.done():
                command.future.set_result(None)
            return
        shard.scheduler.submit(queue_key, command)

    # -- automatic prefix cache accessors ------------------------------------------------------------------

    def prefix_cache_probe(
        self, instance: InferletInstance, handle: Queue
    ) -> Optional[PrefixCacheService]:
        """The shard's prefix cache, or None when the knob is off."""
        shard = self.service(handle.model).shard_for(instance.instance_id)
        cache = shard.prefix_cache
        if cache is None or not cache.enabled:
            return None
        return cache

    def prepare_kv_mutation(
        self, instance: InferletInstance, handle: Queue, page: KvPage
    ) -> int:
        """Resolve a page about to be mutated by mask/clear/copy.

        With the prefix cache on, a page it aliased into several address
        spaces must not be mutated in place — that would silently change
        every other holder's context.  Such a page is first unshared
        (copy-on-write: the mutator gets a private copy, the device is
        charged one page copy) and the resulting page is tainted so the
        cache never registers it.  Pages shared only through
        export/import keep their stock in-place mutation semantics — the
        application opted into that aliasing.
        """
        service = self.service(handle.model)
        shard = service.shard_for(instance.instance_id)
        pid = self.resolve_kv(instance, handle, [page])[0]
        cache = shard.prefix_cache
        if cache is None or not cache.enabled:
            return pid
        if shard.resources.kv_refcount(pid) > 1 and cache.is_cache_shared(pid):
            self._ensure_capacity(service, shard, instance, kv_pages=1)
            pid = shard.resources.materialize_private_kv(instance.instance_id, page)
            shard.device.submit(
                kind="cache_cow",
                run=lambda: None,
                cost_seconds=service.cost_model.copy_batch_cost(1),
                size=1,
            )
        cache.invalidate_pid(pid)
        return pid

    def prefix_cache_for_forward(
        self, instance: InferletInstance, handle: Queue
    ) -> Optional[PrefixCacheService]:
        """Like :meth:`prefix_cache_probe`, but restores swapped pages first
        so the cache can resolve the owner's context pages."""
        service = self.service(handle.model)
        shard = service.shard_for(instance.instance_id)
        cache = shard.prefix_cache
        if cache is None or not cache.enabled:
            return None
        self._fault_in_if_swapped(service, instance)
        return cache

    # -- resolution helpers used by the API bindings -------------------------------------------------------

    def _fault_in_if_swapped(
        self, service: ModelService, instance: InferletInstance
    ) -> None:
        """Transparent paging: restore staged pages before they are used.

        An inferlet that keeps running while its pages sit in the host tier
        (fire-and-forget external calls, or a reclamation that staged it
        out) faults its whole set back in the moment it touches one.  The
        restore is immediate in state; the PCIe cost lands on the device, so
        the commands issued next queue behind the transfer."""
        if service.swap.is_swapped(instance.instance_id):
            service.swap.fault_in(instance)

    def resolve_kv(self, instance: InferletInstance, handle: Queue, pages: Sequence[KvPage]) -> List[int]:
        service = self.service(handle.model)
        shard = service.shard_for(instance.instance_id)
        self._fault_in_if_swapped(service, instance)
        return shard.resources.resolve_kv_many(instance.instance_id, pages)

    def resolve_emb(self, instance: InferletInstance, handle: Queue, embeds: Sequence[Embed]) -> List[int]:
        shard = self.service(handle.model).shard_for(instance.instance_id)
        return shard.resources.resolve_emb_many(instance.instance_id, embeds)

    # -- messaging and I/O --------------------------------------------------------------------------------------

    def client_send(self, instance: InferletInstance, message: Any) -> None:
        if instance.channel is None:
            raise ReproError("inferlet has no client channel")
        instance.channel.send_to_client(message)

    def client_receive(self, instance: InferletInstance) -> SimFuture:
        if instance.channel is None:
            raise ReproError("inferlet has no client channel")
        return instance.channel.receive_from_client()

    def http_request(
        self, url: str, payload: Any = None, instance: Optional[InferletInstance] = None
    ) -> SimFuture:
        if self.faults is not None:
            future = self.sim.create_task(
                self._faulty_request(url, payload, instance), name=f"http:{url}"
            )
        else:
            future = self.sim.create_task(
                self.external.request(url, payload), name=f"http:{url}"
            )
        if instance is None:
            return future
        return self._wrap_external_call(instance, future)

    async def _faulty_request(
        self,
        url: str,
        payload: Any,
        instance: Optional[InferletInstance] = None,
    ) -> Any:
        """Tool call under the chaos plane: fault windows, backoff, retry.

        Each attempt consults the injector's open tool-fault windows; a hit
        burns the timeout wait (``tool_timeout`` flavour), then the retry
        policy decides between a jittered backoff and giving up with
        :class:`RetriesExhaustedError` chained onto the injected fault.
        """
        attempts = 0
        while True:
            kind = self.faults.tool_fault(url, self.sim.now)
            if kind is None:
                return await self.external.request(url, payload)
            self.metrics.tool_faults += 1
            if self.trace is not None:
                self.trace.instant(
                    f"fault_{kind}_hit",
                    "fault",
                    args={"url": url, "attempt": attempts + 1},
                )
            if kind == "tool_timeout":
                await self.sim.sleep(FaultInjector.TOOL_TIMEOUT_S)
            delay = (
                self.retry.backoff(attempts, "tool")
                if self.retry is not None
                else None
            )
            if delay is None:
                self.metrics.retries_exhausted += 1
                error = FaultInjectedError(
                    f"tool call to {url} failed (injected {kind})", kind=kind
                )
                if self.retry is not None:
                    raise RetriesExhaustedError(
                        f"tool call to {url} failed after {attempts + 1} attempts "
                        f"(injected {kind})",
                        attempts=attempts + 1,
                    ) from error
                raise error
            attempts += 1
            self.metrics.tool_retries += 1
            self.metrics.retry_backoff_seconds += delay
            if self.trace is not None:
                self.trace.complete(
                    "retry_backoff",
                    "fault",
                    self.sim.now,
                    end=self.sim.now + delay,
                    inferlet=None if instance is None else instance.instance_id,
                    args={"op": "tool", "url": url, "attempt": attempts, "delay": delay},
                )
            await self.sim.sleep(delay)

    def _wrap_external_call(
        self, instance: InferletInstance, inner: SimFuture
    ) -> SimFuture:
        """Suspend/resume hook around an external (tool) call.

        While the call is in flight the inferlet is a safe swap candidate
        (proactive policy stages it out immediately; on_demand leaves it to
        reclamation).  Before the wrapped future resolves, any staged pages
        are swapped back in, so the resuming coroutine always sees resident
        pages.  With no swap-capable service (``host_kv_pages=0``) the raw
        future is returned untouched and behaviour is bit-identical to the
        pre-swap system."""
        managers = [
            (service.swap, service.router.shard_for(instance.instance_id))
            for service in self._services.values()
            if service.swap.enabled and service.router.is_placed(instance.instance_id)
        ]
        if not managers:
            return inner

        async def suspend_resume():
            for swap, shard in managers:
                swap.note_blocked(instance, shard)
            try:
                return await inner
            finally:
                for swap, _ in managers:
                    swap.note_unblocked(instance)
                    await swap.ensure_resident(instance)

        return self.sim.create_task(
            suspend_resume(), name=f"extcall:{instance.instance_id}"
        )

    def broadcast(self, instance: InferletInstance, topic: str, message: Any) -> int:
        return self.bus.broadcast(topic, message, sender_id=instance.instance_id)

    def subscribe(self, instance: InferletInstance, topic: str) -> None:
        self.bus.subscribe(topic, instance.instance_id)

    def unsubscribe(self, instance: InferletInstance, topic: str) -> None:
        self.bus.unsubscribe(topic, instance.instance_id)

    def next_broadcast(self, instance: InferletInstance, topic: str) -> SimFuture:
        return self.bus.next_message(topic, instance.instance_id)
