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
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    OutOfResourcesError,
    ReproError,
    ResourceError,
    SchedulingError,
)
from repro.core.command_queue import Command
from repro.core.config import PieConfig
from repro.core.handles import Embed, KvPage, Queue
from repro.core.health import ShardHealthService
from repro.core.inferlet import InferletInstance, LifecycleObserver
from repro.core.messaging import ExternalServices, MessageBus
from repro.core.metrics import SystemMetrics
from repro.core.monitor import MonitorService
from repro.core.qos import QosService, TenantTable
from repro.core.retry import RetryPolicy, faulty_request
from repro.core.router import DeviceShard
from repro.core.service import ModelService
from repro.core.trace import LifecycleTracer, TraceRecorder, telemetry_sampler
from repro.core.traits import api_layer
from repro.model.registry import ModelRegistry
from repro.sim.faults import FaultInjector
from repro.sim.futures import SimFuture
from repro.sim.latency import microseconds
from repro.sim.periodic import PeriodicService
from repro.sim.simulator import Simulator

# Model constants, calibrated once against the paper and not configurable.
#: Figure 10: per-call overhead (µs) of a call the control layer answers
#: itself, as base + slope * concurrent inferlets ...
CONTROL_CALL_OVERHEAD_BASE_US = 5.0
CONTROL_CALL_OVERHEAD_PER_INFERLET_US = 0.025
#: ... and of a call forwarded to the inference layer (IPC crossing plus
#: Python-side deserialisation that grows with concurrency).
INFERENCE_CALL_OVERHEAD_BASE_US = 10.0
INFERENCE_CALL_OVERHEAD_PER_INFERLET_US = 0.30


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
        control = config.control
        self._services: Dict[str, ModelService] = {}
        self._instances: Dict[str, InferletInstance] = {}
        self._queue_ids = itertools.count(1)
        #: Set by the lifecycle manager, so a forced termination (FCFS
        #: reclamation, failover, abort) also cancels the inferlet's task.
        self.terminate_hook: Callable[[InferletInstance, str], None] = lambda *_: None
        #: What each tenant was promised: the only ``name -> TenantSpec``
        #: table (``tenants.register(spec)`` extends it), there with every
        #: plane off.
        self.tenants = TenantTable(control.tenants)
        # ... and what it got: one TenantMetrics record per tenant, from here
        # for the configured ones and from their first launch for the rest.
        for spec in self.tenants.values():
            self.metrics.tenant_record(spec)
        # The optional planes.  Each is None when its knob is off: nothing
        # is constructed, ``observers`` and ``timers`` do not hold it, and
        # the serving path is bit-identical to a system without the plane.
        # When on, everything a plane does on the serving path is read-only,
        # so tokens and virtual timestamps are still bit-identical.
        observers: List[LifecycleObserver] = []
        timers: List[PeriodicService] = []
        # The flight recorder (repro.core.trace).
        self.trace: Optional[TraceRecorder] = None
        if control.tracing:
            self.trace = TraceRecorder(sim)
            timers.append(telemetry_sampler(self.trace, self))
        # The QoS control plane (repro.core.qos): admission, SLO-aware
        # dispatch, priority-aware preemption and fair share.
        self.qos: Optional[QosService] = None
        if control.qos:
            self.qos = QosService(
                sim,
                self.metrics,
                tenants=self.tenants,
                trace=self.trace,
            )
            observers.append(self.qos)
        # The chaos plane (repro.sim.faults / repro.core.retry /
        # repro.core.health): the deterministic fault schedule, the retry
        # policy for tool calls and refused handoffs, and — below, once the
        # shards exist — the heartbeat-driven health / failover service.
        # Each draws randomness only from its own seeded stream, so
        # faults=on perturbs the workload solely through the faults.
        self.faults: Optional[FaultInjector] = None
        self.retry: Optional[RetryPolicy] = None
        self.health: Optional[ShardHealthService] = None
        if control.faults:
            self.retry = RetryPolicy(seed=control.fault_seed)
            self.faults = FaultInjector(
                sim,
                control.fault_plan,
                seed=control.fault_seed,
                trace=self.trace,
                metrics=self.metrics,
            )
        # The live monitoring plane (repro.core.monitor): SLO burn-rate
        # alerting on a virtual-clock tick, exports collected on demand.
        self.monitor: Optional[MonitorService] = None
        if control.monitoring:
            self.monitor = MonitorService(self)
            timers.append(self.monitor.scraper)
        for name in registry.names():
            self._services[name] = ModelService.build(
                sim,
                config,
                registry.get(name),
                self.metrics,
                self._ensure_capacity,
                qos=self.qos,
                trace=self.trace,
                retry=self.retry,
            )
        if control.faults:
            self.health = ShardHealthService(self)
            timers.append(self.health.heartbeat)
            for service in self._services.values():
                service.router.health_probe = self.health.placeable
            self.faults.bind(self.health)
            self.faults.arm()
        if control.tracing:
            # Told last, so an inferlet's spans close after the other
            # planes' accounting of the same fact has been recorded.
            observers.append(LifecycleTracer(self.trace))
        #: Who is told the lifecycle facts (launch requested / running,
        #: reclaimed, finished), each published at one site.  Empty when
        #: every knob is off.
        self.observers: Tuple[LifecycleObserver, ...] = tuple(observers)
        #: The planes' periodic timers; every registration pokes them awake.
        self.timers: Tuple[PeriodicService, ...] = tuple(timers)

    # -- services & models ----------------------------------------------------

    def service(self, model: str) -> ModelService:
        try:
            return self._services[model]
        except KeyError:
            raise ReproError(f"model {model!r} is not served; have {sorted(self._services)}") from None

    def services(self) -> Iterable[ModelService]:
        """Every served model's cluster."""
        return self._services.values()

    def available_models(self) -> List[str]:
        return sorted(self._services)

    def default_model(self) -> str:
        return self.available_models()[0]

    # -- inferlet registration -----------------------------------------------------

    def register_inferlet(self, instance: InferletInstance) -> None:
        self._instances[instance.instance_id] = instance
        self.metrics.register(instance.metrics)
        for timer in self.timers:
            timer.poke()
        for service in self._services.values():
            shard = service.router.place(instance)
            shard.resources.create_space(instance.instance_id)
            self.metrics.record_placement(shard.name)

    def unregister_inferlet(self, instance: InferletInstance) -> None:
        self._instances.pop(instance.instance_id, None)
        for shard in list(instance.placements.values()):
            service = shard.service
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
            service.router.release(instance)

    @property
    def concurrent_inferlets(self) -> int:
        """Live inferlets: the size of the registry, which only
        :meth:`register_inferlet` and :meth:`unregister_inferlet` change.
        Every terminal status is written together with an unregistration
        (:meth:`terminate_inferlet`, the lifecycle manager's ``_retire``), so
        no finished instance is ever counted — and every API call reads
        this (Figure 10's overhead term)."""
        return len(self._instances)

    def has_live_inferlets(self) -> bool:
        """The planes' timers keep ticking only while this holds."""
        return bool(self._instances)

    def instances(self) -> List[InferletInstance]:
        return list(self._instances.values())

    # -- per-call overhead model (Figure 10) --------------------------------------------

    def control_call_overhead(self) -> float:
        n = max(1, self.concurrent_inferlets)
        return microseconds(
            CONTROL_CALL_OVERHEAD_BASE_US + CONTROL_CALL_OVERHEAD_PER_INFERLET_US * n
        )

    def inference_call_overhead(self) -> float:
        n = max(1, self.concurrent_inferlets)
        return microseconds(
            INFERENCE_CALL_OVERHEAD_BASE_US + INFERENCE_CALL_OVERHEAD_PER_INFERLET_US * n
        )

    def charge_call(self, instance: InferletInstance, api_name: str) -> float:
        """Record an API call and return the overhead it should pay."""
        layer = api_layer(api_name)
        instance.metrics.record_call(api_name, layer)
        if layer == "control":
            return self.control_call_overhead()
        return self.inference_call_overhead()

    def record_output_tokens(self, instance: InferletInstance, count: int = 1) -> None:
        """Count emitted output tokens, stamping TTFT/TPOT timestamps; the
        first token is the tenant's TTFT sample."""
        if count <= 0:
            return
        first = instance.metrics.note_output(self.sim.now, count)
        self.metrics.total_output_tokens += count
        self.metrics.tenants[instance.tenant].note_output(instance.metrics, count, first)

    # -- command queues -------------------------------------------------------------------

    def create_queue(self, instance: InferletInstance, model: Optional[str] = None) -> Queue:
        model = model or self.default_model()
        self.service(model)  # a model the caller names may not be served
        shard = instance.placements[model]
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
        scheduler = instance.placements[handle.model].scheduler
        scheduler.remove_queue((handle.owner, handle.qid))

    def set_queue_priority(
        self, instance: InferletInstance, handle: Queue, priority: int
    ) -> None:
        scheduler = instance.placements[handle.model].scheduler
        scheduler.set_priority((handle.owner, handle.qid), priority)
        handle.priority = priority

    def synchronize(self, instance: InferletInstance, handle: Queue) -> SimFuture:
        queue = instance.placements[handle.model].scheduler.get_queue((handle.owner, handle.qid))
        future = self.sim.create_future(name="synchronize")
        queue.synchronize(future)
        return future

    # -- resource allocation (with FCFS contention handling) -----------------------------------

    def alloc_kv_pages(
        self, instance: InferletInstance, home: DeviceShard, count: int
    ) -> List[KvPage]:
        self._ensure_capacity(home, instance, kv_pages=count)
        return home.resources.alloc_kv_pages(instance.instance_id, count)

    def alloc_embeds(
        self, instance: InferletInstance, home: DeviceShard, count: int
    ) -> List[Embed]:
        self._ensure_capacity(home, instance, embeds=count)
        handles = home.resources.alloc_embeds(instance.instance_id, count)
        if home.prefix_cache is not None:
            # Reused slots may carry a previous owner's token identity.
            home.prefix_cache.forget_embeds(
                home.resources.resolve_emb_many(instance.instance_id, handles)
            )
        return handles

    def _ensure_capacity(
        self,
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
        service = shard.service
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
            victim = self._youngest_victim(shard)
            if victim is None:
                raise OutOfResourcesError(
                    f"model {service.entry.name!r} ({shard.name}) cannot satisfy the "
                    f"allocation (kv={kv_pages}, emb={embeds}) even after reclamation"
                )
            self.metrics.reclamation_terminations += 1
            for observer in self.observers:
                observer.note_reclaimed(victim, requester, shard)
            self.terminate_inferlet(victim, reason="resource reclamation (FCFS)")
            if victim.instance_id == requester.instance_id:
                requester.check_alive()  # raises InferletTerminated

    def _youngest_victim(self, shard: DeviceShard) -> Optional[InferletInstance]:
        # Placement order is registration order, so ties resolve as they
        # would walking the registry.
        service = shard.service
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
        self.terminate_hook(instance, reason)
        self.unregister_inferlet(instance)

    # -- deferred deallocation (ordering preserved through the command queue) --------------------

    def dealloc(
        self, instance: InferletInstance, home: DeviceShard, handle: Queue, kind: str, handles: List
    ) -> SimFuture:
        """``kind`` is ``"dealloc_kv"`` (KvPage handles) or ``"dealloc_emb"``."""
        resources = home.resources
        free = resources.dealloc_kv_pages if kind == "dealloc_kv" else resources.dealloc_embeds

        def release() -> None:
            if resources.has_space(instance.instance_id):
                free(instance.instance_id, handles)

        return self.submit_command(instance, home, handle, kind, {"release": release})

    # -- export / import -----------------------------------------------------------------------------

    def export_kv_pages(
        self, instance: InferletInstance, pages: Sequence[KvPage], name: str
    ) -> None:
        if not pages:
            raise ResourceError("export_kvpage requires at least one page")
        shard = instance.placements[pages[0].model]
        if shard.service.find_export_shard(name) is not None:
            raise ResourceError(f"export name {name!r} already in use")
        shard.service.swap.fault_in(instance)
        shard.resources.export_kv_pages(instance.instance_id, pages, name)

    def import_kv_pages(
        self, instance: InferletInstance, name: str, model: Optional[str] = None
    ) -> List[KvPage]:
        src_shard = self._export_shard(name, model)
        dst_shard = instance.placements[src_shard.service.entry.name]
        if src_shard is dst_shard:
            return src_shard.resources.import_kv_pages(instance.instance_id, name)
        return self._cross_device_import(instance, name, src_shard, dst_shard)

    def _cross_device_import(
        self,
        instance: InferletInstance,
        name: str,
        src_shard: DeviceShard,
        dst_shard: DeviceShard,
    ) -> List[KvPage]:
        """Import pages exported on another device of the same cluster: the
        importer gets fresh pages on *its* device holding a point-in-time
        *snapshot* of the export, carried by the shard pair's link and
        landing like a handoff tail (``KvMover.land``), so commands against
        them wait for the copy.  A same-shard import *aliases* the pages
        instead, so exports are treated as immutable published prefixes
        (the support library seals imported pages read-only; an exporter
        that mutates published pages gets device-dependent visibility).
        ``cache_affinity`` placement exists to avoid this path."""
        entry = src_shard.resources.export_info(name)
        n_pages = len(entry.physical_ids)
        self._ensure_capacity(dst_shard, instance, kv_pages=n_pages)
        handles = dst_shard.resources.alloc_kv_pages(instance.instance_id, n_pages)
        dst_pids = dst_shard.resources.resolve_kv_many(instance.instance_id, handles)
        mover = dst_shard.service.mover
        mover.copy(src_shard, dst_shard, entry.physical_ids, dst_pids)
        mover.land(src_shard.index, dst_shard, "kv_transfer", n_pages)
        entry.imports += 1
        self.metrics.cross_device_imports += 1
        return handles

    def release_export(self, name: str, model: Optional[str] = None) -> None:
        self._export_shard(name, model).resources.release_export(name)

    def list_exports(self, model: Optional[str] = None) -> List[str]:
        services = [self.service(model)] if model else self._services.values()
        return sorted(name for service in services for name in service.list_exports())

    def _export_shard(self, name: str, model: Optional[str]) -> DeviceShard:
        """The shard holding export ``name`` (in ``model``'s cluster if given)."""
        for service in [self.service(model)] if model else self._services.values():
            shard = service.find_export_shard(name)
            if shard is not None:
                return shard
        where = f"model {model!r}" if model else "any served model"
        raise ResourceError(f"no export named {name!r} in {where}")

    # -- command submission ----------------------------------------------------------------------------

    def submit_command(
        self,
        instance: InferletInstance,
        home: DeviceShard,
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
                shard=home.index,
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
        transfer = home.service.transfer
        if transfer is not None and home.role == "prefill":
            # Disaggregation: dirty-track writes against staged pages, track
            # prefill commit progress, and arm the handoff on the sample's
            # completion — registered *before* the caller can await the
            # future, so under FIFO call_soon the handoff runs with the
            # program still suspended.
            transfer.on_command_submitted(instance, command)
        overhead = self.inference_call_overhead()
        queue_key = (handle.owner, handle.qid)
        instance.in_air_commands += 1
        self.sim.schedule(
            overhead, self._deliver_command, instance, home, queue_key, command
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
        except SchedulingError:
            if self.trace is not None:
                self.trace.end(command.trace_span, args={"dropped": True})
                command.trace_span = None
            if not command.future.done():
                command.future.set_result(None)
            return
        shard.scheduler.submit(queue_key, command)

    # -- virtual -> physical resolution, used by the API bindings ------------------------------------------

    def resolve_kv(
        self, instance: InferletInstance, home: DeviceShard, pages: Sequence[KvPage]
    ) -> List[int]:
        """Transparent paging: an inferlet that keeps running while its
        pages sit in the host tier (fire-and-forget external calls, or a
        reclamation that staged it out) faults its whole set back in the
        moment it touches one.  The restore is immediate in state; the PCIe
        cost lands on the device, so the commands issued next queue behind
        the transfer."""
        home.service.swap.fault_in(instance)
        return home.resources.resolve_kv_many(instance.instance_id, pages)

    def prepare_kv_mutation(
        self, instance: InferletInstance, home: DeviceShard, page: KvPage
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
        pid = self.resolve_kv(instance, home, [page])[0]
        cache = home.prefix_cache
        if cache is None:
            return pid
        if home.resources.kv_refcount(pid) > 1 and cache.is_cache_shared(pid):
            self._ensure_capacity(home, instance, kv_pages=1)
            pid = home.resources.materialize_private_kv(instance.instance_id, page)
            service = home.service
            service.mover.charge(
                home.device, "cache_cow", service.cost_model.copy_batch_cost(1), size=1
            )
        cache.invalidate_pid(pid)
        return pid

    # -- external calls ---------------------------------------------------------------------------------------

    def http_request(self, instance: InferletInstance, url: str, payload: Any = None) -> SimFuture:
        request = (
            self.external.request(url, payload)
            if self.faults is None
            else faulty_request(self, url, payload, instance)
        )
        future = self.sim.create_task(request, name=f"http:{url}")
        return self._wrap_external_call(instance, future)

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
        shards = [s for s in instance.placements.values() if s.service.swap.enabled]
        if not shards:
            return inner

        async def suspend_resume():
            for shard in shards:
                shard.service.swap.note_blocked(instance, shard)
            try:
                return await inner
            finally:
                for shard in shards:
                    shard.service.swap.note_unblocked(instance)
                    await shard.service.swap.ensure_resident(instance)

        return self.sim.create_task(
            suspend_resume(), name=f"extcall:{instance.instance_id}"
        )
