"""The control layer (§5.2).

The controller sits between inferlets and the inference layer.  It

* handles non-GPU API calls directly (runtime queries, messaging, I/O);
* manages allocation and the virtual address mappings of ``Embed`` and
  ``KvPage`` resources, reclaiming when demand exceeds capacity — swap,
  then prefix cache, then termination, victims in one order
  (:meth:`Controller.victim_key`);
* places inferlets onto the devices of each model's cluster (the router,
  :mod:`repro.core.router`) when ``num_devices > 1``;
* translates inference-layer API calls into :class:`Command` objects and
  feeds them to the per-device batch scheduler of the inferlet's shard;
* models the per-call overheads of the two layers (Figure 10, Table 3).
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Any,
    Callable,
    Dict,
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
from repro.core.command_queue import Command, access
from repro.core.config import PieConfig
from repro.core.handles import Embed, KvPage, Queue
from repro.core.health import ShardHealthService
from repro.core.inferlet import InferletInstance, LifecycleObserver
from repro.core.messaging import ExternalServices, MessageBus
from repro.core.metrics import SystemMetrics
from repro.core.monitor import MonitorService
from repro.core.qos import TenantTable
from repro.core.router import DeviceShard
from repro.core.service import ModelService
from repro.core.timeline import TimelineKeeper
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
        #: Set by the lifecycle manager, so a forced termination
        #: (reclamation, failover, abort) also cancels the inferlet's task.
        self.terminate_hook: Callable[[InferletInstance, str], None] = lambda *_: None
        #: What each tenant was promised: the only ``name -> TenantSpec``
        #: table (``tenants.register(spec)`` extends it), there with every
        #: plane off.
        self.tenants = TenantTable(control.tenants)
        # ... and what it got: one TenantMetrics record per tenant, from here
        # for the configured ones and from their first launch for the rest.
        for spec in self.tenants.values():
            self.metrics.tenant_record(spec)
        # Of the planes built here only the flight recorder is optional:
        # None when ``tracing`` is off, and then nothing is constructed for
        # it.  The monitor and the health service only read serving state
        # (the heartbeat's failover acts on a crash alone), so they are
        # always built; tokens and virtual timestamps do not depend on their
        # ticks.
        timers: List[PeriodicService] = []
        # The flight recorder (repro.core.trace).
        self.trace: Optional[TraceRecorder] = None
        #: Who is told what the core did (an inferlet's life, a shard's
        #: commands, KV pages on the move, failover), each fact published
        #: at one site after the core accounted for it: first the keeper of
        #: every inferlet's phase timeline (always built), then the tracer
        #: when tracing is on.  Every subsystem built here holds this tuple;
        #: the lifecycle and failover sites read it when they publish.
        self.observers: Tuple[LifecycleObserver, ...] = (TimelineKeeper(sim),)
        if control.tracing:
            self.trace = TraceRecorder(sim)
            self.observers += (LifecycleTracer(self.trace),)
            timers.append(telemetry_sampler(self.trace, self))
        # The live monitoring plane (repro.core.monitor): SLO burn-rate
        # alerting on a virtual-clock tick, exports collected on demand.
        self.monitor = MonitorService(self)
        timers.append(self.monitor.scraper)
        for name in registry.names():
            self._services[name] = ModelService.build(
                sim,
                config,
                registry.get(name),
                self.metrics,
                self._ensure_capacity,
                self.observers,
            )
        # The chaos plane (repro.sim.faults / repro.core.health): the
        # heartbeat-driven health / failover service and the deterministic
        # crash schedule it receives (empty unless ``fault_plan`` names
        # one).  Neither draws randomness, so a workload is perturbed
        # solely through the crashes.
        self.health = ShardHealthService(self)
        timers.append(self.health.heartbeat)
        for service in self._services.values():
            service.router.health_probe = self.health.placeable
        self.faults = FaultInjector(sim, control.fault_plan, self.health, self.metrics)
        self.faults.arm()
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
        self.bus.forget(instance.instance_id)
        for shard in list(instance.placements.values()):
            service = shard.service
            for queue in shard.scheduler.queues_for_owner(instance.instance_id):
                shard.scheduler.remove_queue(queue.key)
            if shard.resources.has_space(instance.instance_id):
                # Also discards any host-tier slots the space still holds.
                shard.resources.destroy_space(instance.instance_id)
            service.swap.forget(instance.instance_id)
            # Abort any half-streamed KV: staged destination pages are only
            # pinned by the transfer, so this frees them all.
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
        # Every queue starts at priority 0; the program sets its own.
        handle = Queue(qid=qid, owner=instance.instance_id, model=model)
        shard.scheduler.create_queue(
            key=(instance.instance_id, qid),
            model=model,
            owner=instance.instance_id,
            rank=self.tenants[instance.tenant].rank,
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

    # -- resource allocation (with reclamation under contention) -----------------------------------

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
        non-destructively: a blocked inferlet's pages are staged out to host
        memory (:meth:`repro.core.swap.SwapManager.swap_candidates` says who
        may move).  Second, the prefix cache gives up its coldest entry.
        Only then is an inferlet terminated, resident ones first.  Both
        victims are picked by :meth:`victim_key`; the requester may be the
        one terminated.  Only inferlets placed on the contended shard are
        eligible victims — killing one on another device would free nothing
        here."""
        service = shard.service
        while (
            shard.resources.kv_pages_free < kv_pages
            or shard.resources.embeds_free < embeds
        ):
            if shard.resources.kv_pages_free < kv_pages and self._reclaim_by_swap(
                shard, requester
            ):
                continue
            # Second rung: demote (or evict) the prefix cache's coldest
            # entries before any live inferlet is terminated.
            if shard.resources.kv_pages_free < kv_pages and service.swap.reclaim_by_cache(
                shard
            ):
                continue
            victim = self._termination_victim(shard)
            if victim is None:
                raise OutOfResourcesError(
                    f"model {service.entry.name!r} ({shard.name}) cannot satisfy the "
                    f"allocation (kv={kv_pages}, emb={embeds}) even after reclamation"
                )
            self.metrics.reclamation_terminations += 1
            self._tenant_record(victim).preempted_terminations += 1
            for observer in self.observers:
                observer.note_reclaimed(victim, requester, shard)
            self.terminate_inferlet(victim, reason="resource reclamation", cause="reclaimed")
            if victim.instance_id == requester.instance_id:
                requester.check_alive()  # raises InferletTerminated

    def victim_key(self, instance: InferletInstance, n_pages: int = 0) -> Tuple:
        """The one victim order under memory pressure; smaller gives up its
        device first.  Lowest class first (batch absorbs pressure before
        interactive), most slack to ``InferletMetrics.deadline`` within a
        class (an unstamped inferlet has all the slack there is), then most
        pages, then youngest, with the instance id as the final tie-break."""
        deadline = instance.metrics.deadline
        slack = math.inf if deadline is None else deadline - self.sim.now
        return (
            -self.tenants[instance.tenant].rank,
            -slack,
            -n_pages,
            -instance.metrics.launched_at,
            instance.instance_id,
        )

    def _reclaim_by_swap(self, shard: DeviceShard, requester: InferletInstance) -> int:
        """The first rung: stage the first eligible blocked inferlet by
        :meth:`victim_key` out to host; returns the device pages freed."""
        swap = shard.service.swap
        candidates = swap.swap_candidates(shard, exclude=requester.instance_id)
        if not candidates:
            return 0
        victim, _ = min(candidates, key=lambda entry: self.victim_key(*entry))
        moved = swap.swap_out(victim, shard)
        if moved:
            self.metrics.reclamation_swaps += 1
            self._tenant_record(victim).preempted_swaps += 1
        return moved

    def _termination_victim(self, shard: DeviceShard) -> Optional[InferletInstance]:
        """The last rung's pick among the inferlets placed on ``shard``."""
        service = shard.service
        candidates = [
            self._instances[instance_id]
            for instance_id in service.router.instances_on(shard)
        ]
        # Suspended inferlets occupy no device KV: terminating one frees
        # nearly nothing, so resident inferlets are killed first.
        resident = [
            inst
            for inst in candidates
            if not service.swap.is_swapped(inst.instance_id)
        ]
        return min(resident or candidates, key=self.victim_key, default=None)

    def _tenant_record(self, instance: InferletInstance):
        return self.metrics.tenant_record(self.tenants[instance.tenant])

    def terminate_inferlet(
        self, instance: InferletInstance, reason: str, cause: str = ""
    ) -> None:
        """Force ``instance`` out; a no-op once it has left."""
        if instance.finished:
            return
        instance.mark_terminated(reason, cause=cause)
        self.metrics.inferlets_terminated += 1
        self.terminate_hook(instance, reason)
        self.unregister_inferlet(instance)

    # -- deferred deallocation (ordering preserved through the command queue) --------------------

    def dealloc(
        self, instance: InferletInstance, home: DeviceShard, handle: Queue, kind: str, handles: List
    ) -> SimFuture:
        """Free ``handles`` (KvPages for ``"dealloc_kv"``, else Embeds) in the
        instant the last command issued before on the queue retires: no
        device work, the queue holds it at its issue watermark.  The future
        resolves then, or fails with the free's error (a double free)."""
        queue = home.scheduler.get_queue((handle.owner, handle.qid))
        owner = instance.instance_id
        future = self.sim.create_future(name=f"{kind}:{owner}")

        def release(reached: bool) -> None:
            # Where the owner lives now: a handoff may have moved its space.
            resources = instance.placements.get(handle.model, home).resources
            free = resources.dealloc_kv_pages if kind == "dealloc_kv" else resources.dealloc_embeds
            try:
                if reached and resources.has_space(owner):
                    free(owner, handles)
            except Exception as exc:  # noqa: BLE001 - delivered via the call's future
                future.set_exception(exc)
            else:
                future.set_result(None)

        def settle(reached: bool) -> None:
            # A loop step later, so the free follows the completion callbacks
            # of what it waited for (the prefix cache's finish hook, the busy
            # pins).
            self.sim.call_soon(release, reached)

        queue.hold(settle)
        return future

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
    ) -> SimFuture:
        """Create a command, number it on its queue at once, and deliver it
        to the scheduler of the inferlet's shard after the inference-layer
        call overhead has elapsed.  What it reads and writes comes from its
        kind's row of :data:`ACCESS`; the prefix cache hears of it last."""
        instance.check_alive()
        key = (handle.owner, handle.qid)
        queue = home.scheduler.get_queue(key)
        future = self.sim.create_future(name=f"{kind}:{instance.instance_id}")
        reads, writes = access(kind, payload)
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
        if kind == "forward":
            # Counted at completion so commands dropped in the delivery
            # window or at queue teardown (they resolve to None without
            # executing) never inflate the processed-token account.
            def count_forward(fut, tokens=input_tokens):
                if fut.exception() is None and fut.result() is not None:
                    self.metrics.forward_input_tokens += tokens

            future.add_done_callback(count_forward)
        if home.role == "prefill":
            # Disaggregation: dirty-track writes against staged pages, track
            # prefill commit progress, and arm the handoff on the sample's
            # completion — registered *before* the caller can await the
            # future, so under FIFO call_soon the handoff runs with the
            # program still suspended.
            home.service.transfer.on_command_submitted(instance, command)
        if home.prefix_cache is not None:
            # After the transfer hook, so the busy pin is released after it
            # and before the caller's finish hook.
            home.prefix_cache.note_issued(command)
        queue.issue(command)
        self.sim.schedule(self.inference_call_overhead(), self._deliver, home, key, command)
        return future

    def _deliver(self, shard: DeviceShard, queue_key: Any, command: Command) -> None:
        # The owning inferlet may have finished (or been terminated) between
        # issuing the command and its delivery; its queues are gone and the
        # command is dropped: its future resolves, which keeps any stray
        # awaiters from deadlocking.
        try:
            shard.scheduler.submit(queue_key, command)
        except SchedulingError:
            for observer in self.observers:
                observer.note_dropped(shard.index, command)
            if not command.future.done():
                command.future.set_result(None)

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
        future = self.sim.create_task(
            self.external.request(url, payload), name=f"http:{url}"
        )
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
