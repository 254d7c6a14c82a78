"""The swap manager: suspend/resume of inferlet KV state over a host tier.

Agents blocked on tool calls hold KV pages while computing nothing.
Without a host tier, reclamation
(:meth:`repro.core.controller.Controller._ensure_capacity`) answers the
pressure by terminating an inferlet; the :class:`SwapManager` adds a
non-destructive tier (:class:`repro.gpu.host_pool.HostMemoryPool`; every
transfer is charged, and move-vs-recompute answered, by the cluster's
:class:`~repro.core.mover.KvMover`) and decides who may move, and when:

* **Proactive suspend** — an inferlet blocking on ``http_get`` /
  ``http_post`` has its exclusively owned pages staged to host
  (``swap_policy="proactive"``).
* **Resume before reschedule** — they are restored, and the PCIe transfer
  awaited (swap stall time), before its coroutine resumes.
* **Swap-first / terminate-last reclamation** — an allocation that cannot
  be met first stages a blocked inferlet out; termination runs only when
  no candidate remains.  Which candidate goes is the controller's
  :meth:`~repro.core.controller.Controller.victim_key`; this module only
  says who is eligible (:meth:`SwapManager.swap_candidates`).

Safety rule: pages leave the device only while their owner has no pending,
in-flight or in-the-air command (those carry resolved physical ids).  An
owner staged out by reclamation that keeps issuing work faults its whole
set back in on first touch (:meth:`SwapManager.fault_in`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.config import ControlLayerConfig
from repro.core.metrics import SystemMetrics
from repro.core.mover import KvMover
from repro.sim.futures import SimFuture
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.inferlet import InferletInstance, LifecycleObserver
    from repro.core.router import DeviceShard


class SwapManager:
    """Policy layer over one model service's host-memory KV tier."""

    def __init__(
        self,
        sim: Simulator,
        mover: KvMover,
        control_config: ControlLayerConfig,
        metrics: SystemMetrics,
        ensure_capacity: Callable[["DeviceShard", "InferletInstance", int], None],
        observers: Tuple["LifecycleObserver", ...] = (),
    ) -> None:
        self.sim = sim
        self.mover = mover
        self.config = control_config
        self.metrics = metrics
        # Told of each swap and of each resume-path fault-in's stall.
        self.observers = observers
        # Inferlets currently blocked on at least one external call (the
        # safe-to-swap candidates; the int counts overlapping calls, so a
        # fire-and-forget caller with several in flight stays registered
        # until the last one resolves) and inferlets whose pages are
        # currently on host.
        self._blocked: Dict[str, List] = {}  # owner -> [instance, shard, depth]
        self._swapped: Dict[str, Tuple["InferletInstance", "DeviceShard"]] = {}
        # The controller's reclamation path: ensures device capacity for a
        # swap-in, reclaiming (swap-first, terminate-last) if needed.
        self._ensure_capacity = ensure_capacity

    # -- state queries -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mover.host_pool.enabled

    def is_swapped(self, instance_id: str) -> bool:
        return instance_id in self._swapped

    def is_blocked(self, instance_id: str) -> bool:
        return instance_id in self._blocked

    @property
    def num_swapped(self) -> int:
        return len(self._swapped)

    # -- blocked-inferlet tracking (driven by the controller's I/O wrapper) --

    #: Retry delay while issued commands are still in their delivery window.
    _IN_AIR_RETRY_SECONDS = 50e-6
    #: Bound on proactive retries per blocked period (fire-and-forget
    #: inferlets keep issuing work and are never safe to stage).
    _MAX_PROACTIVE_ATTEMPTS = 16

    def note_blocked(self, instance: "InferletInstance", shard: "DeviceShard") -> None:
        """An inferlet started waiting on an external call on ``shard``."""
        if not self.enabled:
            return
        entry = self._blocked.get(instance.instance_id)
        if entry is not None:
            entry[2] += 1
        else:
            self._blocked[instance.instance_id] = [instance, shard, 1]
        if self.config.swap_policy == "proactive":
            self._try_proactive(instance, shard, attempts_left=self._MAX_PROACTIVE_ATTEMPTS)

    def _try_proactive(
        self, instance: "InferletInstance", shard: "DeviceShard", attempts_left: int
    ) -> None:
        """Stage a blocked inferlet out as soon as it becomes safe.

        At the moment an inferlet blocks, its last few commands are usually
        still pending or in their delivery window, so an immediate swap-out
        would free pages those commands reference.  Instead of giving up,
        the attempt re-arms on the retirement of the outstanding work (a
        queue barrier) and on delivery of in-the-air commands (a short
        timer), and fires once the pipeline drains — typically a few
        milliseconds into a tool call that lasts tens."""
        owner = instance.instance_id
        if owner not in self._blocked or attempts_left <= 0:
            return
        if self.swap_out(instance, shard):
            return
        if instance.finished or not shard.resources.has_space(owner):
            return
        retry = lambda *_: self._try_proactive(instance, shard, attempts_left - 1)
        if instance.in_air_commands > 0:
            self.sim.schedule(self._IN_AIR_RETRY_SECONDS, retry)
            return
        for queue in shard.scheduler.queues_for_owner(owner):
            if queue.pending_count or queue.inflight_count:
                barrier = self.sim.create_future(name=f"swap-drain:{owner}")
                queue.synchronize(barrier)
                barrier.add_done_callback(retry)
                return
        # Nothing outstanding and the swap still failed: the refusal is
        # structural (too few swappable pages, host pool full) — stop.

    def note_unblocked(self, instance: "InferletInstance") -> None:
        """One external call resolved; deregister once the last one does."""
        entry = self._blocked.get(instance.instance_id)
        if entry is None:
            return
        entry[2] -= 1
        if entry[2] <= 0:
            del self._blocked[instance.instance_id]

    def forget(self, instance_id: str) -> None:
        """Drop all bookkeeping for an unregistered inferlet.

        Host slots it still held are discarded by
        ``ResourceManager.destroy_space``; only the registries live here.
        """
        self._blocked.pop(instance_id, None)
        self._swapped.pop(instance_id, None)

    def note_migrated(self, instance_id: str, dst_shard: "DeviceShard") -> None:
        """Re-point registries at the destination shard after a move
        (:meth:`repro.core.service.ModelService.move`).

        A disaggregation handoff only moves device-resident inferlets, a
        failover relaunch only fully swapped ones — so both registries
        follow.  A ``_blocked`` entry can legitimately exist either way
        (the owner may be awaiting an external call); its shard reference
        must follow the inferlet so a later wake-retry swaps pages on the
        device that actually holds them.
        """
        entry = self._blocked.get(instance_id)
        if entry is not None:
            entry[1] = dst_shard
        swapped = self._swapped.get(instance_id)
        if swapped is not None:
            self._swapped[instance_id] = (swapped[0], dst_shard)

    # -- swap-out ----------------------------------------------------------

    def _safe_to_swap(self, instance: "InferletInstance", shard: "DeviceShard") -> bool:
        """No command anywhere in flight may reference the owner's pages."""
        return (
            not instance.finished
            and not self.is_swapped(instance.instance_id)
            and shard.quiescent(instance)
        )

    def swap_out(self, instance: "InferletInstance", shard: "DeviceShard") -> int:
        """Stage an inferlet's exclusively owned pages to host memory; returns
        the device pages freed (0 if unsafe, nothing qualifies, or the host
        pool lacks room).  The transfer occupies the device like any batch."""
        if not self.enabled or not self._safe_to_swap(instance, shard):
            return 0
        owner = instance.instance_id
        moved = shard.resources.swap_out_kv(owner)
        if not moved:
            return 0
        self._swapped[owner] = (instance, shard)
        self.metrics.record_swap_out(moved, self.mover.host_pool.transfer_bytes(moved))
        self._charge("swap_out", shard, owner, moved)
        return moved

    def _charge(self, kind: str, shard: "DeviceShard", owner: str, pages: int) -> SimFuture:
        """Tell the observers of one swap and charge its PCIe transfer."""
        for observer in self.observers:
            observer.note_swapped(kind, shard, owner, pages)
        return self.mover.charge_pcie(shard.device, kind, pages)

    # -- swap-in -----------------------------------------------------------

    def fault_in(self, instance: "InferletInstance") -> Optional[SimFuture]:
        """Restore a swapped inferlet's pages onto its device *now* (commands
        issued afterwards resolve); work queued behind the transfer waits for
        it.  Returns the transfer's future (the resume path awaits it as
        stall time), or None if the inferlet is not swapped."""
        entry = self._swapped.get(instance.instance_id)
        if entry is None:
            return None
        _, shard = entry
        owner = instance.instance_id
        n_pages = (
            shard.resources.kv_pages_swapped_by(owner) if shard.resources.has_space(owner) else 0
        )
        if n_pages == 0:
            self._swapped.pop(owner, None)
            return None
        if shard.resources.kv_pages_free < n_pages:
            # May reclaim (swap-first, terminate-last) or raise; the
            # instance stays marked swapped until the restore succeeds.
            self._ensure_capacity(shard, instance, n_pages)
        restored = shard.resources.swap_in_kv(owner)
        self._swapped.pop(owner, None)
        self.metrics.record_swap_in(restored, self.mover.host_pool.transfer_bytes(restored))
        future = self._charge("swap_in", shard, owner, restored)
        # Commands the owner issued while suspended were held back by the
        # dispatch guard; re-trigger the policy now that the pages are home.
        shard.scheduler.notify_resumed()
        return future

    async def ensure_resident(self, instance: "InferletInstance") -> None:
        """Resume path: restore pages and wait out the transfer (stall time)."""
        if not self.is_swapped(instance.instance_id):
            return
        started = self.sim.now
        future = self.fault_in(instance)
        if future is not None:
            await future
            self.metrics.swap_stall_seconds += self.sim.now - started
            for observer in self.observers:
                observer.note_swap_stall(instance, started)

    # -- swap-first reclamation: eligibility --------------------------------

    def swap_candidates(
        self, shard: "DeviceShard", exclude: str
    ) -> List[Tuple["InferletInstance", int]]:
        """Who reclamation may stage out to host, with the pages each frees.

        Candidates are inferlets blocked on external calls *on this shard*
        (``exclude`` aside) whose pages can move safely, fit in the host
        pool, and whose PCIe round trip beats the re-prefill termination
        would cost (:meth:`KvMover.beats_recompute`; for realistic page
        counts it virtually always does — the guard matters when PCIe terms
        are adversarial).  Which one goes is the controller's
        :meth:`~repro.core.controller.Controller.victim_key`.
        """
        if not self.enabled:
            return []
        eligible: List[Tuple["InferletInstance", int]] = []
        for owner, (instance, blocked_shard, _depth) in self._blocked.items():
            if owner == exclude or blocked_shard is not shard:
                continue
            if not self._safe_to_swap(instance, shard):
                continue
            n_pages = shard.resources.swappable_kv_count(owner)
            if n_pages == 0 or n_pages > self.mover.host_pool.num_free:
                continue
            if not self.mover.beats_recompute(2.0 * self.mover.pcie_seconds(n_pages), n_pages):
                continue
            eligible.append((instance, n_pages))
        return eligible

    def reclaim_by_cache(self, shard: "DeviceShard") -> int:
        """Free device pages by demoting/evicting cold prefix-cache entries.

        The middle rung of the reclamation ladder: after blocked inferlets
        have been staged out and before anyone is terminated, the shard's
        automatic prefix cache gives up its coldest LRU leaf — demoted to
        the host tier when it has room (PCIe charged), dropped outright
        otherwise.  Works without the host tier too (``enabled`` is about
        the swap path, not the cache).  Returns device pages freed.
        """
        cache = shard.prefix_cache
        if cache is None:
            return 0
        freed = cache.reclaim_one()
        if freed:
            self.metrics.prefix_cache_reclaims += freed
        return freed
