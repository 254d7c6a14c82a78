"""Shard health and failover (the chaos plane's cure).

:class:`ShardHealthService` is built with every controller.  Until a
crash, its heartbeat only reads device state, so tokens and virtual
timestamps do not depend on it.  A virtual-clock heartbeat (a
:class:`~repro.sim.periodic.PeriodicService`) probes every shard index each
:data:`HEARTBEAT_INTERVAL_MS` and keeps a per-index state machine:
``healthy`` → ``down`` (fail-stop crash).  Shard indexes are node-scoped: a
crash at index *i* takes down the device of every served model at that
index (the colocated-node interpretation), and the router's
``health_probe`` immediately stops placing new inferlets there.  The
transition *to* ``down`` triggers the failover sweep: in-flight KV streams
targeting the dead shard re-plan, and every resident inferlet is either
re-materialized on a healthy shard (when its committed KV sits wholly in
the host tier) or terminated with ``cause="shard_down"``.

Detection is deliberately *not* instantaneous: a crashed shard keeps
failing new submissions with :class:`~repro.errors.FaultInjectedError`
until the next heartbeat notices — the same detection latency a real
health checker pays.  Each transition and each rescue is told to the
controller's observers (``note_shard_down`` / ``note_relaunched``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ShardUnavailableError
from repro.sim.periodic import PeriodicService

__all__ = ["SHARD_STATES", "ShardHealthService"]

#: Health states a shard index can be in.
SHARD_STATES = ("healthy", "down")

#: Heartbeat period in virtual milliseconds: each beat probes every shard's
#: device, advances the health state machine and runs the failover sweep
#: for newly-down shards (0 = no prober: faults still inject, detection
#: never happens).  Read when a controller is built.
HEARTBEAT_INTERVAL_MS = 5.0


class ShardHealthService:
    """Heartbeat-driven shard state machine and failover trigger."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.sim = controller.sim
        num = controller.config.gpu.num_devices
        self.states: Dict[int, str] = {index: "healthy" for index in range(num)}
        self.heartbeat = PeriodicService(
            self.sim,
            HEARTBEAT_INTERVAL_MS / 1e3,
            self._probe_all,
            controller.has_live_inferlets,
            due=self._undetected,
        )

    # -- placement probe (installed on every router) -------------------------

    def placeable(self, index: int) -> bool:
        """May the router place new inferlets on shard ``index``?"""
        return self.states.get(index, "healthy") != "down"

    def state(self, index: int) -> str:
        return self.states.get(index, "healthy")

    # -- device access --------------------------------------------------------

    def _devices_at(self, index: int) -> List:
        """The device of every served model at shard ``index`` (one node)."""
        devices = []
        for service in self.controller.services():
            if index < len(service.shards):
                devices.append(service.shards[index].device)
        return devices

    # -- fault entry point (called by the FaultInjector) ----------------------

    def inject_shard_crash(self, index: int) -> None:
        """Fail-stop shard ``index`` across every served model."""
        for device in self._devices_at(index):
            device.mark_down()
        # Detection happens at the next heartbeat, not here: the wound is
        # instant, the diagnosis pays the probe interval.
        self.heartbeat.poke()

    # -- heartbeat ---------------------------------------------------------------

    def _probe_all(self) -> None:
        # One probe round records every transition *before* any failover
        # sweep runs, so a sweep never rescues onto a shard this same
        # round has already found dead.  Fail-stop is terminal.
        went_down = [
            index
            for index, state in sorted(self.states.items())
            if state == "healthy" and self._probe_down(index)
        ]
        for index in went_down:
            self.states[index] = "down"
            for observer in self.controller.observers:
                observer.note_shard_down(index)
        for index in went_down:
            self._failover_shard(index)

    def _undetected(self) -> bool:
        """A crashed shard the next beat will find: that beat is real work,
        so a run stuck on the crashed shard's inferlets must reach it."""
        return any(
            state == "healthy" and self._probe_down(index)
            for index, state in self.states.items()
        )

    def _probe_down(self, index: int) -> bool:
        """One health probe: reads device state, mutates nothing."""
        return any(device.down for device in self._devices_at(index))

    # -- failover -----------------------------------------------------------------

    def _failover_shard(self, index: int) -> None:
        """Shard ``index`` went down: evacuate or terminate its residents.

        Streams targeting the dead shard re-plan first (their staged pages
        free), then every inferlet placed there is re-materialized on a
        healthy shard when its committed KV lives wholly in the host tier
        (quiescent + fully swapped: the per-node host pool survives a
        device crash) or terminated with ``cause="shard_down"``.
        """
        controller = self.controller
        live = {instance.instance_id: instance for instance in controller.instances()}
        for service in controller.services():
            if index >= len(service.shards):
                continue
            dead = service.shards[index]
            service.transfer.on_shard_down(index)
            for instance_id in sorted(service.router.instances_on(dead)):
                instance = live.get(instance_id)
                if instance is None or instance.finished:
                    continue
                if self._try_relaunch(dead, instance):
                    controller.metrics.failover_relaunches += 1
                    continue
                controller.metrics.failover_terminations += 1
                controller.terminate_inferlet(
                    instance,
                    reason=f"shard {dead.name} is down (injected crash)",
                    cause="shard_down",
                )

    def _try_relaunch(self, dead, instance) -> bool:
        """Re-materialize a fully host-tier-resident inferlet elsewhere.

        Only safe when the owner's *committed* state survives the crash:
        every KV page staged to the host tier (fully swapped), no in-air
        or queued commands.  Embed slots are per-step scratch — their
        device-resident contents died with the device, so fresh zeroed
        slots are provisioned on the destination under the same virtual
        ids; the next forward rewrites them before any sample reads them
        (the Context idiom), exactly as after a cold resume.  The swapped
        host slots, the queues and the placement record move the way a
        live migration moves them (``ModelService.move``); the next
        fault-in restores the pages onto the new shard's device.
        """
        owner, service = instance.instance_id, dead.service
        if (
            not service.swap.is_swapped(owner)
            or not dead.quiescent(instance)
            or dead.resources.kv_mapping(owner)
        ):
            return False
        try:
            dst = service.router.least_loaded_shard()
        except ShardUnavailableError:
            return False
        emb_vids = sorted(dead.resources.emb_mapping(owner))
        if dst.memory.embeds.num_free < len(emb_vids):
            return False
        # Any half-streamed KV of the owner is rooted on the dead device;
        # drop the staging (the host tier holds the truth).
        service.transfer.forget(owner)
        emb_map = dict(zip(emb_vids, dst.memory.embeds.allocate(len(emb_vids))))
        service.move(instance, dst, {}, emb_map)
        for observer in self.controller.observers:
            observer.note_relaunched(instance, dead, dst, len(emb_vids))
        return True
