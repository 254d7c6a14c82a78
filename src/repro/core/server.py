"""PieServer and PieClient: the outermost interface of the system.

:class:`PieServer` assembles the three layers (application / control /
inference) around one simulator.  :class:`PieClient` models the paper's
remote Python client: it talks to the server over a :class:`NetworkLink`
with campus-network latency, uploads/launches inferlets and exchanges
messages with them.  Experiments measure end-to-end latency from the
client, exactly as the paper does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ClientError
from repro.core.config import PieConfig, with_overrides
from repro.core.controller import Controller, ModelService
from repro.core.inferlet import InferletInstance, InferletProgram
from repro.core.lifecycle import InferletLifecycleManager
from repro.core.messaging import ExternalServices
from repro.core.wasm import WasmRuntime
from repro.model.registry import ModelRegistry
from repro.sim.latency import ConstantLatency, LatencyModel, milliseconds
from repro.sim.network import NetworkLink
from repro.sim.simulator import Simulator


@dataclass
class LaunchResult:
    """What a client gets back after an inferlet finishes."""

    instance_id: str
    status: str
    result: Any
    messages: List[Any] = field(default_factory=list)
    latency: float = 0.0
    launch_latency: float = 0.0
    #: Why a launch that never ran was refused (``status="rejected"``).
    reason: str = ""


class PieServer:
    """A Pie serving deployment: models + runtime + control + inference layers."""

    def __init__(
        self,
        sim: Simulator,
        models: Optional[Sequence[str]] = None,
        config: Optional[PieConfig] = None,
        external: Optional[ExternalServices] = None,
        **overrides: Any,
    ) -> None:
        """``overrides`` are configuration shorthands: each key names a
        ``ControlLayerConfig`` or ``GpuConfig`` field (``num_devices=4``,
        ``prefix_cache=True``, ``tenants=[...]``, ...) and replaces it in
        ``config``, so callers need not rebuild the nested frozen config;
        see :func:`repro.core.config.with_overrides` for what a shorthand
        switches on by implication."""
        self.sim = sim
        self.config = with_overrides(config or PieConfig(), overrides)
        registry = ModelRegistry(models or ["llama-sim-1b"])
        self.registry = registry
        self.external = external or ExternalServices(sim)
        self.controller = Controller(sim, self.config, registry, self.external)
        self.runtime = WasmRuntime(sim, self.config.wasm)
        self.lifecycle = InferletLifecycleManager(sim, self.controller, self.runtime)

    # -- convenience accessors -------------------------------------------------

    def service(self, model: Optional[str] = None) -> ModelService:
        return self.controller.service(model or self.controller.default_model())

    @property
    def metrics(self):
        return self.controller.metrics

    @property
    def trace(self):
        """The flight recorder, or None when ``tracing`` is off."""
        return self.controller.trace

    @staticmethod
    def _require(plane, knob: str):
        if plane is None:
            raise ClientError(f"{knob} is off: construct the server with {knob}=True")
        return plane

    def export_trace(self, path: Optional[str] = None) -> int:
        """Write the recorded trace; returns the number of events exported.

        ``path`` defaults to ``ControlLayerConfig.trace_path``.  A ``.jsonl``
        suffix selects the line-delimited event log, anything else the
        Chrome/Perfetto ``trace_event`` JSON document.
        """
        trace = self._require(self.controller.trace, "tracing")
        target = path or self.config.control.trace_path
        if not target:
            raise ClientError("no trace path: pass export_trace(path=...) or set trace_path")
        return trace.export(target)

    @property
    def monitor(self):
        """The live monitoring plane, or None when ``monitoring`` is off."""
        return self.controller.monitor

    def prometheus_metrics(self) -> str:
        """Prometheus text exposition of the monitor's metric registry."""
        return self._require(self.controller.monitor, "monitoring").to_prometheus()

    def export_metrics(self, path: Optional[str] = None):
        """Snapshot the monitor's registry and SLO state.

        A ``.prom``/``.txt`` suffix selects the Prometheus text exposition
        format; anything else (or no path) produces the JSON snapshot
        document, which is also returned.
        """
        monitor = self._require(self.controller.monitor, "monitoring")
        document = monitor.snapshot_document()
        if path is not None:
            target = str(path)
            if target.endswith((".prom", ".txt")):
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(monitor.to_prometheus())
            else:
                with open(target, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=2, sort_keys=True)
                    handle.write("\n")
        return document

    @property
    def num_devices(self) -> int:
        return self.config.gpu.num_devices

    def cluster_stats(self, model: Optional[str] = None):
        """Scheduler stats aggregated over every device serving ``model``."""
        return self.service(model).cluster_stats()

    def register_program(self, program: InferletProgram, precompiled: bool = True) -> None:
        self.lifecycle.register_program(program, precompiled=precompiled)

    def register_external(self, url: str, handler, latency: Optional[LatencyModel] = None):
        return self.external.register(url, handler, latency)

    # -- direct (server-side) launching, used by tests and micro-benchmarks ---------

    def launch(
        self,
        name: str,
        args: Optional[Sequence[str]] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
    ):
        return self.lifecycle.launch(name, args, tenant=tenant, priority=priority)

    async def run_inferlet(
        self,
        name: str,
        args: Optional[Sequence[str]] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> LaunchResult:
        """Launch an inferlet and wait for it to finish (no client network)."""
        started = self.sim.now
        instance, ready = self.lifecycle.launch(
            name, args, tenant=tenant, priority=priority
        )
        await ready
        launch_latency = self.sim.now - started
        await self.lifecycle.wait_for_completion(instance)
        return LaunchResult(
            instance_id=instance.instance_id,
            status=instance.status,
            result=instance.result,
            messages=instance.channel.drain_client_messages(),
            latency=self.sim.now - started,
            launch_latency=launch_latency,
        )


class PieClient:
    """A remote client connected to a PieServer over a simulated network."""

    def __init__(
        self,
        sim: Simulator,
        server: PieServer,
        rtt_ms: float = 25.0,
        name: str = "client",
    ) -> None:
        self.sim = sim
        self.server = server
        self.link = NetworkLink(sim, ConstantLatency(milliseconds(rtt_ms / 2.0)), name=name)

    # -- program management --------------------------------------------------------

    async def upload_program(self, program: InferletProgram) -> float:
        """Cold-start upload: ship the binary to the server and JIT compile it."""
        await self.link.send(program.name, size_bytes=program.binary_size)
        elapsed = await self.server.lifecycle.upload_program(program)
        await self.link.send(None)
        return elapsed

    # -- launching --------------------------------------------------------------------

    async def launch(
        self,
        name: str,
        args: Optional[Sequence[str]] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> InferletInstance:
        """Launch an inferlet and return once the server acknowledges it.

        ``tenant`` names the QoS tenant the launch is billed to (admission
        control may queue or reject it, see :mod:`repro.core.qos`);
        ``priority`` seeds every queue the inferlet creates, so programs
        need not call ``set_queue_priority`` after creation."""
        await self.link.send((name, args))
        instance, ready = self.server.lifecycle.launch(
            name, args, tenant=tenant, priority=priority
        )
        await ready
        await self.link.send(None)
        return instance

    async def launch_and_wait(
        self,
        name: str,
        args: Optional[Sequence[str]] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> LaunchResult:
        """Launch an inferlet, wait for completion, and fetch its messages."""
        started = self.sim.now
        await self.link.send((name, args))
        instance, ready = self.server.lifecycle.launch(
            name, args, tenant=tenant, priority=priority
        )
        await ready
        launch_latency = self.sim.now - started
        await self.server.lifecycle.wait_for_completion(instance)
        await self.link.send(None)
        if instance.status == "failed" and instance.task is not None:
            error = instance.task.exception()
            if error is not None:
                raise ClientError(f"inferlet {name!r} failed: {error}") from error
        return LaunchResult(
            instance_id=instance.instance_id,
            status=instance.status,
            result=instance.result,
            messages=instance.channel.drain_client_messages(),
            latency=self.sim.now - started,
            launch_latency=launch_latency,
        )

    # -- messaging -----------------------------------------------------------------------

    async def send(self, instance: InferletInstance, message: Any) -> None:
        await self.link.send(message)
        instance.channel.send_to_inferlet(message)

    async def receive(self, instance: InferletInstance) -> Any:
        message = await instance.channel.receive_from_inferlet()
        await self.link.send(None)
        return message

    async def wait(self, instance: InferletInstance) -> LaunchResult:
        await self.server.lifecycle.wait_for_completion(instance)
        await self.link.send(None)
        return LaunchResult(
            instance_id=instance.instance_id,
            status=instance.status,
            result=instance.result,
            messages=instance.channel.drain_client_messages(),
        )
