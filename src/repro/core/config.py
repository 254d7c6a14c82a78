"""Configuration of a Pie server instance."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Tuple

from repro.errors import ReproError
from repro.core.qos import TenantSpec
from repro.gpu.config import GpuConfig
from repro.sim.faults import FaultPlan

#: Valid cluster placement policies (see :mod:`repro.core.router`, which
#: re-exports this as its single source of truth).
PLACEMENT_POLICIES = ("round_robin", "least_loaded", "cache_affinity", "disaggregated")

#: Valid tiered-KV swap policies (see :mod:`repro.core.swap`): "proactive"
#: stages the KV of inferlets blocked on external calls eagerly; "on_demand"
#: swaps only when reclamation would otherwise terminate someone.  Both
#: are inert unless ``GpuConfig.host_kv_pages > 0``.
SWAP_POLICIES = ("proactive", "on_demand")


@dataclass(frozen=True)
class WasmRuntimeConfig:
    """Simulated WebAssembly runtime parameters (application layer).

    The launch costs calibrated against Figure 9 and Table 3 are not
    knobs: they are module constants in :mod:`repro.core.wasm`, next to
    the code that charges them.
    """

    # Pooled-allocation bound on live sandbox instances.
    pool_size: int = 1000


@dataclass(frozen=True)
class ControlLayerConfig:
    """Control layer policies and the switches of its optional planes.

    A field is here because something outside ``tests/`` sets a second
    value for it — an experiment arm, a ``perf/`` workload, an example — or
    because it is a seed, a capacity or a path of the deployment
    (``tests/test_config_ledger.py`` holds the evidence per field).
    Everything else — the calibrated overheads of Figure 10 and Table 3,
    and each plane's periods and thresholds — is a module
    constant next to the code that reads it (see the "Model constants"
    table in the README).

    Resource contention terminates inferlets until enough resources are
    free, in the one victim order ``Controller.victim_key`` (lowest class,
    most slack to its deadline, youngest), with or without any plane.  With
    a host KV tier configured (``GpuConfig.host_kv_pages > 0``) reclamation
    becomes swap-first / terminate-last: blocked inferlets are staged to
    host memory, in the same order, before anyone is killed.
    """

    # Tiered-KV swap policy ("proactive" | "on_demand", see SWAP_POLICIES).
    swap_policy: str = "proactive"
    # Cluster placement policy used by the router when num_devices > 1:
    # "round_robin" | "least_loaded" | "cache_affinity" (see
    # repro.core.router; irrelevant on a single device) — or
    # "disaggregated", which *is* the prefill/decode disaggregation plane
    # (repro.core.transfer): the first ``prefill_shards`` devices serve only
    # prompt work and the rest run pure-decode batches.  Committed KV pages
    # stream to the chosen decode shard while the tail of the prefill is
    # still running; once the first sampled token retires, the inferlet —
    # queue state (class rank included), swap registration — migrates in one
    # step.  Every cluster builds its KvTransferScheduler, but only a
    # prefill-role shard feeds it (the submit hook and the chunk listener),
    # so under any other policy it holds no stream and moves no page.
    placement_policy: str = "round_robin"
    # System-wide automatic prefix caching (repro.core.prefix_cache): when
    # True, each device shard keeps a token-addressed radix index over
    # committed KV pages and forwards with a matching page-aligned prompt
    # prefix transparently reuse them instead of recomputing.  Off by
    # default — the serving path is then bit-identical to the pre-cache
    # system.
    prefix_cache: bool = False
    # Largest prefill slice a single batch may carry (tokens).  Batch
    # formation (repro.core.batching) holds every forward batch to
    # GpuConfig.max_batch_tokens and splits a prompt longer than this or
    # than the remaining budget — a head slice fills the batch while the
    # residual stays at the queue head — so decode rows ride alongside
    # sliced prefills instead of stalling behind whole prompts.  Smaller
    # chunks bound decode-latency interference more tightly but pay the
    # per-batch floor and the re-read attention term more often.
    prefill_chunk_tokens: int = 256
    # Devices dedicated to prefill under placement_policy="disaggregated"
    # (the remaining num_devices - prefill_shards devices decode).  Needs at
    # least one device in each role.
    prefill_shards: int = 1
    # Flight recorder (repro.core.trace): when True the controller builds
    # a TraceRecorder and its LifecycleTracer, an observer every
    # control-plane hot point tells, which writes structured spans/instants
    # on the virtual clock; a sim-timer sampler records per-shard telemetry
    # time-series.  Off by default — no recorder is constructed and the
    # sites tell only the always-built phase-timeline keeper.  When on,
    # emission is read-only: sampled tokens and every virtual timestamp are
    # bit-identical to a tracing=False run.  Export with
    # PieServer.export_trace(path).
    tracing: bool = False
    # Telemetry sampling period in virtual milliseconds; 0 disables the
    # periodic sampler (spans and instants are still recorded).
    trace_sample_ms: float = 5.0
    # Registered tenants (TenantSpec records, repro.core.qos), read by the
    # core with every plane off: the launch gate applies their concurrency
    # cap and backlog bound (no rate), their class orders dispatch and
    # batch merging (best class present, oldest command first) and the
    # reclamation victims (Controller.victim_key).  Launches naming an
    # unregistered tenant get an implicit unlimited spec of the default
    # class.
    tenants: Tuple[TenantSpec, ...] = ()
    # Declarative crash schedule the chaos plane (repro.sim.faults /
    # repro.core.health, built with every controller) replays on the
    # virtual clock (see repro.sim.faults.FaultPlan.validate for the
    # grammar), e.g. (("shard_crash", 0.5, 1),).  Empty: nothing crashes.
    fault_plan: Tuple[tuple, ...] = ()


@dataclass(frozen=True)
class SchedulerConfig:
    """Batch scheduler policy configuration (§5.2, §6.1, Table 5)."""

    policy: str = "adaptive"  # adaptive | eager | k_only | t_only
    k_threshold: int = 64


@dataclass(frozen=True)
class PieConfig:
    """Top-level Pie server configuration."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    wasm: WasmRuntimeConfig = field(default_factory=WasmRuntimeConfig)
    control: ControlLayerConfig = field(default_factory=ControlLayerConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        """Only what spans two fields or arrives from outside is checked
        here; a value with one reader is validated by that reader
        (``Router``, ``BurnWindow``, ``SloEngine``, ``TenantSpec``)."""
        if self.scheduler.policy not in {"adaptive", "eager", "k_only", "t_only"}:
            raise ReproError(f"unknown scheduler policy {self.scheduler.policy!r}")
        if self.control.placement_policy not in PLACEMENT_POLICIES:
            raise ReproError(
                f"unknown placement policy {self.control.placement_policy!r}"
            )
        if self.control.swap_policy not in SWAP_POLICIES:
            raise ReproError(f"unknown swap policy {self.control.swap_policy!r}")
        if self.control.prefill_chunk_tokens < 1:
            raise ReproError("prefill_chunk_tokens must be at least 1")
        if self.control.prefill_shards < 1:
            raise ReproError("prefill_shards must be at least 1")
        if self.control.trace_sample_ms < 0:
            raise ReproError("trace_sample_ms must be non-negative (0 = no sampler)")
        for spec in self.control.tenants:
            if not isinstance(spec, TenantSpec):
                raise ReproError(
                    f"ControlLayerConfig.tenants must hold TenantSpec records, got {spec!r}"
                )
        names = [spec.name for spec in self.control.tenants]
        if len(names) != len(set(names)):
            raise ReproError("tenant names must be unique")
        FaultPlan.validate(self.control.fault_plan, self.gpu.num_devices)


def _frozen(value: Any) -> Any:
    """Lists (of lists) become tuples: the config dataclasses are hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def with_overrides(config: PieConfig, overrides: Dict[str, Any]) -> PieConfig:
    """``config`` with each override routed to the sub-config field it names.

    A key is a :class:`ControlLayerConfig` field or a :class:`GpuConfig`
    field; anything else is a ``TypeError``.  ``None`` means "not given".  The
    result is validated once, with every override in place.
    """
    control_names = {f.name for f in fields(ControlLayerConfig)}
    gpu_names = {f.name for f in fields(GpuConfig)}
    unknown = sorted(set(overrides) - control_names - gpu_names)
    if unknown:
        raise TypeError(f"unknown configuration shorthand(s): {', '.join(unknown)}")
    values = {key: _frozen(value) for key, value in overrides.items() if value is not None}
    control = {key: value for key, value in values.items() if key in control_names}
    gpu = {key: value for key, value in values.items() if key not in control_names}
    return replace(
        config,
        control=replace(config.control, **control),
        gpu=replace(config.gpu, **gpu),
    )
