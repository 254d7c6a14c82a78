"""Configuration of a Pie server instance."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Tuple

from repro.errors import ReproError
from repro.core.qos import TenantSpec
from repro.gpu.config import GpuConfig

#: Valid cluster placement policies (see :mod:`repro.core.router`, which
#: re-exports this as its single source of truth).
PLACEMENT_POLICIES = ("round_robin", "least_loaded", "cache_affinity", "disaggregated")

#: Valid tiered-KV swap policies (see :mod:`repro.core.swap`): "proactive"
#: stages the KV of inferlets blocked on external calls eagerly; "on_demand"
#: swaps only when FCFS reclamation would otherwise terminate someone.  Both
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
    and each plane's periods, thresholds and backoff terms — is a module
    constant next to the code that reads it (see the "Model constants"
    table in the README).

    Resource contention is always FCFS — terminate the most recently
    created inferlets until enough resources are free.  With a host KV
    tier configured (``GpuConfig.host_kv_pages > 0``) reclamation becomes
    swap-first / terminate-last: blocked inferlets are staged to host
    memory before anyone is killed.
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
    # queue state, swap registration, QoS accounting — migrates in one
    # step.  Under any other policy no transfer scheduler is built and no
    # hooks are installed (bit-identical to the pre-disaggregation system).
    placement_policy: str = "round_robin"
    # System-wide automatic prefix caching (repro.core.prefix_cache): when
    # True, each device shard keeps a token-addressed radix index over
    # committed KV pages and forwards with a matching page-aligned prompt
    # prefix transparently reuse them instead of recomputing.  Off by
    # default — the serving path is then bit-identical to the pre-cache
    # system.
    prefix_cache: bool = False
    # Chunked prefill / stall-free batching (repro.core.batching): when
    # True, batch formation enforces a token budget alongside the row
    # limit and a forward command whose prompt exceeds the remaining
    # budget is *split* — a head slice fills the batch while the residual
    # stays at the queue head — so decode rows ride alongside sliced
    # prefills instead of stalling behind whole prompts.  Off by default —
    # the serving path is then bit-identical to the pre-chunking system.
    chunked_prefill: bool = False
    # Largest prefill slice a single batch may carry (tokens).  Smaller
    # chunks bound decode-latency interference more tightly but pay the
    # per-batch floor and the re-read attention term more often.  The
    # token budget per formed batch is GpuConfig.max_batch_tokens.
    prefill_chunk_tokens: int = 256
    # Devices dedicated to prefill under placement_policy="disaggregated"
    # (the remaining num_devices - prefill_shards devices decode).  Needs at
    # least one device in each role.
    prefill_shards: int = 1
    # Flight recorder (repro.core.trace): when True the controller builds
    # a TraceRecorder, every control-plane hot point emits structured
    # spans/instants on the virtual clock, and a sim-timer sampler records
    # per-shard telemetry time-series.  Off by default — no recorder is
    # constructed and the serving path carries no tracing code at all.
    # When on, emission is read-only: sampled tokens and every virtual
    # timestamp are bit-identical to a tracing=False run.
    tracing: bool = False
    # Default export path for the trace (None = caller exports explicitly
    # via PieServer.export_trace).  ".jsonl" selects the line-delimited
    # event log; anything else gets Chrome/Perfetto trace_event JSON.
    trace_path: str = ""
    # Telemetry sampling period in virtual milliseconds; 0 disables the
    # periodic sampler (spans and instants are still recorded).
    trace_sample_ms: float = 5.0
    # Multi-tenant QoS (repro.core.qos): when True, launches pass tenant
    # admission control (token-bucket rate + concurrency caps), candidate
    # batches are scored by class-weighted slack-to-deadline instead of
    # longest-waiting, and preemption victims are chosen lowest-class /
    # most-slack-first.  Off by default — the serving path is then
    # bit-identical to the pre-QoS system.
    qos: bool = False
    # Registered tenants (TenantSpec records); launches naming an
    # unregistered tenant get an implicit unlimited spec of
    # ``qos.DEFAULT_CLASS``.
    tenants: Tuple[TenantSpec, ...] = ()
    # Live SLO monitoring plane (repro.core.monitor): when True the
    # controller builds a MonitorService — a per-tenant error-budget /
    # burn-rate alerting engine ticked on the virtual clock, and exports
    # collected from the live counters when asked.  Off by default — none
    # is constructed and the serving path carries no monitoring code at all.
    # When on, every hook is read-only: tokens, metrics and virtual
    # timestamps are bit-identical to a monitoring=False run.
    monitoring: bool = False
    # Chaos plane (repro.sim.faults / repro.core.health / repro.core.retry):
    # when True the controller builds a FaultInjector (replaying
    # ``fault_plan`` on the virtual clock), a per-shard health service with
    # a heartbeat prober, failover/relaunch on shard death, and a
    # deterministic retry policy around tool calls and refused
    # disaggregation handoffs.  Off by default — none of the machinery is
    # constructed and the serving path is bit-identical to a faults=False
    # run.
    faults: bool = False
    # Seed of the injector's own np.random.default_rng stream (jitter for
    # generated plans and retry backoff); independent of the simulator
    # seed so chaos runs are replayable against any workload seed.
    fault_seed: int = 0
    # Declarative fault schedule: a tuple of typed entries replayed on the
    # virtual clock (see repro.sim.faults.FaultPlan.validate for the
    # grammar), e.g. ("shard_crash", 0.5, 1) or
    # ("tool_error", 1.0, 0.25, "http://tools/crm").
    fault_plan: Tuple[tuple, ...] = ()
    # SLO-driven brownout (graceful degradation): when True a controller
    # in repro.core.health subscribes to the SloEngine's burn-rate alerts;
    # while an interactive-class error budget burns, batch-class admission
    # is shed (AdmissionRejectedError(reason="brownout")) and prefill
    # chunk budgets widen, restoring when the alert clears.  Requires
    # qos=True and monitoring=True.
    brownout: bool = False


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
        if self.control.trace_path and not self.control.tracing:
            raise ReproError("trace_path requires tracing=True")
        for spec in self.control.tenants:
            if not isinstance(spec, TenantSpec):
                raise ReproError(
                    f"ControlLayerConfig.tenants must hold TenantSpec records, got {spec!r}"
                )
        names = [spec.name for spec in self.control.tenants]
        if len(names) != len(set(names)):
            raise ReproError("tenant names must be unique")
        if self.control.fault_plan and not self.control.faults:
            raise ReproError("fault_plan requires faults=True")
        if self.control.faults:
            from repro.sim.faults import FaultPlan

            FaultPlan.validate(self.control.fault_plan, self.gpu.num_devices)
        if self.control.brownout:
            if not self.control.qos or not self.control.monitoring:
                raise ReproError(
                    "brownout=True requires qos=True and monitoring=True "
                    "(it subscribes to the SLO engine's burn-rate alerts "
                    "and sheds batch-class admission)"
                )


#: Shorthand implications: a key given a value other than ``False``
#: switches on the knobs it is useless without — unless the caller set
#: those knobs explicitly.
SHORTHAND_IMPLICATIONS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("tenants", {"qos": True}),
    ("trace_path", {"tracing": True}),
    ("fault_seed", {"faults": True}),
    ("fault_plan", {"faults": True}),
    ("brownout", {"qos": True, "monitoring": True}),
)


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
    for key, implied in SHORTHAND_IMPLICATIONS:
        if values.get(key, False) is not False:
            for name, value in implied.items():
                values.setdefault(name, value)
    control = {key: value for key, value in values.items() if key in control_names}
    gpu = {key: value for key, value in values.items() if key not in control_names}
    return replace(
        config,
        control=replace(config.control, **control),
        gpu=replace(config.gpu, **gpu),
    )
