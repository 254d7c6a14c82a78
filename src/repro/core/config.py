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
    """Control layer policies and the knobs of its optional planes.

    The calibrated overheads of Figure 10 and Table 3 are not knobs: they
    are module constants next to the code that charges them (see the
    "model constants" table in the README).

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
    # repro.core.router; irrelevant on a single device).
    placement_policy: str = "round_robin"
    # System-wide automatic prefix caching (repro.core.prefix_cache): when
    # True, each device shard keeps a token-addressed radix index over
    # committed KV pages and forwards with a matching page-aligned prompt
    # prefix transparently reuse them instead of recomputing.  Off by
    # default — the serving path is then bit-identical to the pre-cache
    # system.
    prefix_cache: bool = False
    # Bound on device-resident pages the prefix cache may pin per shard
    # (LRU leaves are evicted beyond it); 0 means unbounded, leaving
    # eviction/demotion to the memory-pressure reclamation ladder.
    prefix_cache_max_pages: int = 0
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
    prefill_chunk_tokens: int = 128
    # Prefill/decode disaggregation (repro.core.transfer): when True, the
    # cluster's first ``prefill_shards`` devices serve only prompt work
    # (placement_policy must be "disaggregated") and the rest run
    # pure-decode batches.  Committed KV pages stream to the chosen decode
    # shard over the device-to-device link while the tail of the prefill is
    # still running; once the first sampled token retires, the inferlet —
    # queue state, swap registration, QoS accounting — migrates in one
    # step.  Off by default: the serving path is then bit-identical to the
    # pre-disaggregation system (no transfer scheduler is built, no hooks
    # installed).
    disaggregation: bool = False
    # Devices dedicated to prefill when disaggregation is on (the remaining
    # num_devices - prefill_shards devices decode).  Needs at least one
    # device in each role.
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
    # Starvation bound for SLO-aware dispatch: a candidate batch whose
    # oldest command has waited this long is served FCFS regardless of
    # class (aging).
    qos_aging_ms: float = 200.0
    # Live SLO monitoring plane (repro.core.monitor): when True the
    # controller builds a MonitorService — a labeled metric registry, a
    # per-tenant error-budget / burn-rate alerting engine, and a periodic
    # scraper on the virtual clock.  Off by default — no registry is
    # constructed and the serving path carries no monitoring code at all.
    # When on, every hook is read-only: tokens, metrics and virtual
    # timestamps are bit-identical to a monitoring=False run.
    monitoring: bool = False
    # Scrape period in virtual milliseconds; each tick advances the alert
    # windows and appends one registry snapshot.  0 disables the scraper
    # (request-path counters and histograms still accumulate).
    scrape_interval_ms: float = 50.0
    # Default availability objective: the fraction of SLO-judged samples
    # that must meet their latency target.  Tenants can override it via
    # TenantSpec.slo_target.
    slo_target: float = 0.95
    # Multi-window burn-rate alert rules as (long_ms, short_ms, threshold)
    # triples of virtual time.  An alert fires when the budget burn rate
    # exceeds the threshold in BOTH windows and clears when the short
    # window drops back below it.  Simulated runs compress hours of
    # traffic into seconds, so the defaults are seconds-scale rather than
    # the hour-scale windows of the SRE handbook.
    slo_burn_windows: Tuple[Tuple[float, float, float], ...] = (
        (2_000.0, 500.0, 6.0),
        (10_000.0, 2_000.0, 3.0),
    )
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
    # Health heartbeat period in virtual milliseconds: each beat probes
    # every shard's device, advances the health state machine and runs the
    # failover sweep for newly-down shards.  0 disables the prober (faults
    # still inject; detection then never happens).
    heartbeat_interval_ms: float = 5.0
    # Retry policy for faulted tool calls and refused handoffs:
    # deterministic exponential backoff (base * multiplier^attempt, capped
    # at retry_max_backoff_ms) with seeded jitter, an attempt cap and a
    # per-class total-retry budget.
    retry_max_attempts: int = 3
    retry_base_ms: float = 10.0
    retry_multiplier: float = 2.0
    retry_max_backoff_ms: float = 1_000.0
    retry_jitter: float = 0.1
    retry_budget: int = 1_000
    # SLO-driven brownout (graceful degradation): when True a controller
    # in repro.core.health subscribes to the SloEngine's burn-rate alerts;
    # while an interactive-class error budget burns, batch-class admission
    # is shed (AdmissionRejectedError(reason="brownout")) and prefill
    # chunk budgets widen, restoring when the alert clears.  Requires
    # qos=True and monitoring=True.
    brownout: bool = False
    # Multiplier applied to prefill_chunk_tokens / gpu.max_batch_tokens while
    # a brownout is active (chunked_prefill only).
    brownout_chunk_scale: float = 2.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Batch scheduler policy configuration (§5.2, §6.1, Table 5)."""

    policy: str = "adaptive"  # adaptive | eager | k_only | t_only
    k_threshold: int = 64
    t_timeout_ms: float = 5.0


@dataclass(frozen=True)
class PieConfig:
    """Top-level Pie server configuration."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    wasm: WasmRuntimeConfig = field(default_factory=WasmRuntimeConfig)
    control: ControlLayerConfig = field(default_factory=ControlLayerConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if self.scheduler.policy not in {"adaptive", "eager", "k_only", "t_only"}:
            raise ReproError(f"unknown scheduler policy {self.scheduler.policy!r}")
        if self.control.placement_policy not in PLACEMENT_POLICIES:
            raise ReproError(
                f"unknown placement policy {self.control.placement_policy!r}"
            )
        if self.control.swap_policy not in SWAP_POLICIES:
            raise ReproError(f"unknown swap policy {self.control.swap_policy!r}")
        if self.control.prefix_cache_max_pages < 0:
            raise ReproError("prefix_cache_max_pages must be non-negative")
        if self.control.prefill_chunk_tokens < 1:
            raise ReproError("prefill_chunk_tokens must be at least 1")
        if self.control.prefill_shards < 1:
            raise ReproError("prefill_shards must be at least 1")
        if self.control.disaggregation:
            if self.control.placement_policy != "disaggregated":
                raise ReproError(
                    "disaggregation=True requires placement_policy='disaggregated'"
                )
            if self.gpu.num_devices < 2:
                raise ReproError(
                    "disaggregation needs at least 2 devices (one per role)"
                )
            if self.control.prefill_shards >= self.gpu.num_devices:
                raise ReproError(
                    f"prefill_shards ({self.control.prefill_shards}) must leave at "
                    f"least one decode shard (num_devices={self.gpu.num_devices})"
                )
        elif self.control.placement_policy == "disaggregated":
            raise ReproError(
                "placement_policy='disaggregated' requires disaggregation=True"
            )
        if self.control.trace_sample_ms < 0:
            raise ReproError("trace_sample_ms must be non-negative (0 = no sampler)")
        if self.control.trace_path and not self.control.tracing:
            raise ReproError("trace_path requires tracing=True")
        if self.control.qos_aging_ms <= 0:
            raise ReproError("qos_aging_ms must be positive")
        for spec in self.control.tenants:
            if not isinstance(spec, TenantSpec):
                raise ReproError(
                    f"ControlLayerConfig.tenants must hold TenantSpec records, got {spec!r}"
                )
        if self.control.scrape_interval_ms < 0:
            raise ReproError("scrape_interval_ms must be non-negative (0 = no scraper)")
        if not 0.0 < self.control.slo_target < 1.0:
            raise ReproError("slo_target must be in (0, 1)")
        if not self.control.slo_burn_windows:
            raise ReproError("slo_burn_windows must not be empty")
        for window in self.control.slo_burn_windows:
            if len(window) != 3:
                raise ReproError(
                    f"each burn window is (long_ms, short_ms, threshold), got {window!r}"
                )
            long_ms, short_ms, threshold = window
            if not long_ms > short_ms > 0:
                raise ReproError(
                    f"burn window needs long_ms > short_ms > 0, got {window!r}"
                )
            if threshold <= 0:
                raise ReproError(f"burn threshold must be positive, got {window!r}")
        names = [spec.name for spec in self.control.tenants]
        if len(names) != len(set(names)):
            raise ReproError("tenant names must be unique")
        if self.control.heartbeat_interval_ms < 0:
            raise ReproError("heartbeat_interval_ms must be non-negative (0 = no prober)")
        if self.control.retry_max_attempts < 1:
            raise ReproError("retry_max_attempts must be at least 1")
        if self.control.retry_base_ms < 0:
            raise ReproError("retry_base_ms must be non-negative")
        if self.control.retry_multiplier < 1.0:
            raise ReproError("retry_multiplier must be at least 1.0")
        if self.control.retry_max_backoff_ms < self.control.retry_base_ms:
            raise ReproError("retry_max_backoff_ms must be >= retry_base_ms")
        if not 0.0 <= self.control.retry_jitter < 1.0:
            raise ReproError("retry_jitter must be in [0, 1)")
        if self.control.retry_budget < 0:
            raise ReproError("retry_budget must be non-negative")
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
        if self.control.brownout_chunk_scale < 1.0:
            raise ReproError("brownout_chunk_scale must be at least 1.0")


#: Shorthand implications, applied in order (so they chain): a key given a
#: value other than ``False`` switches on the knobs it is useless without —
#: unless the caller set those knobs explicitly.
SHORTHAND_IMPLICATIONS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("tenants", {"qos": True}),
    ("trace_path", {"tracing": True}),
    ("disaggregation", {"placement_policy": "disaggregated"}),
    ("scrape_interval_ms", {"monitoring": True}),
    ("slo_target", {"monitoring": True}),
    ("slo_burn_windows", {"monitoring": True}),
    ("fault_seed", {"faults": True}),
    ("fault_plan", {"faults": True}),
    ("heartbeat_interval_ms", {"faults": True}),
    ("brownout_chunk_scale", {"brownout": True}),
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
