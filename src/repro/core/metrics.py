"""Metrics collected by the control layer.

The experiments in §7.4 need per-inferlet API call accounting (Figure 10 and
11) and system-wide throughput/latency statistics; everything is collected
here rather than scattered through the system so experiments have one place
to read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.registry import LogHistogram, latency_histogram


@dataclass
class InferletMetrics:
    """Per-inferlet counters."""

    inferlet_id: str
    launched_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    status: str = "pending"  # pending | running | finished | failed | terminated | rejected
    control_layer_calls: int = 0
    inference_layer_calls: int = 0
    output_tokens: int = 0
    # First/latest output-token timestamps (virtual time), recorded for
    # every inferlet so TTFT/TPOT can be computed with every plane off.
    first_token_at: Optional[float] = None
    last_token_at: Optional[float] = None
    # The tenant's latency SLOs (seconds) this inferlet was launched under,
    # stamped by ``InferletLifecycleManager.launch``.
    ttft_slo_s: Optional[float] = None
    tpot_slo_s: Optional[float] = None
    calls_by_api: Dict[str, int] = field(default_factory=dict)
    # Where the launch-to-exit time went, per bucket of
    # ``repro.core.timeline.BUCKETS``: written at the exit, empty before.
    stall_buckets: Dict[str, float] = field(default_factory=dict)

    def note_output(self, now: float, count: int = 1) -> bool:
        """Count emitted output tokens; returns True on the first token.

        A ``count <= 0`` record is a no-op: it must not stamp token
        timestamps (that would fabricate a TTFT sample for a request that
        emitted nothing).
        """
        if count <= 0:
            return False
        self.output_tokens += count
        first = self.first_token_at is None
        if first:
            self.first_token_at = now
        self.last_token_at = now
        return first

    def record_call(self, api_name: str, layer: str) -> None:
        self.calls_by_api[api_name] = self.calls_by_api.get(api_name, 0) + 1
        if layer == "control":
            self.control_layer_calls += 1
        else:
            self.inference_layer_calls += 1

    @property
    def total_calls(self) -> int:
        return self.control_layer_calls + self.inference_layer_calls

    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def ttft(self) -> Optional[float]:
        """Time to first output token, measured from the launch request
        (admission queueing counts against the SLO)."""
        if self.first_token_at is None:
            return None
        return self.first_token_at - self.launched_at

    @property
    def tpot(self) -> Optional[float]:
        """Mean time per output token over the decode stream.

        None when the stream carries no timing information: fewer than two
        tokens, or every token recorded at one instant (a program that
        bulk-records its output after generation) — a 0.0 sample would
        trivially satisfy any TPOT SLO.
        """
        if self.first_token_at is None or self.output_tokens <= 1:
            return None
        if self.last_token_at == self.first_token_at:
            return None
        return (self.last_token_at - self.first_token_at) / (self.output_tokens - 1)

    @property
    def ttft_met(self) -> Optional[bool]:
        return met(self.ttft, self.ttft_slo_s)

    @property
    def tpot_met(self) -> Optional[bool]:
        return met(self.tpot, self.tpot_slo_s)

    @property
    def deadline(self) -> Optional[float]:
        """When this inferlet is next due (virtual seconds), read off the
        launch stamps: the TTFT deadline before the first output token, the
        TPOT deadline of the next token after it; None while unstamped."""
        if self.ttft_slo_s is None:
            return None
        if self.first_token_at is None:
            return self.launched_at + self.ttft_slo_s
        return self.last_token_at + self.tpot_slo_s

    @property
    def good(self) -> bool:
        """Counts toward goodput: finished with TTFT — and TPOT, when the
        stream carries a sample — inside the SLO."""
        return self.status == "finished" and self.ttft_met is True and self.tpot_met is not False

    def calls_per_output_token(self) -> Dict[str, float]:
        """Figure 11: average API calls per generated output token."""
        tokens = max(1, self.output_tokens)
        return {
            "control": self.control_layer_calls / tokens,
            "inference": self.inference_layer_calls / tokens,
        }


def met(sample: Optional[float], slo_s: Optional[float]) -> Optional[bool]:
    """The SLO verdict, decided here and nowhere else: a latency sample
    (seconds) on or under its target meets it; None without a sample or a
    target.  Readers take it off ``InferletMetrics.ttft_met`` / ``tpot_met``
    and only count."""
    if sample is None or slo_s is None:
        return None
    return sample <= slo_s


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: The ways out of the system, each counted per tenant under its own name.
EXIT_STATUSES = ("finished", "terminated", "failed", "rejected")


@dataclass
class TenantMetrics:
    """One tenant's record, kept by the core with every plane off.

    The core counts each fact where it is known: ``offered`` at launch, the
    TTFT sample at the first output token (:meth:`note_output`), the exit —
    terminal status, ``good`` and a *finished* stream's TPOT sample — at
    retirement (:meth:`note_exit`), a reclamation victim at its rung.  The
    SLO engine and the monitor read the record and count nothing themselves.
    """

    tenant: str
    priority_class: str = "standard"
    # Launches asked for, refused ones included.
    offered: int = 0
    finished: int = 0
    terminated: int = 0
    failed: int = 0
    rejected: int = 0
    # Finished inside the TTFT and TPOT SLO (``InferletMetrics.good``).
    good: int = 0
    output_tokens: int = 0
    # Latency samples live in bounded log-bucketed histograms (memory was
    # O(requests) as lists at the 10k-request load-harness scale); the
    # met/missed counters count the record's own SLO verdict (``met``), so
    # attainment needs no sample list either.
    ttft: LogHistogram = field(default_factory=latency_histogram)
    tpot: LogHistogram = field(default_factory=latency_histogram)
    ttft_met: int = 0
    ttft_missed: int = 0
    tpot_met: int = 0
    tpot_missed: int = 0
    # ``admitted`` / ``queued`` are written by the launch gate
    # (``InferletLifecycleManager``) and the two ``preempted_*`` counts at the
    # reclamation rung that picked the victim (``Controller._ensure_capacity``),
    # with every plane off.
    admitted: int = 0
    queued: int = 0
    preempted_swaps: int = 0
    preempted_terminations: int = 0

    def observe(self, signal: str, seconds: float, verdict: Optional[bool]) -> None:
        """Record one ``"ttft"`` / ``"tpot"`` sample and count its verdict
        (the inferlet record's ``ttft_met`` / ``tpot_met``; None = histogram
        only)."""
        getattr(self, signal).observe(seconds)
        if verdict is not None:
            counter = f"{signal}_{'met' if verdict else 'missed'}"
            setattr(self, counter, getattr(self, counter) + 1)

    def verdicts(self, signal: str) -> Tuple[int, int]:
        """The ``(met, missed)`` counts of one signal so far."""
        return getattr(self, f"{signal}_met"), getattr(self, f"{signal}_missed")

    @property
    def slo_attainment(self) -> float:
        """Fraction of the tenant's judged first tokens and decode streams
        that met their target (1.0 before any verdict).  Exact: each verdict
        was counted off its inferlet's record, not re-derived from the
        bucketed histograms."""
        met = self.ttft_met + self.tpot_met
        total = met + self.ttft_missed + self.tpot_missed
        return met / total if total else 1.0

    def note_output(self, record: InferletMetrics, count: int, first: bool) -> None:
        """``count`` output tokens of one of the tenant's inferlets; the
        first one is its TTFT sample."""
        self.output_tokens += count
        if first:
            self.observe("ttft", record.ttft, record.ttft_met)

    def note_exit(self, record: InferletMetrics) -> None:
        """One of the tenant's inferlets left with ``record.status``.  Only
        a finished stream's TPOT is judged — the rule goodput uses."""
        setattr(self, record.status, getattr(self, record.status) + 1)
        if record.good:
            self.good += 1
        if record.status == "finished" and record.tpot is not None:
            self.observe("tpot", record.tpot, record.tpot_met)


@dataclass
class SystemMetrics:
    """Server-wide counters."""

    inferlets_launched: int = 0
    inferlets_finished: int = 0
    inferlets_terminated: int = 0
    inferlets_failed: int = 0
    total_output_tokens: int = 0
    # Launch-latency distribution (bounded; was an O(launches) list).
    launch_latency: LogHistogram = field(default_factory=latency_histogram)
    per_inferlet: Dict[str, InferletMetrics] = field(default_factory=dict)
    # Cluster-level accounting (router placements and KV-page migrations).
    placements_by_device: Dict[str, int] = field(default_factory=dict)
    cross_device_imports: int = 0
    # Reclamation outcomes: terminations destroy computed KV state,
    # reclamation swaps stage it to the host tier instead (terminate-last).
    reclamation_terminations: int = 0
    reclamation_swaps: int = 0
    # Tiered-KV swap traffic between device HBM and the host pool.
    swap_outs: int = 0
    swap_ins: int = 0
    kv_pages_swapped_out: int = 0
    kv_pages_swapped_in: int = 0
    bytes_swapped_out: int = 0
    bytes_swapped_in: int = 0
    # Virtual time inferlets spent waiting on swap-in after wake-up.
    swap_stall_seconds: float = 0.0
    # Input tokens actually processed by forward commands (prefill +
    # decode), counted as each forward or slice retires without failing
    # (``BatchScheduler._on_batch_done``): commands dropped before they
    # dispatch never count; with the prefix cache on, saved tokens never
    # reach here.
    forward_input_tokens: int = 0
    # Chunked prefill / token-budget batching (repro.core.batching):
    # prefill head slices dispatched, decode rows that shared a batch with
    # at least one slice, and the modeled head-of-line stall those decode
    # rows did not pay.  All zero while no prompt outgrows the budget.
    prefill_chunks_dispatched: int = 0
    decode_rows_co_batched: int = 0
    chunk_stall_saved_seconds: float = 0.0
    # Pending commands abandoned when their queue was removed (owner exit
    # or termination with work still queued), aggregated across shards.
    commands_dropped: int = 0
    # Automatic prefix cache (repro.core.prefix_cache): hit/miss counts
    # per matchable forward, prefill tokens skipped via reuse, pages
    # adopted into the index, LRU evictions, demotions to the host tier
    # and PCIe-charged fault-ins of demoted entries.
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_cache_saved_tokens: int = 0
    prefix_cache_inserted_pages: int = 0
    prefix_cache_evictions: int = 0
    prefix_cache_demotions: int = 0
    prefix_cache_faultins: int = 0
    # Device pages freed for allocations by demoting/evicting cache
    # entries (the swap manager's reclamation ladder, terminate-last).
    prefix_cache_reclaims: int = 0
    # Prefill/decode disaggregation (repro.core.transfer): completed
    # prefill->decode handoffs, handoffs that could not run (no decode
    # capacity / non-quiescent owner), KV pages streamed ahead of the
    # handoff vs copied in the synchronous tail, bytes put on the
    # inter-shard link, and the modeled stall decode start paid waiting
    # for the link to drain.  All zero with ``disaggregation`` off.
    disagg_handoffs: int = 0
    disagg_handoff_failures: int = 0
    disagg_pages_streamed: int = 0
    disagg_pages_tail: int = 0
    disagg_bytes_streamed: int = 0
    disagg_handoff_stall_seconds: float = 0.0
    # Chaos plane (repro.sim.faults / repro.core.health): injected faults
    # and shard crashes, failover outcomes (inferlets terminated with cause
    # vs re-materialized from the host tier onto a healthy shard), and
    # mid-stream KV transfers re-planned off a dead decode shard.  All zero
    # with an empty ``fault_plan``.
    faults_injected: int = 0
    shard_crashes: int = 0
    failover_terminations: int = 0
    failover_relaunches: int = 0
    disagg_replans: int = 0
    # One record per tenant, keyed by name: every configured tenant and
    # every tenant that launched.
    tenants: Dict[str, TenantMetrics] = field(default_factory=dict)

    def tenant_record(self, spec) -> TenantMetrics:
        """The record of ``spec``'s tenant (a ``TenantSpec``), started on
        first use."""
        record = self.tenants.get(spec.name)
        if record is None:
            record = TenantMetrics(tenant=spec.name, priority_class=spec.priority_class)
            self.tenants[spec.name] = record
        return record

    def register(self, metrics: InferletMetrics) -> None:
        self.per_inferlet[metrics.inferlet_id] = metrics
        self.inferlets_launched += 1

    def record_placement(self, device_name: str) -> None:
        """Count one inferlet placed onto a device by the cluster router."""
        self.placements_by_device[device_name] = (
            self.placements_by_device.get(device_name, 0) + 1
        )

    def record_swap_out(self, n_pages: int, n_bytes: int) -> None:
        self.swap_outs += 1
        self.kv_pages_swapped_out += n_pages
        self.bytes_swapped_out += n_bytes

    def record_swap_in(self, n_pages: int, n_bytes: int) -> None:
        # Stall time is accumulated separately by the resume path, which is
        # the only place that knows how long the inferlet actually waited.
        self.swap_ins += 1
        self.kv_pages_swapped_in += n_pages
        self.bytes_swapped_in += n_bytes

    def get(self, inferlet_id: str) -> InferletMetrics:
        return self.per_inferlet[inferlet_id]

    def aggregate_calls_per_output_token(self) -> Dict[str, float]:
        control = sum(m.control_layer_calls for m in self.per_inferlet.values())
        inference = sum(m.inference_layer_calls for m in self.per_inferlet.values())
        tokens = max(1, sum(m.output_tokens for m in self.per_inferlet.values()))
        return {"control": control / tokens, "inference": inference / tokens}
