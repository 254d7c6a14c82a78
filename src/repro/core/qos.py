"""The QoS subsystem: multi-tenant SLO-aware serving (beyond the paper).

Pie's programmable inferlets turn every request into a long-lived program,
which makes head-of-line blocking and memory pressure a *fairness* problem,
not just a throughput one: one tenant's fleet of batch agents can crowd the
device while another tenant's interactive chat turns rot in the queue.  The
serving survey (Miao et al.) names SLO-aware scheduling/preemption as the
core production gap; this module supplies that control-plane layer.

A :class:`QosService` (one per controller, shared by every model cluster)
provides two coordinated mechanisms, both driven by the controller's
:class:`TenantTable` of :class:`TenantSpec` records — the one place a
tenant's contract is written, whether or not this service is built:

* **SLO-aware dispatch** — candidate-batch selection scores batches by
  class-weighted slack-to-deadline (earliest deadline first within a
  class) instead of pure longest-waiting; an aging bound keeps batch-class
  work from starving outright.
* **Fair share** — per-tenant virtual token counters (dispatched work
  divided by class weight) feed router placement weights and dispatch
  tie-breaks, so a heavy tenant cannot monopolise a shard.

Admission is the core's: a tenant's rate, concurrency cap and backlog bound
are applied by the launch gate (``InferletLifecycleManager._admit_or_park``)
with every plane off, and who absorbs memory pressure is
``Controller.victim_key``.  The service keeps no per-inferlet state: it
reads an inferlet's contract off ``Controller.tenants`` and its tenant's
record off ``SystemMetrics.tenants``, finding the inferlet in the
controller's live-inferlet registry.  It is only constructed when
``ControlLayerConfig.qos`` is true; with the knob off (the default) none of
its hooks are installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.core.batching import CandidateBatch
from repro.core.command_queue import CommandQueue
from repro.core.inferlet import InferletInstance
from repro.core.metrics import SystemMetrics, TenantMetrics
from repro.sim.simulator import Simulator

#: The three priority classes, best-served first.  Rank orders preemption
#: (higher rank = preempted first); weight scales slack in dispatch scoring
#: and fair-share accounting (higher weight = more urgent / larger share).
QOS_CLASSES = ("interactive", "standard", "batch")
CLASS_RANK = {"interactive": 0, "standard": 1, "batch": 2}
CLASS_WEIGHT = {"interactive": 4.0, "standard": 2.0, "batch": 1.0}

#: Priority class assumed for unregistered tenants / untagged traffic.
DEFAULT_CLASS = "standard"

#: Per-class SLO target defaults (overridable per tenant): time-to-first-
#: token and time-per-output-token, in milliseconds.
CLASS_TTFT_SLO_MS = {"interactive": 250.0, "standard": 1000.0, "batch": 10_000.0}
CLASS_TPOT_SLO_MS = {"interactive": 50.0, "standard": 150.0, "batch": 1000.0}

#: Starvation bound of SLO-aware dispatch (virtual ms): a candidate batch
#: whose oldest command has waited this long is served FCFS regardless of
#: class.  Read when a :class:`QosService` is built.
AGING_MS = 200.0

#: Merge-priority stride separating the classes: within a candidate batch,
#: commands of a better class are placed earlier (surviving tail truncation)
#: regardless of the queue's own priority, which only breaks ties in-class.
_CLASS_PRIORITY_STRIDE = 1_000_000


@dataclass(frozen=True)
class TenantSpec:
    """Declared serving contract of one tenant.

    ``rate_per_s``/``burst`` form a token-bucket launch rate (0 rate =
    unlimited); ``max_concurrent`` caps simultaneously admitted inferlets
    (0 = unlimited); ``max_queued`` bounds the admission backlog — launches
    beyond it are refused with a typed error (backpressure).  The launch
    gate applies all four with QoS on or off.  SLO targets default per class
    (:data:`CLASS_TTFT_SLO_MS` / :data:`CLASS_TPOT_SLO_MS`).
    """

    name: str
    priority_class: str = "standard"
    rate_per_s: float = 0.0
    burst: int = 1
    max_concurrent: int = 0
    max_queued: int = 64
    ttft_slo_ms: Optional[float] = None
    tpot_slo_ms: Optional[float] = None
    weight: Optional[float] = None
    # Availability objective the live SLO engine (repro.core.slo) burns
    # error budget against; None falls back to slo.DEFAULT_SLO_TARGET.
    slo_target: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("tenant name must be non-empty")
        if self.priority_class not in QOS_CLASSES:
            raise ReproError(
                f"unknown priority class {self.priority_class!r}; have {QOS_CLASSES}"
            )
        if self.rate_per_s < 0:
            raise ReproError("rate_per_s must be non-negative (0 = unlimited)")
        if self.burst < 1:
            raise ReproError("burst must be at least 1")
        if self.max_concurrent < 0 or self.max_queued < 0:
            raise ReproError("max_concurrent/max_queued must be non-negative")
        if self.weight is not None and self.weight <= 0:
            raise ReproError("weight must be positive")
        if self.slo_target is not None and not 0.0 < self.slo_target < 1.0:
            raise ReproError("slo_target must be in (0, 1)")

    @property
    def rank(self) -> int:
        return CLASS_RANK[self.priority_class]

    @property
    def share_weight(self) -> float:
        return self.weight if self.weight is not None else CLASS_WEIGHT[self.priority_class]

    @property
    def ttft_slo_s(self) -> float:
        ms = self.ttft_slo_ms
        if ms is None:
            ms = CLASS_TTFT_SLO_MS[self.priority_class]
        return ms / 1e3

    @property
    def tpot_slo_s(self) -> float:
        ms = self.tpot_slo_ms
        if ms is None:
            ms = CLASS_TPOT_SLO_MS[self.priority_class]
        return ms / 1e3


class TenantTable(dict):
    """The one ``tenant name -> TenantSpec`` table, owned by the controller:
    seeded from ``ControlLayerConfig.tenants``, extended by :meth:`register`,
    read as ``tenants[name]`` by the launch gate and its SLO stamp, QoS, the
    SLO engine and the load harness, none of which keeps its own.
    A name's spec is never replaced, so a reference read here stays the
    tenant's contract for the whole run."""

    def __init__(self, specs: Iterable[TenantSpec] = ()) -> None:
        super().__init__()
        for spec in specs:
            self.register(spec)

    def register(self, spec: TenantSpec) -> None:
        if spec.name in self:
            raise ReproError(f"tenant {spec.name!r} already registered")
        self[spec.name] = spec

    def __missing__(self, name: str) -> TenantSpec:
        """A name nobody registered gets — here, once — an unlimited spec of
        :data:`DEFAULT_CLASS`: untagged traffic is served and judged too."""
        spec = self[name] = TenantSpec(name=name, priority_class=DEFAULT_CLASS)
        return spec


class QosService:
    """Per-controller QoS control plane: SLO-aware dispatch and fair share."""

    def __init__(
        self,
        sim: Simulator,
        metrics: SystemMetrics,
        tenants: TenantTable,
        live: Mapping[str, InferletInstance],
    ) -> None:
        self.sim = sim
        self.metrics = metrics
        self.tenants = tenants
        #: The controller's live-inferlet registry (instance id -> instance).
        self.live = live
        self.aging_s = AGING_MS / 1e3

    def _record(self, instance: InferletInstance) -> TenantMetrics:
        return self.metrics.tenant_record(self.tenants[instance.tenant])

    # -- SLO slack -----------------------------------------------------------

    def _weighted_slack(self, instance: InferletInstance, now: float) -> float:
        """Class-weighted slack to ``InferletMetrics.deadline``: scaling by
        weight keeps EDF ordering within a class while ranking a high class's
        deadline as more pressing than an equally distant low-class one (and
        its lateness as worse)."""
        weight = self.tenants[instance.tenant].share_weight
        slack = instance.metrics.deadline - now
        return slack / weight if slack >= 0 else slack * weight

    # -- SLO-aware dispatch --------------------------------------------------

    def select_batch(
        self, candidates: Dict[str, CandidateBatch]
    ) -> Optional[CandidateBatch]:
        """Pick the most urgent candidate batch (replaces longest-waiting).

        Batches whose oldest command has waited beyond the aging bound are
        served first in FCFS order — this bounds starvation of batch-class
        work under sustained interactive load.  Otherwise the batch with
        the smallest class-weighted slack wins; ties break by tenant fair
        share (smaller virtual token counter first), then oldest command,
        then kind (for determinism)."""
        if not candidates:
            return None
        now = self.sim.now
        return min(candidates.values(), key=lambda batch: self._urgency_key(batch, now))

    def _urgency_key(self, batch: CandidateBatch, now: float) -> Tuple:
        oldest = batch.oldest_issue_time
        if now - oldest >= self.aging_s:
            return (0, oldest, 0.0, 0, 0, batch.kind)
        instances = self._batch_instances(batch)
        slack = min((self._weighted_slack(i, now) for i in instances), default=0.0)
        vtime = min((self._record(i).virtual_tokens for i in instances), default=0.0)
        # Final tie-break: true remaining work.  With chunked prefill on, a
        # sliced forward's residual shrinks in place, so ``input_tokens``
        # is what the command still owes the device — a nearly-finished
        # prompt beats an untouched one at equal slack.
        return (1, slack, vtime, oldest, batch.total_input_tokens, batch.kind)

    def _batch_instances(self, batch: CandidateBatch) -> List[InferletInstance]:
        """The live inferlets a batch's commands belong to, each once."""
        owners = dict.fromkeys(command.inferlet_id for command in batch.commands)
        return [self.live[owner] for owner in owners if owner in self.live]

    def queue_priority(self, queue: CommandQueue) -> int:
        """Merge priority for batch formation: class stride + queue priority.

        Commands of better-class tenants are placed earlier in merged
        batches, so tail truncation at ``max_batch_rows`` drops batch-class
        rows first; the queue's own priority breaks ties within a class —
        clamped below the stride, so no user-supplied priority can outrank
        a better class.  A queue whose owner is not live ranks as
        :data:`DEFAULT_CLASS`.
        """
        owner = self.live.get(queue.owner)
        rank = CLASS_RANK[DEFAULT_CLASS] if owner is None else self.tenants[owner.tenant].rank
        bias = max(-(_CLASS_PRIORITY_STRIDE - 1), min(_CLASS_PRIORITY_STRIDE - 1, queue.priority))
        return (len(QOS_CLASSES) - 1 - rank) * 2 * _CLASS_PRIORITY_STRIDE + bias

    def note_dispatched(self, commands: List) -> None:
        """Charge dispatched work to tenant fair-share counters.

        A chunked prefill is charged slice by slice (each head slice
        carries its own ``input_tokens``), so a tenant pays for exactly
        the prompt tokens the device has processed so far, not the whole
        prompt up front."""
        for command in commands:
            instance = self.live.get(command.inferlet_id)
            if instance is None:
                continue
            record = self._record(instance)
            tokens = max(command.rows, command.input_tokens, 1)
            record.virtual_tokens += tokens / self.tenants[instance.tenant].share_weight
            record.dispatched_commands += 1

    def note_handoff(self, instance: InferletInstance) -> None:
        """Attribute one prefill->decode disaggregation handoff.

        QoS accounting follows the inferlet across the migration: the
        tenant's fair-share state is keyed by tenant, not device, so only
        this counter needs to move.
        """
        self._record(instance).handoffs += 1

    # -- fair-share placement ------------------------------------------------

    def placement_weight(self, instance_id: str) -> float:
        """Router occupancy weight: better-class inferlets count heavier,
        spreading interactive tenants across shards instead of packing
        them behind one shard's batch backlog."""
        instance = self.live.get(instance_id)
        return 1.0 if instance is None else self.tenants[instance.tenant].share_weight
