"""The QoS subsystem: multi-tenant SLO-aware serving (beyond the paper).

Pie's programmable inferlets turn every request into a long-lived program,
which makes head-of-line blocking and memory pressure a *fairness* problem,
not just a throughput one: one tenant's fleet of batch agents can crowd the
device while another tenant's interactive chat turns rot in the queue.  The
serving survey (Miao et al.) names SLO-aware scheduling/preemption as the
core production gap; this module supplies that control-plane layer.

A :class:`QosService` (one per controller, shared by every model cluster)
provides three coordinated mechanisms, all driven by the controller's
:class:`TenantTable` of :class:`TenantSpec` records — the one place a
tenant's contract is written, whether or not this service is built:

* **Admission control** — each launch names a tenant; the tenant's token
  bucket (launch rate) and concurrency cap decide *admit*, *queue with
  backpressure* (the launch parks until a slot or bucket token frees up) or
  *reject* (:class:`repro.errors.AdmissionRejectedError`, typed so clients
  can shed load).
* **SLO-aware dispatch** — candidate-batch selection scores batches by
  class-weighted slack-to-deadline (earliest deadline first within a
  class) instead of pure longest-waiting; an aging bound keeps batch-class
  work from starving outright.
* **Fair share** — per-tenant virtual token counters (dispatched work
  divided by class weight) feed router placement weights and dispatch
  tie-breaks, so a heavy tenant cannot monopolise a shard.

Who absorbs memory pressure is the core's ``Controller.victim_key``, which
reads the class rank and the deadline with every plane off.  The service
is only constructed when ``ControlLayerConfig.qos`` is true; with the knob
off (the default) none of its hooks are installed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import AdmissionRejectedError, ReproError
from repro.core.batching import CandidateBatch
from repro.core.command_queue import CommandQueue
from repro.core.inferlet import InferletInstance, LifecycleObserver
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

    ``rate_per_s``/``burst`` form a token-bucket admission rate (0 rate =
    unlimited); ``max_concurrent`` caps simultaneously admitted inferlets
    (0 = unlimited); ``max_queued`` bounds the admission backlog — launches
    beyond it are rejected with a typed error (backpressure).  SLO targets
    default per class (:data:`CLASS_TTFT_SLO_MS` / :data:`CLASS_TPOT_SLO_MS`).
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


#: The contract QoS reads for an instance it never admitted.
_DEFAULT_SPEC = TenantSpec(name="default", priority_class=DEFAULT_CLASS)


class TenantTable(dict):
    """The one ``tenant name -> TenantSpec`` table, owned by the controller:
    seeded from ``ControlLayerConfig.tenants``, extended by :meth:`register`,
    read as ``tenants[name]`` by QoS, the SLO engine, the launch-time SLO
    stamp and the load harness, none of which keeps its own.
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


class TokenBucket:
    """A deterministic lazy-refill token bucket (admission rate limiting)."""

    def __init__(self, rate_per_s: float, burst: int, now: float = 0.0) -> None:
        self.rate = rate_per_s
        self.burst = max(1, burst)
        self.level = float(self.burst)
        self.last_refill = now

    @property
    def unlimited(self) -> bool:
        return self.rate <= 0

    def _refill(self, now: float) -> None:
        if self.unlimited:
            return
        elapsed = max(0.0, now - self.last_refill)
        self.level = min(float(self.burst), self.level + elapsed * self.rate)
        self.last_refill = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        if self.unlimited:
            return True
        self._refill(now)
        if self.level + 1e-12 >= n:
            self.level -= n
            return True
        return False

    def seconds_until_available(self, now: float, n: float = 1.0) -> float:
        """Virtual time until ``n`` tokens will be available (0 if now)."""
        if self.unlimited:
            return 0.0
        self._refill(now)
        missing = n - self.level
        if missing <= 0:
            return 0.0
        return missing / self.rate


class _TenantState:
    """Runtime state the service keeps per registered tenant."""

    def __init__(self, spec: TenantSpec, metrics: TenantMetrics, now: float) -> None:
        self.spec = spec
        self.metrics = metrics
        self.bucket = TokenBucket(spec.rate_per_s, spec.burst, now=now)
        self.running: set = set()  # admitted, not yet finished (instance ids)
        # Parked launches awaiting a slot/bucket token:
        # (instance, proceed, on_cancelled).
        self.wait_queue: Deque[
            Tuple["InferletInstance", Callable[[], None], Optional[Callable[[], None]]]
        ] = deque()
        self.refill_timer_armed = False

    @property
    def has_slot(self) -> bool:
        cap = self.spec.max_concurrent
        return cap <= 0 or len(self.running) < cap


class QosService(LifecycleObserver):
    """Per-cluster QoS control plane: admission, dispatch, shares."""

    def __init__(
        self,
        sim: Simulator,
        metrics: SystemMetrics,
        tenants: TenantTable,
        trace=None,
    ) -> None:
        self.sim = sim
        self.metrics = metrics
        self.tenants = tenants
        self.aging_s = AGING_MS / 1e3
        # Flight recorder (repro.core.trace): parked launches carry an
        # "admission_queued" span from park to admit/cancel.  None = off.
        self._trace = trace
        self._trace_parked: Dict[str, int] = {}
        self._tenants: Dict[str, _TenantState] = {}
        # instance id -> (instance, tenant state); populated at admission.
        self._instances: Dict[str, Tuple["InferletInstance", _TenantState]] = {}
        for spec in tenants.values():
            self._track(spec)

    # -- per-tenant runtime state ---------------------------------------------

    def _track(self, spec: TenantSpec) -> _TenantState:
        """Start serving a tenant of the table (its bucket and admission
        queue); the spec stays the table's and the record the core's."""
        record = self.metrics.tenant_record(spec)
        state = self._tenants[spec.name] = _TenantState(spec, record, now=self.sim.now)
        return state

    def tenant_spec(self, name: str) -> TenantSpec:
        """Read-only spec lookup; raises for tenants this service does not
        account for (reporting must never start accounting the way
        admission does)."""
        state = self._tenants.get(name)
        if state is None:
            raise ReproError(
                f"unknown tenant {name!r}; have {self.tenant_names()}"
            )
        return state.spec

    def tenant_names(self) -> List[str]:
        return sorted(self._tenants)

    def _state(self, name: str) -> _TenantState:
        """Admission-path lookup: a tenant first seen here — registered
        after the service was built, or never (the table's default-class
        spec) — starts being accounted for.  Only admission may do that;
        reporting reads use :meth:`tenant_spec`."""
        state = self._tenants.get(name)
        if state is None:
            state = self._track(self.tenants[name])
        return state

    def _state_of(self, instance_id: str) -> Optional[_TenantState]:
        entry = self._instances.get(instance_id)
        return entry[1] if entry is not None else None

    def _spec_of(self, instance_id: str) -> TenantSpec:
        state = self._state_of(instance_id)
        return state.spec if state is not None else _DEFAULT_SPEC

    # -- admission control --------------------------------------------------

    def request_admission(
        self,
        instance: "InferletInstance",
        proceed: Callable[[], None],
        on_cancelled: Optional[Callable[[], None]] = None,
    ) -> str:
        """Decide an inferlet launch: ``"admit"`` | ``"queued"`` | raise.

        ``proceed`` continues the launch (enqueueing it on the lifecycle
        manager's launch executor); on *admit* the caller should invoke it
        synchronously, on *queued* the service calls it once a concurrency
        slot and a bucket token are both available, and on rejection an
        :class:`AdmissionRejectedError` carries tenant and reason.
        ``on_cancelled`` fires if the parked launch is aborted before
        admission (so the caller can resolve its ready future).
        """
        state = self._state(instance.tenant)
        now = self.sim.now
        if state.has_slot and not state.wait_queue and state.bucket.try_take(now):
            self._admit(state, instance)
            return "admit"
        if len(state.wait_queue) >= max(0, state.spec.max_queued):
            self.metrics.qos_rejected += 1
            if self._trace is not None:
                self._trace.instant(
                    "admission_rejected",
                    "admission",
                    inferlet=instance.instance_id,
                    args={"tenant": instance.tenant},
                )
            raise AdmissionRejectedError(
                f"tenant {instance.tenant!r} admission queue is full "
                f"({state.spec.max_queued} waiting); shed load or raise max_queued",
                tenant=instance.tenant,
            )
        state.wait_queue.append((instance, proceed, on_cancelled))
        state.metrics.queued += 1
        self.metrics.qos_queued += 1
        if self._trace is not None:
            self._trace_parked[instance.instance_id] = self._trace.begin(
                "admission_queued",
                "admission",
                inferlet=instance.instance_id,
                args={"tenant": instance.tenant},
            )
        self._arm_refill_timer(state)
        return "queued"

    def cancel_parked(self, instance: "InferletInstance") -> bool:
        """Remove an aborted launch from its tenant's admission queue.

        Called by the termination path for instances that never got a
        task.  Fires the entry's ``on_cancelled`` hook (failing the ready
        future) and frees the queue slot immediately, so corpses neither
        hang their awaiters nor trigger spurious ``max_queued`` rejections.
        Returns True if an entry was removed.
        """
        state = self._tenants.get(instance.tenant)
        if state is None:
            return False
        for entry in list(state.wait_queue):
            if entry[0].instance_id == instance.instance_id:
                state.wait_queue.remove(entry)
                if self._trace is not None:
                    self._trace.end(
                        self._trace_parked.pop(instance.instance_id, None),
                        args={"cancelled": True},
                    )
                if entry[2] is not None:
                    entry[2]()
                return True
        return False

    def _admit(self, state: _TenantState, instance: "InferletInstance") -> None:
        if self._trace is not None:
            self._trace.end(self._trace_parked.pop(instance.instance_id, None))
        state.running.add(instance.instance_id)
        state.metrics.admitted += 1
        self.metrics.qos_admitted += 1
        self._instances[instance.instance_id] = (instance, state)

    def _pump(self, state: _TenantState) -> None:
        now = self.sim.now
        while state.wait_queue and state.has_slot:
            if state.wait_queue[0][0].finished:
                # Aborted while parked and not yet cancelled explicitly:
                # drop it without consuming a slot or token, resolving any
                # awaiter via the cancel hook.
                aborted, _, on_cancelled = state.wait_queue.popleft()
                if self._trace is not None:
                    self._trace.end(
                        self._trace_parked.pop(aborted.instance_id, None),
                        args={"cancelled": True},
                    )
                if on_cancelled is not None:
                    on_cancelled()
                continue
            if not state.bucket.try_take(now):
                break
            instance, proceed, _ = state.wait_queue.popleft()
            self._admit(state, instance)
            proceed()
        self._arm_refill_timer(state)

    def _arm_refill_timer(self, state: _TenantState) -> None:
        """Wake the admission queue when the token bucket refills."""
        if state.refill_timer_armed or not state.wait_queue or not state.has_slot:
            return
        delay = state.bucket.seconds_until_available(self.sim.now)
        if delay <= 0:
            return
        state.refill_timer_armed = True

        def fire(*_):
            state.refill_timer_armed = False
            self._pump(state)

        self.sim.schedule(delay, fire)

    def note_finished(self, instance: "InferletInstance") -> None:
        """An admitted inferlet left the system (its queues already went):
        forget it, free its slot and pump."""
        entry = self._instances.pop(instance.instance_id, None)
        if entry is None:
            return
        state = entry[1]
        state.running.discard(instance.instance_id)
        self._pump(state)

    # -- SLO slack -----------------------------------------------------------

    def _weighted_slack(self, instance: "InferletInstance", now: float) -> float:
        """Class-weighted slack to ``InferletMetrics.deadline``: scaling by
        weight keeps EDF ordering within a class while ranking a high class's
        deadline as more pressing than an equally distant low-class one (and
        its lateness as worse)."""
        weight = self._spec_of(instance.instance_id).share_weight
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
        slack = self._min_weighted_slack(batch, now)
        vtime = min(
            (
                state.metrics.virtual_tokens
                for state in (
                    self._state_of(cmd.inferlet_id) for cmd in batch.commands
                )
                if state is not None
            ),
            default=0.0,
        )
        # Final tie-break: true remaining work.  With chunked prefill on, a
        # sliced forward's residual shrinks in place, so ``input_tokens``
        # is what the command still owes the device — a nearly-finished
        # prompt beats an untouched one at equal slack.
        return (1, slack, vtime, oldest, batch.total_input_tokens, batch.kind)

    def _batch_instances(self, batch: CandidateBatch) -> List["InferletInstance"]:
        instances = []
        seen = set()
        for command in batch.commands:
            if command.inferlet_id in seen:
                continue
            seen.add(command.inferlet_id)
            entry = self._instances.get(command.inferlet_id)
            if entry is not None:
                instances.append(entry[0])
        return instances

    def queue_priority(self, queue: CommandQueue) -> int:
        """Merge priority for batch formation: class stride + queue priority.

        Commands of better-class tenants are placed earlier in merged
        batches, so tail truncation at ``max_batch_rows`` drops batch-class
        rows first; the queue's own priority breaks ties within a class —
        clamped below the stride, so no user-supplied priority can outrank
        a better class.
        """
        rank = self._spec_of(queue.owner).rank
        bias = max(-(_CLASS_PRIORITY_STRIDE - 1), min(_CLASS_PRIORITY_STRIDE - 1, queue.priority))
        return (len(QOS_CLASSES) - 1 - rank) * 2 * _CLASS_PRIORITY_STRIDE + bias

    def note_dispatched(self, commands: List) -> None:
        """Charge dispatched work to tenant fair-share counters.

        A chunked prefill is charged slice by slice (each head slice
        carries its own ``input_tokens``), so a tenant pays for exactly
        the prompt tokens the device has processed so far, not the whole
        prompt up front."""
        for command in commands:
            state = self._state_of(command.inferlet_id)
            if state is None:
                continue
            tokens = max(command.rows, command.input_tokens, 1)
            state.metrics.virtual_tokens += tokens / state.spec.share_weight
            state.metrics.dispatched_commands += 1

    # -- urgency fallback for empty instance sets ---------------------------

    def _min_weighted_slack(self, batch: CandidateBatch, now: float) -> float:
        instances = self._batch_instances(batch)
        if not instances:
            return 0.0
        return min(self._weighted_slack(instance, now) for instance in instances)

    def note_handoff(self, instance: "InferletInstance") -> None:
        """Attribute one prefill->decode disaggregation handoff.

        QoS accounting follows the inferlet across the migration: the
        tenant's fair-share state is keyed by instance id, not device, so
        only this counter needs to move.
        """
        state = self._state_of(instance.instance_id)
        if state is not None:
            state.metrics.handoffs += 1

    # -- fair-share placement ------------------------------------------------

    def placement_weight(self, instance_id: str) -> float:
        """Router occupancy weight: better-class inferlets count heavier,
        spreading interactive tenants across shards instead of packing
        them behind one shard's batch backlog."""
        state = self._state_of(instance_id)
        if state is None:
            return 1.0
        return state.spec.share_weight

    # -- reporting -----------------------------------------------------------

    def slo_attainment(self, tenant: str) -> float:
        """Fraction of the tenant's first tokens that met the TTFT target
        and decode streams that met the TPOT target.  Read-only: raises
        for unknown tenants.  Exact: each sample's verdict was counted off
        its inferlet's record, not re-derived from the bucketed
        histograms."""
        self.tenant_spec(tenant)
        record = self.metrics.tenants[tenant]
        met = record.ttft_met + record.tpot_met
        total = met + record.ttft_missed + record.tpot_missed
        return met / total if total else 1.0
