"""Flight recorder: bounded structured tracing for the control plane.

``SystemMetrics`` answers *how much* (flat end-of-run counters); the flight
recorder answers *when* and *why*: every control-plane hot point — launch
admission, command queue wait, batch formation and forward dispatch, KV
commit, chunked-prefill slicing, swap suspend/resume, KV streaming and live
migration, link occupancy — emits structured spans and instant events
stamped with the virtual clock, and a sim-timer-driven sampler records
per-shard telemetry time-series (queue depth, batch token utilization,
KV-pool occupancy, link busy fraction).

Design constraints, in order:

1. **Inert when off.**  ``ControlLayerConfig.tracing`` defaults to False
   and no :class:`TraceRecorder` is constructed: the controller's
   ``observers`` / ``timers`` hold no :class:`LifecycleTracer` and no
   sampler, and every subsystem that emits per-site spans takes
   ``trace=None`` and guards each emission with a single ``if``.
2. **Non-perturbing when on.**  Emission only *reads* simulator state
   (``sim.now``) and appends to Python-side buffers: no RNG draws, no
   future resolution, no state mutation the serving path can observe.  The
   sampler does schedule timer events, but its callbacks are read-only and
   the simulator orders events by ``(time, seq)`` with a monotone ``seq``
   — inserting extra events never reorders existing ones — so sampled
   tokens and every virtual timestamp stay bit-identical to a run with
   tracing off (asserted in ``tests/test_determinism.py``).
3. **Bounded.**  The recorder only appends: a span is written once, when
   its end is known, with its start read off a stamp the core already
   keeps (a command's ``issue_time``, an inferlet's ``launched_at``, a
   batch's dispatch instant).  Nothing is held outside the ring buffer of
   :data:`TRACE_MAX_EVENTS`, which is the whole memory bound; the oldest
   events are evicted first, and a span is either fully present or fully
   evicted.

Exporters produce Chrome/Perfetto ``trace_event`` JSON (load it in
``ui.perfetto.dev`` or ``chrome://tracing``) and a line-delimited JSONL
event log consumed by :mod:`repro.tools.trace_report`, which reconstructs
per-inferlet lifecycle timelines and attributes each inferlet's latency to
admission / queue / prefill / decode-gap / swap / transfer / compute.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import count
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.inferlet import LifecycleObserver
from repro.sim.periodic import PeriodicService

#: Ring-buffer bound on trace events (oldest evicted first), read when a
#: :class:`TraceRecorder` is built.
TRACE_MAX_EVENTS = 200_000

#: Every ``cat`` an emitter may write.  The all-planes traced run in
#: ``tests/test_determinism.py`` fails on a category not listed here.
TRACE_CATEGORIES = (
    "lifecycle",  # one span per inferlet, launch -> finish/abort
    "admission",  # launch-gate park/admit plus launch handling
    "queue",      # command submitted -> popped into a dispatched batch
    "exec",       # dispatched batch / command -> device completion
    "swap",       # swap-out/in instants and fault-in stalls
    "transfer",   # KV streaming, handoff stalls, live migration
    "sched",      # batch formation / dispatch bookkeeping
    "net",        # link wire occupancy
    "counter",    # sampler time-series
    "alert",      # SLO burn-rate alert fire/clear instants
    "fault",      # chaos-plane fault instants, relaunch + retry backoff spans
)


class TraceRecorder:
    """Bounded, deterministic span/event recorder on the virtual clock.

    All timestamps are virtual-time **seconds** internally; the Perfetto
    exporter converts to the microseconds the ``trace_event`` format
    expects.  Instances are cheap; everything is plain dicts and a deque.
    """

    def __init__(self, sim):
        self.sim = sim
        self.max_events = TRACE_MAX_EVENTS
        # Every event (ph X / i / C), in the order it was written.
        self._events: Deque[dict] = deque(maxlen=self.max_events)
        self._span_ids = count(1)
        #: Total events ever emitted (evicted ones included).
        self.total_emitted = 0
        #: Telemetry ticks recorded by :func:`telemetry_sampler`.
        self.samples_taken = 0

    # -- span / event emission --------------------------------------------

    def complete(
        self,
        name: str,
        cat: str,
        start: float,
        end: Optional[float] = None,
        shard: Optional[int] = None,
        inferlet: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a span once its end is known (``sim.now`` by default);
        ``start`` is a stamp the caller already keeps."""
        stop = self.sim.now if end is None else end
        self._append(
            {
                "ph": "X",
                "name": name,
                "cat": cat,
                "ts": start,
                "dur": max(0.0, stop - start),
                "shard": shard,
                "inferlet": inferlet,
                "id": next(self._span_ids),
                "args": args,
            }
        )

    def instant(
        self,
        name: str,
        cat: str,
        shard: Optional[int] = None,
        inferlet: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration marker at ``sim.now``."""
        self._append(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "ts": self.sim.now,
                "shard": shard,
                "inferlet": inferlet,
                "args": args,
            }
        )

    def counter(self, name: str, values: dict, shard: Optional[int] = None) -> None:
        """Record one sample of a named time-series (Perfetto ``C`` track)."""
        self._append(
            {
                "ph": "C",
                "name": name,
                "cat": "counter",
                "ts": self.sim.now,
                "shard": shard,
                "args": dict(values),
            }
        )

    def _append(self, event: dict) -> None:
        self.total_emitted += 1
        self._events.append(event)

    # -- introspection -----------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.total_emitted - len(self._events)

    def events(self, cat: Optional[str] = None) -> List[dict]:
        """Events in the order written (optionally one category)."""
        if cat is None:
            return list(self._events)
        return [event for event in self._events if event["cat"] == cat]

    # -- exporters ---------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the number of lines."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(_jsonable(event), sort_keys=True))
                handle.write("\n")
                lines += 1
        return lines

    def export_perfetto(self, path) -> int:
        """Write Chrome/Perfetto ``trace_event`` JSON; returns event count.

        Shards map to processes (pid ``shard + 1``; pid 0 is the control
        plane), inferlets to threads (stable first-seen ordinals), and
        counter samples to ``C`` tracks on their shard's process.
        """
        trace_events: List[dict] = []
        tids: Dict[str, int] = {}
        pids_seen: Dict[int, Optional[int]] = {}

        def pid_of(shard: Optional[int]) -> int:
            pid = 0 if shard is None else int(shard) + 1
            pids_seen.setdefault(pid, shard)
            return pid

        def tid_of(inferlet: Optional[str]) -> int:
            if inferlet is None:
                return 0
            return tids.setdefault(inferlet, len(tids) + 1)

        for event in self._events:
            record = {
                "name": event["name"],
                "cat": event["cat"],
                "ph": event["ph"],
                "ts": event["ts"] * 1e6,
                "pid": pid_of(event.get("shard")),
                "tid": tid_of(event.get("inferlet")),
            }
            if event["ph"] == "X":
                record["dur"] = event.get("dur", 0.0) * 1e6
            if event["ph"] == "i":
                record["s"] = "t"
            args = event.get("args")
            if event["ph"] == "C":
                record["args"] = _jsonable(args or {})
            else:
                extra = dict(args or {})
                if event.get("id") is not None:
                    extra["span_id"] = event["id"]
                if extra:
                    record["args"] = _jsonable(extra)
            trace_events.append(record)

        metadata: List[dict] = []
        for pid, shard in sorted(pids_seen.items()):
            name = "control-plane" if shard is None else f"shard{shard}"
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for inferlet, tid in sorted(tids.items(), key=lambda item: item[1]):
            for pid in pids_seen:
                metadata.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": inferlet},
                    }
                )

        document = {
            "displayTimeUnit": "ms",
            "traceEvents": metadata + trace_events,
            "otherData": {
                "clock": "virtual-seconds",
                "dropped_events": self.dropped,
                "samples_taken": self.samples_taken,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(trace_events)

    def export(self, path) -> int:
        """Export by extension: ``.jsonl`` -> event log, else Perfetto."""
        if str(path).endswith(".jsonl"):
            return self.export_jsonl(path)
        return self.export_perfetto(path)


class LifecycleTracer(LifecycleObserver):
    """The trace's view of an inferlet's life: two spans per inferlet.

    The lifecycle span covers launch -> final release; the admission span
    covers launch -> running (or abort/failure), so ``trace_report`` can
    attribute pre-run wait separately.  Both start at the core's
    ``launched_at`` stamp, so the tracer keeps no state of its own.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    def note_running(self, instance) -> None:
        self._since_launch("launch", "admission", instance, None)

    def note_reclaimed(self, victim, requester, shard) -> None:
        self.recorder.instant(
            "reclaim_terminate",
            "sched",
            shard=shard.index,
            inferlet=victim.instance_id,
            args={"requester": requester.instance_id},
        )

    def note_finished(self, instance) -> None:
        status = instance.status
        if instance.metrics.started_at is None:  # it never ran
            outcome = {"terminated": "aborted", "rejected": "rejected"}.get(status, "failed")
            self._since_launch("launch", "admission", instance, {outcome: True})
        args = {"program": instance.program.name, "tenant": instance.tenant, "status": status}
        self._since_launch("inferlet", "lifecycle", instance, args)

    def _since_launch(self, name: str, cat: str, instance, args: Optional[dict]) -> None:
        """Write a span from the instance's ``launched_at`` stamp to now."""
        self.recorder.complete(
            name, cat, instance.metrics.launched_at, inferlet=instance.instance_id, args=args
        )


def telemetry_sampler(recorder: TraceRecorder, controller) -> PeriodicService:
    """The flight recorder's periodic per-shard telemetry.

    Every sample is a pure read of simulator state — queue depths,
    busy-time deltas, pool occupancy, link busy fractions — so the timer's
    presence changes no virtual timestamp anywhere.
    """
    control, gpu = controller.config.control, controller.config.gpu
    period = control.trace_sample_ms / 1e3
    budget = gpu.max_batch_tokens
    last_busy: Dict[Any, float] = {}
    last_forward: Dict[Any, Tuple[float, float]] = {}

    def busy_frac(key: Any, busy: float) -> float:
        frac = min(1.0, (busy - last_busy.get(key, 0.0)) / period)
        last_busy[key] = busy
        return frac

    def sample() -> None:
        recorder.samples_taken += 1
        for service in controller.services():
            for shard in service.shards:
                key = (service.entry.name, shard.index)
                readings = shard.readings()
                stats = shard.scheduler.stats
                tokens = float(stats.forward_tokens_dispatched)
                batches = float(stats.batches_by_kind.get("forward", 0))
                last_tokens, last_batches = last_forward.get(key, (0.0, 0.0))
                d_batches = batches - last_batches
                mean_tokens = (tokens - last_tokens) / d_batches if d_batches else 0.0
                last_forward[key] = (tokens, batches)
                recorder.counter(
                    "telemetry",
                    {
                        "queue_depth": readings["queue_depth"],
                        "busy_frac": busy_frac(key, readings["busy_seconds"]),
                        "kv_occupancy": readings["kv_occupancy"],
                        "embed_occupancy": readings["embed_occupancy"],
                        "batch_tokens_mean": mean_tokens,
                        "batch_token_util": mean_tokens / budget if budget else 0.0,
                    },
                    shard=shard.index,
                )
            if service.host_pool.enabled:
                recorder.counter(
                    "host_kv",
                    {"occupancy": service.host_pool.num_used / service.host_pool.capacity},
                )
            for link in service.links():
                recorder.counter(
                    link.name,
                    {"busy_frac": busy_frac(("link", link.name), link.busy_seconds)},
                )

    return PeriodicService(controller.sim, period, sample, controller.has_live_inferlets)


def _jsonable(value):
    """Best-effort conversion to JSON-serialisable builtins."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        try:
            return value.item()
        except Exception:
            pass
    return str(value)
