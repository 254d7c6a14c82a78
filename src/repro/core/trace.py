"""Flight recorder: bounded structured tracing for the control plane.

``SystemMetrics`` answers *how much* (flat end-of-run counters); the flight
recorder answers *when* and *why*: every control-plane hot point — QoS
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
3. **Bounded.**  Completed events live in a ring buffer of
   :data:`TRACE_MAX_EVENTS`; the oldest are evicted first.  *Open* spans are
   held out of the ring (in a side table keyed by span id) until they are
   ended, so eviction can never orphan a begin/close pair: a span is
   either still open, fully present, or fully evicted.

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
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.inferlet import LifecycleObserver
from repro.sim.periodic import PeriodicService

#: Ring-buffer bound on completed trace events (oldest evicted first).
TRACE_MAX_EVENTS = 200_000

#: Span/event categories emitted by the instrumented subsystems.  The
#: stall-attribution sweep in ``repro.tools.trace_report`` keys off these.
TRACE_CATEGORIES = (
    "lifecycle",  # one span per inferlet, launch -> finish/abort
    "admission",  # QoS park/admit plus launch handling
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

    def __init__(self, sim, max_events: int = TRACE_MAX_EVENTS):
        self.sim = sim
        self.max_events = int(max_events)
        # Completed events only (ph X / i / C), in completion order.
        self._events: Deque[dict] = deque(maxlen=self.max_events)
        # Open spans by id: never evicted, so begin/close pairs stay
        # consistent no matter how small the ring is.
        self._open: Dict[int, dict] = {}
        self._span_ids = count(1)
        #: Total events ever emitted (evicted ones included).
        self.total_emitted = 0
        #: Telemetry ticks recorded by :func:`telemetry_sampler`.
        self.samples_taken = 0

    # -- span / event emission --------------------------------------------

    def begin(
        self,
        name: str,
        cat: str,
        shard: Optional[int] = None,
        inferlet: Optional[str] = None,
        parent: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> int:
        """Open a span at ``sim.now``; returns its id for :meth:`end`."""
        span_id = next(self._span_ids)
        self._open[span_id] = {
            "ph": "X",
            "name": name,
            "cat": cat,
            "ts": self.sim.now,
            "shard": shard,
            "inferlet": inferlet,
            "parent": parent,
            "id": span_id,
            "args": args,
        }
        return span_id

    def end(self, span_id: Optional[int], args: Optional[dict] = None) -> None:
        """Close an open span (idempotent: unknown/closed ids are no-ops)."""
        if span_id is None:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        if args:
            merged = dict(span.get("args") or {})
            merged.update(args)
            span["args"] = merged
        span["dur"] = self.sim.now - span["ts"]
        self._append(span)

    def complete(
        self,
        name: str,
        cat: str,
        start: float,
        end: Optional[float] = None,
        shard: Optional[int] = None,
        inferlet: Optional[str] = None,
        parent: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a span whose endpoints are both already known."""
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
                "parent": parent,
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
        """Completed events evicted by the ring buffer."""
        return self.total_emitted - len(self._events)

    def events(self, cat: Optional[str] = None) -> List[dict]:
        """Completed events in completion order (optionally one category)."""
        if cat is None:
            return list(self._events)
        return [event for event in self._events if event["cat"] == cat]

    def open_spans(self) -> List[dict]:
        """Spans begun but not yet ended (never subject to eviction)."""
        return list(self._open.values())

    # -- exporters ---------------------------------------------------------

    def _export_events(self) -> Iterable[dict]:
        """Completed events followed by still-open spans.

        Open spans get a provisional duration up to ``sim.now`` and an
        ``open: true`` arg so consumers can tell them from closed ones
        (aborted inferlets leave their lifecycle span open, for example).
        """
        for event in self._events:
            yield event
        for span in self._open.values():
            provisional = dict(span)
            provisional["dur"] = max(0.0, self.sim.now - span["ts"])
            merged = dict(span.get("args") or {})
            merged["open"] = True
            provisional["args"] = merged
            yield provisional

    def export_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the number of lines."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._export_events():
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

        for event in self._export_events():
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
                if event.get("parent") is not None:
                    extra["parent"] = event["parent"]
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
    attribute pre-run wait separately.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        # instance id -> (lifecycle span, admission span)
        self._spans: Dict[str, Tuple[int, int]] = {}

    def note_launch_requested(self, instance) -> None:
        self._spans[instance.instance_id] = (
            self.recorder.begin(
                "inferlet",
                "lifecycle",
                inferlet=instance.instance_id,
                args={"program": instance.program.name, "tenant": instance.tenant},
            ),
            self.recorder.begin("launch", "admission", inferlet=instance.instance_id),
        )

    def note_running(self, instance) -> None:
        self.recorder.end(self._spans[instance.instance_id][1])

    def note_reclaimed(self, victim, requester, shard) -> None:
        self.recorder.instant(
            "reclaim_terminate",
            "sched",
            shard=shard.index,
            inferlet=victim.instance_id,
            args={"requester": requester.instance_id},
        )

    def note_finished(self, instance) -> None:
        lifecycle, admission = self._spans.pop(instance.instance_id, (None, None))
        # The admission span is still open only if the launch never ran.
        outcome = {"terminated": "aborted", "rejected": "rejected"}.get(instance.status, "failed")
        self.recorder.end(admission, args={outcome: True})
        self.recorder.end(lifecycle, args={"status": instance.status})


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
