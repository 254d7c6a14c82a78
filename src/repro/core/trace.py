"""Flight recorder: bounded structured tracing for the control plane.

``SystemMetrics`` answers *how much*; the flight recorder answers *when*
and *why*: control-plane hot points tell :class:`LifecycleTracer`, which
writes spans and instants on the virtual clock — each inferlet's phase
timeline (``repro.core.timeline``) as one span per segment when it leaves —
and a sim-timer sampler records per-shard telemetry time-series (queue
depth, batch token utilization, KV-pool occupancy, link busy fraction).

Design constraints, in order:

1. **Inert when off.**  ``ControlLayerConfig.tracing`` defaults to False
   and no :class:`TraceRecorder` is constructed: the controller's
   ``observers`` hold only the always-built timeline keeper, its ``timers``
   no sampler.  The core only *tells* its observers (the notes of
   :class:`~repro.core.inferlet.LifecycleObserver`).
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
   keeps (an inferlet's ``launched_at``, a batch's dispatch instant, a
   closed timeline's segment).  Nothing is held outside the ring buffer of
   :data:`TRACE_MAX_EVENTS`, which is the whole memory bound; the oldest
   events are evicted first, and a span is either fully present or fully
   evicted.

Exporters produce Chrome/Perfetto ``trace_event`` JSON (load it in
``ui.perfetto.dev`` or ``chrome://tracing``) and a line-delimited JSONL
event log, which :mod:`repro.tools.trace_report` reads back: it sums each
inferlet's phase spans into its stall attribution.
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
    "lifecycle",  # one span per inferlet, launch -> exit
    # an inferlet's phase spans (PHASE_CATEGORY); swap-out/in, migrate instants
    "admission", "queue", "exec", "swap", "transfer", "idle",
    "sched",      # batch spans, reclamation instants
    "net",        # link wire occupancy
    "counter",    # sampler time-series
    "fault",      # relaunch phase spans; shard-down and stream-replan instants
)  # fmt: skip

#: The category of each phase span, by bucket (``repro.core.timeline.BUCKETS``).
PHASE_CATEGORY = dict(
    swap="swap", transfer="transfer", relaunch="fault", prefill="exec", decode="exec",
    compute="exec", queue="queue", admission="admission", decode_gap="idle", other="idle",
)  # fmt: skip


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
    """The trace's view of serving: no module outside this one knows an
    event name, a category or an args layout, and the tracer keeps no state.
    When an inferlet leaves it writes the lifecycle span and one span per
    segment of its closed phase timeline (``repro.core.timeline``), named by
    the bucket; batches, link reservations, swaps, handoffs, reclamations
    and faults are written as they happen."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    # -- an inferlet's life ---------------------------------------------------

    def note_reclaimed(self, victim, requester, shard) -> None:
        self.recorder.instant(
            "reclaim_terminate",
            "sched",
            shard=shard.index,
            inferlet=victim.instance_id,
            args={"requester": requester.instance_id},
        )

    def note_finished(self, instance) -> None:
        """The lifecycle span, then the closed timeline's segments."""
        inferlet, status = instance.instance_id, instance.status
        args = {"program": instance.program.name, "tenant": instance.tenant, "status": status}
        self.recorder.complete(
            "inferlet", "lifecycle", instance.metrics.launched_at, inferlet=inferlet, args=args
        )
        for start, end, bucket in instance.timeline.closed:
            category = PHASE_CATEGORY[bucket]
            self.recorder.complete(bucket, category, start, end=end, inferlet=inferlet)

    # -- a shard's batches ------------------------------------------------------

    def note_batch_done(self, shard_index, batch, dispatched, failed) -> None:
        tokens = batch.total_input_tokens if batch.kind == "forward" else 0
        self.recorder.complete(
            f"batch:{batch.kind}",
            "sched",
            dispatched,
            shard=shard_index,
            args={
                "commands": len(batch.commands),
                "rows": batch.total_rows,
                "tokens": tokens,
                "failed": failed,
            },
        )

    # -- KV pages on the move ---------------------------------------------------

    def note_link_reserved(self, link, start, size) -> None:
        self.recorder.complete(link.name, "net", start, end=link.busy_until, args={"bytes": size})

    def note_swapped(self, kind, shard, owner, pages) -> None:
        self.recorder.instant(kind, "swap", shard=shard.index, inferlet=owner, args={"pages": pages})

    def note_handoff(self, owner, src, dst, stall, landing, tail_pages) -> None:
        self.recorder.instant(
            "migrate",
            "transfer",
            shard=dst.index,
            inferlet=owner,
            args={"src": src.index, "dst": dst.index},
        )

    def note_replanned(self, owner, dead_index, requeued_pages) -> None:
        self.recorder.instant(
            "kv_stream_replan",
            "fault",
            inferlet=owner,
            args={"dead_shard": dead_index, "requeued_pages": requeued_pages},
        )

    # -- the chaos plane --------------------------------------------------------

    def note_shard_down(self, index) -> None:
        self.recorder.instant("shard_down", "fault", shard=index, args={"was": "healthy"})


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
