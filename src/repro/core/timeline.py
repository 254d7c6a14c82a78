"""One phase timeline per inferlet: where its launch-to-exit time went.

Every controller builds a :class:`TimelineKeeper`, first among its
observers.  It keeps each live inferlet's :class:`Timeline`
(``InferletInstance.timeline``), ``(t, phase)`` marks each holding until
the next, written at the notes that carry the facts: admission (launch to
``note_running``) and each exec (``note_dispatched`` to ``note_batch_done``)
are live counts; a queue wait (from the command's ``issue_time``, at its
dispatch or drop), a swap stall and a relaunch (from the crash) are windows
ending now; a KV stream and a handoff are transfer windows ending ahead.

**The ranking rule.**  An instant belongs to the highest-ranked activity
covering it, in the order of :data:`PHASES` — swap > transfer > relaunch >
prefill > decode > compute > queue > admission — or is idle.  A window
takes only the segments it outranks, so the order facts arrive in does not
matter.  At ``note_finished`` the timeline closes: idle time between the
first exec end and the last exec start (execs still in flight count) is
``decode_gap``, the rest ``other``; the totals go on
``InferletMetrics.stall_buckets``, the segments (which tile launch to exit)
stay in :attr:`Timeline.closed` for the observers told next, and the marks
are dropped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.inferlet import LifecycleObserver

#: Every phase, strongest claim first (the ranking rule).
PHASES = (
    "swap", "transfer", "relaunch", "prefill", "decode", "compute", "queue", "admission", "idle"
)  # fmt: skip
SWAP, TRANSFER, RELAUNCH, PREFILL, DECODE, COMPUTE, QUEUE, ADMISSION, IDLE = range(len(PHASES))

#: The buckets a closed timeline reports, by phase: idle time splits in two.
BUCKETS = PHASES[:IDLE] + ("decode_gap", "other")


def exec_phase(command) -> int:
    """A one-token forward row decodes, other forward rows prefill, the rest compute."""
    if command.kind != "forward":
        return COMPUTE
    return DECODE if command.is_decode_row else PREFILL


class Timeline:
    """One inferlet's marks from launch to now, and the live state the
    next mark is read from."""

    def __init__(self, launched_at: float) -> None:
        self.marks: Optional[List[Tuple[float, int]]] = [(launched_at, ADMISSION)]
        self.admitting = True
        self.running = [0, 0, 0]  # execs in flight: prefill, decode, compute
        self.transfer_until: Optional[float] = None  # while it lies ahead
        # For the idle split: the extent of the execs done (those of positive
        # length), and since when an exec has run without a break.
        self.first_exec_end: Optional[float] = None
        self.last_exec_start: Optional[float] = None
        self.busy_since = launched_at
        #: ``(start, end, bucket)`` per segment, from :meth:`close` on.
        self.closed: Tuple[Tuple[float, float, str], ...] = ()

    def _phase_now(self) -> int:
        """The phase from now on (after :meth:`_advance`)."""
        if self.transfer_until is not None:
            return TRANSFER
        prefill, decode, compute = self.running
        if prefill:
            return PREFILL
        if decode:
            return DECODE
        if compute:
            return COMPUTE
        return ADMISSION if self.admitting else IDLE

    def _mark(self, t: float, phase: int) -> None:
        """``phase`` holds from ``t`` (never before the last mark) on: a
        zero-length segment is replaced, equal neighbours merge."""
        marks = self.marks
        last_t, last_phase = marks[-1]
        if last_phase == phase:
            return
        if last_t == t:
            marks.pop()
            if marks and marks[-1][1] == phase:
                return
        marks.append((t, phase))

    def _advance(self, now: float) -> None:
        """Mark where a transfer window passed since the last note ended."""
        until = self.transfer_until
        if until is not None and until <= now:
            self.transfer_until = None
            self._mark(until, self._phase_now())

    def window(self, start: float, now: float, phase: int) -> None:
        """``phase`` held from ``start`` to now: it takes the segments it
        outranks, in place."""
        self._advance(now)
        marks = self.marks
        index, taken = len(marks) - 1, False
        while start < now:  # back from the last mark, over the window
            t, held = marks[index]
            if held > phase and t < now:
                if t < start:  # the segment's head, before the window, keeps its phase
                    marks.insert(index + 1, (start, phase))
                else:
                    marks[index] = (t, phase)
                taken = True
            if t <= start or not index:
                break
            index -= 1
        if taken:  # merge equal neighbours
            index = max(index, 1)
            while index < len(marks):
                if marks[index][1] == marks[index - 1][1]:
                    del marks[index]
                else:
                    index += 1
        self._mark(now, self._phase_now())

    # -- what the keeper writes ------------------------------------------------

    def admitted(self, now: float) -> None:
        self._advance(now)
        self.admitting = False
        self._mark(now, self._phase_now())

    def dispatched(self, now: float, issued: float, phase: int) -> None:
        """A command issued at ``issued`` waited in its queue until now and
        runs from now, as ``phase``."""
        self.window(issued, now, QUEUE)
        if not any(self.running):
            self.busy_since = now
        self.running[phase - PREFILL] += 1
        self._mark(now, self._phase_now())

    def done(self, now: float, dispatched: float, phase: int) -> None:
        self._advance(now)
        self.running[phase - PREFILL] -= 1
        if dispatched < now:
            self.first_exec_end = self.first_exec_end or now
            self.last_exec_start = max(dispatched, self.last_exec_start or dispatched)
        self._mark(now, self._phase_now())

    def transfer(self, now: float, until: float) -> None:
        self._advance(now)
        if until > now:
            self.transfer_until = max(until, self.transfer_until or until)
            self._mark(now, TRANSFER)

    def close(self, now: float) -> Dict[str, float]:
        """Keep the segments in :attr:`closed`, drop the marks, return the totals."""
        self._advance(now)
        first_end, last_start = self.first_exec_end, self.last_exec_start
        if any(self.running) and self.busy_since < now:
            # Execs cover busy_since to the exit, one starting at busy_since:
            # every idle segment ends before the last exec start.
            first_end, last_start = first_end or now, now
        marks, self.marks = self.marks, None
        totals = [0.0] * len(BUCKETS)
        closed = []
        for (t, phase), (end, _) in zip(marks, marks[1:] + [(now, IDLE)]):
            if end <= t:
                continue
            if phase == IDLE:  # decode_gap between execs, else other
                between = first_end is not None and first_end <= t and end <= last_start
                phase = IDLE if between else IDLE + 1
            totals[phase] += end - t
            closed.append((t, end, BUCKETS[phase]))
        self.closed = tuple(closed)
        return dict(zip(BUCKETS, totals))


class TimelineKeeper(LifecycleObserver):
    """Keeps every live inferlet's :class:`Timeline`, from
    ``note_launch_requested`` to ``note_finished``; a note about an
    inferlet that has left changes nothing."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._live: Dict[str, Timeline] = {}

    def note_launch_requested(self, instance) -> None:
        instance.timeline = Timeline(instance.metrics.launched_at)
        self._live[instance.instance_id] = instance.timeline

    def note_running(self, instance) -> None:
        self._live[instance.instance_id].admitted(self.sim.now)

    def note_finished(self, instance) -> None:
        timeline = self._live.pop(instance.instance_id, None)
        if timeline is not None:  # told once per exit, or again by a second retire
            instance.metrics.stall_buckets = timeline.close(self.sim.now)

    def note_dispatched(self, shard_index, commands) -> None:
        now = self.sim.now
        for command in commands:
            timeline = self._live.get(command.inferlet_id)
            if timeline is not None:
                timeline.dispatched(now, command.issue_time, exec_phase(command))

    def note_batch_done(self, shard_index, batch, dispatched, failed) -> None:
        for command in batch.commands:
            timeline = self._live.get(command.inferlet_id)
            if timeline is not None:
                timeline.done(self.sim.now, dispatched, exec_phase(command))

    def note_dropped(self, shard_index, command) -> None:
        self._window(command.inferlet_id, command.issue_time, QUEUE)

    def note_swap_stall(self, instance, started) -> None:
        self._window(instance.instance_id, started, SWAP)

    def note_relaunched(self, instance, dead, dst, embeds) -> None:
        self._window(instance.instance_id, dead.device.down_since, RELAUNCH)

    def note_kv_streamed(self, owner, src_index, dst_index, pages, size, arrival) -> None:
        self._transfer(owner, arrival)

    def note_handoff(self, owner, src, dst, stall, landing, tail_pages) -> None:
        self._transfer(owner, self.sim.now + stall + landing)

    def _window(self, inferlet: str, start: float, phase: int) -> None:
        timeline = self._live.get(inferlet)
        if timeline is not None:
            timeline.window(start, self.sim.now, phase)

    def _transfer(self, inferlet: str, until: float) -> None:
        timeline = self._live.get(inferlet)
        if timeline is not None:
            timeline.transfer(self.sim.now, until)
