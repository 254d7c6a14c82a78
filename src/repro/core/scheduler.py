"""The batch scheduler: dispatch policies over the command queues (§5.2, §6.1).

Four policies are provided, matching the paper's Table 5 comparison:

* ``adaptive`` — the paper's work-conserving policy: whenever the GPU is
  idle and any command is pending, immediately form and dispatch the best
  batch (the inference layer notifies the control layer the moment the
  device becomes idle).  §6.1 does not say *which* ready batch is best:
  here a ``forward`` candidate made only of decode steps first yields its
  turn, for at most one weight-bound floor, to the cheaper kinds ready
  beside it (``_forward_yields``); among what is left, one key decides in
  every configuration (:func:`repro.core.batching.select_batch`): a batch
  whose oldest command has waited the aging bound goes first, else the
  best class present, oldest command first.
* ``eager``    — no batching: every command is dispatched on its own.
* ``k_only``   — fixed-size batching: dispatch once some kind has at least
  ``k_threshold`` pending commands (with a safety flush so the system
  cannot stall below the threshold).
* ``t_only``   — timeout batching: dispatch once the oldest pending command
  has waited :data:`T_TIMEOUT_MS`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.core.batching import CandidateBatch, form_candidate_batches, select_batch
from repro.core.command_queue import DEFAULT_RANK, Command, CommandQueue
from repro.core.config import ControlLayerConfig, SchedulerConfig
from repro.core.handlers import ApiHandlers
from repro.core.inferlet import LifecycleObserver
from repro.core.metrics import SystemMetrics
from repro.core.registry import LogHistogram, size_histogram
from repro.gpu.config import GpuConfig
from repro.gpu.device import SimDevice
from repro.sim.latency import milliseconds
from repro.sim.simulator import Simulator

# Table 3 model constants (ms), calibrated and not configurable: the cost of
# forming one batch, and of one control<->inference layer IPC crossing.
BATCH_SCHEDULING_OVERHEAD_MS = 0.050
IPC_CROSSING_MS = 0.006
# Safety flush so the strawman policies (k_only, t_only) cannot deadlock a
# run: whatever is still pending this long after a submit is dispatched.
MAX_WAIT_MS = 50.0
# ``t_only``'s timeout: a batch dispatches once its oldest command waited this long.
T_TIMEOUT_MS = 5.0


@dataclass
class SchedulerStats:
    """Dispatch statistics used by the experiments."""

    batches_dispatched: int = 0
    commands_dispatched: int = 0
    batches_by_kind: Dict[str, int] = field(default_factory=dict)
    # Batch-size distribution in a bounded log-bucketed histogram (was an
    # O(batches) list); ``sum``/``total`` keep the mean exact.
    batch_sizes: LogHistogram = field(default_factory=size_histogram)
    # Forward-batch role composition: decode rows (single-token steps) and
    # prefill rows (multi-token prompts / head slices) dispatched on this
    # shard.  The disaggregation invariant suite reads these to prove
    # prefill-role shards never run a decode row.
    decode_rows_dispatched: int = 0
    prefill_rows_dispatched: int = 0
    # Input tokens carried by dispatched forward batches (decode rows count
    # one each); the telemetry sampler divides deltas of this by the token
    # budget to report batch token utilization per shard.
    forward_tokens_dispatched: int = 0
    # Selection rounds in which the forward candidate gave way to a cheaper
    # kind (``BatchScheduler._forward_yields``), and rounds in which it
    # would have but its hold had reached the bound.
    forward_yields: int = 0
    forward_holds_expired: int = 0

    def record(self, batch: CandidateBatch) -> None:
        self.batches_dispatched += 1
        self.commands_dispatched += len(batch.commands)
        self.batches_by_kind[batch.kind] = self.batches_by_kind.get(batch.kind, 0) + 1
        self.batch_sizes.observe(len(batch.commands))
        self.decode_rows_dispatched += batch.decode_rows
        self.prefill_rows_dispatched += batch.prefill_rows
        if batch.kind == "forward":
            self.forward_tokens_dispatched += batch.total_input_tokens

    @property
    def mean_batch_size(self) -> float:
        return self.batch_sizes.mean


class BatchScheduler:
    """Groups compatible commands into batches and drives the device."""

    def __init__(
        self,
        sim: Simulator,
        device: SimDevice,
        handlers: ApiHandlers,
        scheduler_config: SchedulerConfig,
        gpu_config: GpuConfig,
        control_config: ControlLayerConfig,
        metrics: Optional[SystemMetrics] = None,
        observers: Tuple[LifecycleObserver, ...] = (),
        shard_index: int = 0,
    ) -> None:
        self.sim = sim
        self.device = device
        self.handlers = handlers
        self.config = scheduler_config
        self.gpu_config = gpu_config
        self.control_config = control_config
        # System-wide counters: the one home of the chunk and dropped-
        # command counts (a scheduler built alone gets a record of its own).
        self.metrics = metrics if metrics is not None else SystemMetrics()
        self.stats = SchedulerStats()
        self._queues: Dict[Any, CommandQueue] = {}
        # Incrementally-maintained queue indexes.  With tens of thousands of
        # mostly-idle queues, the per-dispatch scans over ``self._queues``
        # (readiness, owner lookup, pending totals) dominate the control
        # plane; these structures keep each of those O(live work) instead:
        #
        # * ``_queue_order``  — key -> monotonic insertion sequence number,
        #   so index-backed iteration reproduces ``self._queues`` insertion
        #   order bit-for-bit (candidate-kind order and dispatch-order
        #   tie-breaks depend on it).
        # * ``_owner_queues`` — owner -> {key -> queue}, insertion-ordered.
        # * ``_ready``        — key -> queue for queues with pending > 0,
        #   fed by each queue's pending listener.
        # * ``_pending_total``— sum of pending counts across all queues.
        self._queue_seq = itertools.count()
        self._queue_order: Dict[Any, int] = {}
        self._owner_queues: Dict[str, Dict[Any, CommandQueue]] = {}
        self._ready: Dict[Any, CommandQueue] = {}
        self._pending_total = 0
        self._flush_scheduled = False
        self._timeout_flush_armed = False
        # Timer-storm regression guard: number of t_only flush events ever
        # scheduled (tests assert it stays O(flushes), not O(submits)).
        self.timeout_timers_armed = 0
        self._adaptive_dispatch_pending = False
        # Admission guard (tiered KV memory): owners whose pages are swapped
        # out to the host tier must not have commands dispatched until their
        # pages are resident again.  None = admit everyone.
        self._dispatch_guard: Optional[Callable[[str], bool]] = None
        # Called with each successfully completed prefill head slice
        # (disaggregation streams the slice's committed KV pages while the
        # residual is still queued).  None = no observer, zero overhead.
        self._chunk_listener: Optional[Callable[[Command], None]] = None
        # Told of each dispatch, completed batch and dropped command (the
        # controller's observers).
        self.observers = observers
        self._shard_index = shard_index
        # When the forward candidate first yielded its turn since the last
        # forward dispatch (``_forward_yields`` bounds the hold); None while
        # no forward is being held.
        self._forward_held_since: Optional[float] = None
        self.device.on_idle(self._on_device_idle)

    def set_dispatch_guard(self, is_suspended: Optional[Callable[[str], bool]]) -> None:
        """Install a predicate barring suspended owners from dispatch."""
        self._dispatch_guard = is_suspended

    def set_chunk_listener(self, listener: Optional[Callable[[Command], None]]) -> None:
        """Observe completed prefill head slices (KV streaming hook)."""
        self._chunk_listener = listener

    def notify_resumed(self) -> None:
        """Re-run the dispatch trigger after a suspended owner returns.

        The guard may have held back the owner's pending commands; policies
        that only dispatch on submit (``eager``) or on a one-shot timer
        (``t_only``) need an explicit poke, since no further submit may ever
        arrive (``adaptive`` recovers on its own via the swap-in batch's
        idle notification)."""
        if self.total_pending:
            self._policy_on_submit()

    def _dispatchable_queues(self) -> List[CommandQueue]:
        # Only queues with pending commands can contribute to a batch (an
        # empty queue has no ready run), so iterating the readiness index
        # is O(live work) no matter how many idle queues exist.  Sorting by
        # insertion sequence reproduces the old full-scan's ``self._queues``
        # iteration order exactly — candidate-kind ordering and the
        # dispatch order's first-seen tie-break depend on it.
        order = self._queue_order
        queues = sorted(self._ready.values(), key=lambda queue: order[queue.key])
        if self._dispatch_guard is None:
            return queues
        return [queue for queue in queues if not self._dispatch_guard(queue.owner)]

    # -- queue indexes -------------------------------------------------------

    def _index_queue(self, queue: CommandQueue) -> None:
        self._queue_order[queue.key] = next(self._queue_seq)
        self._owner_queues.setdefault(queue.owner, {})[queue.key] = queue
        if queue.pending_count:
            self._ready[queue.key] = queue
        self._pending_total += queue.pending_count
        queue.set_pending_listener(self._on_queue_pending_changed)

    def _unindex_queue(self, queue: CommandQueue) -> None:
        queue.set_pending_listener(None)
        self._queue_order.pop(queue.key, None)
        owner_map = self._owner_queues.get(queue.owner)
        if owner_map is not None:
            owner_map.pop(queue.key, None)
            if not owner_map:
                del self._owner_queues[queue.owner]
        self._ready.pop(queue.key, None)
        self._pending_total -= queue.pending_count

    def _on_queue_pending_changed(self, queue: CommandQueue, delta: int) -> None:
        self._pending_total += delta
        if queue.pending_count:
            self._ready[queue.key] = queue
        else:
            self._ready.pop(queue.key, None)

    # -- queue management ---------------------------------------------------

    def create_queue(
        self, key: Any, model: str, owner: str, priority: int = 0, rank: int = DEFAULT_RANK
    ) -> CommandQueue:
        if key in self._queues:
            raise SchedulingError(f"command queue {key!r} already exists")
        queue = CommandQueue(key=key, model=model, owner=owner, priority=priority, rank=rank)
        self._queues[key] = queue
        self._index_queue(queue)
        return queue

    def get_queue(self, key: Any) -> CommandQueue:
        try:
            return self._queues[key]
        except KeyError:
            raise SchedulingError(f"unknown command queue {key!r}") from None

    def remove_queue(self, key: Any) -> None:
        queue = self._queues.pop(key, None)
        if queue is None:
            return
        self._unindex_queue(queue)
        # Commands still pending when their queue disappears (owner exited
        # or was terminated) are dropped, exactly like commands caught in
        # the delivery window: resolving their futures — and any barrier
        # waiting on them — keeps awaiters and bookkeeping hooked on
        # completion from hanging forever.
        dropped = queue.drain_pending()
        self.metrics.commands_dropped += len(dropped)
        for command in dropped:
            for observer in self.observers:
                observer.note_dropped(self._shard_index, command)
            if not command.future.done():
                command.future.set_result(None)
        for barrier in queue.drain_barriers():
            if not barrier.done():
                barrier.set_result(None)

    def detach_queue(self, key: Any) -> CommandQueue:
        """Remove a queue *without* dropping its state (handoff migration).

        The disaggregation handoff only moves quiescent owners, so the
        detached queue carries no pending commands, in-flight work or
        barriers — but its push and retire watermarks and priority must
        survive the move, which is why this is not remove_queue."""
        queue = self._queues.pop(key, None)
        if queue is None:
            raise SchedulingError(f"unknown command queue {key!r}")
        self._unindex_queue(queue)
        return queue

    def adopt_queue(self, queue: CommandQueue) -> None:
        """Install a queue detached from another shard's scheduler."""
        if queue.key in self._queues:
            raise SchedulingError(f"command queue {queue.key!r} already exists")
        self._queues[queue.key] = queue
        self._index_queue(queue)

    def set_priority(self, key: Any, priority: int) -> None:
        self.get_queue(key).priority = priority

    def queues_for_owner(self, owner: str) -> List[CommandQueue]:
        # Owner index lookup; per-owner insertion order matches the old
        # filtered full scan because queues are only ever appended to both
        # ``self._queues`` and their owner map.
        return list(self._owner_queues.get(owner, {}).values())

    # -- submission -------------------------------------------------------------

    def submit(self, key: Any, command: Command) -> None:
        queue = self.get_queue(key)
        queue.push(command)
        self._policy_on_submit()

    @property
    def total_pending(self) -> int:
        # O(1): maintained by the queues' pending listeners.  Telemetry,
        # router placement and ``notify_resumed`` all read this per event.
        return self._pending_total

    # -- policy hooks --------------------------------------------------------------

    def _policy_on_submit(self) -> None:
        policy = self.config.policy
        if policy == "eager":
            self._dispatch_all_individually()
        elif policy == "adaptive":
            if not self.device.busy:
                self._schedule_adaptive_dispatch()
        elif policy == "k_only":
            self._dispatch_if_threshold_met()
            self._arm_safety_flush()
        elif policy == "t_only":
            self._arm_timeout_flush()
        else:  # pragma: no cover - guarded by PieConfig validation
            raise SchedulingError(f"unknown policy {policy!r}")

    def _on_device_idle(self) -> None:
        delay = self._formation_delay()
        if self.config.policy == "adaptive":
            self._schedule_adaptive_dispatch()
        elif self.config.policy == "k_only":
            self.sim.schedule(delay, self._dispatch_if_threshold_met)
        # eager and t_only dispatch purely on their own triggers.

    def _formation_delay(self) -> float:
        """Time between a dispatch trigger and the batch actually forming.

        The idle notification crosses the inference->control IPC boundary and
        batch formation itself takes time (§6.1); during that window the
        calls triggered by the just-completed batch arrive and join the next
        batch.  Modelling the delay is what makes the adaptive policy
        actually work-conserving instead of dispatching fragments.

        The window is 56 µs and a call arrives
        ``Controller.inference_call_overhead()`` = 10 + 0.3·n µs after it is
        issued, so the promise holds only below 154 live inferlets; past
        that a decode step misses the batch that forms after its sample
        (``tests/test_formation_window.py``, a strict xfail).
        """
        return milliseconds(IPC_CROSSING_MS + BATCH_SCHEDULING_OVERHEAD_MS)

    def _schedule_adaptive_dispatch(self) -> None:
        if self._adaptive_dispatch_pending:
            return
        self._adaptive_dispatch_pending = True
        self.sim.schedule(self._formation_delay(), self._adaptive_dispatch)

    def _adaptive_dispatch(self) -> None:
        self._adaptive_dispatch_pending = False
        if not self.device.busy:
            self._dispatch_best()

    # -- policy implementations -------------------------------------------------------

    def _form_candidates(self) -> Dict[str, CandidateBatch]:
        return form_candidate_batches(
            self._dispatchable_queues(),
            self.gpu_config.max_batch_rows,
            self.gpu_config.max_batch_tokens,
            self.control_config.prefill_chunk_tokens,
            lambda: self.sim.create_future(name="prefill-chunk"),
        )

    def _select(self, candidates: Dict[str, CandidateBatch]) -> Optional[CandidateBatch]:
        if self._forward_yields(candidates):
            candidates = {
                kind: batch for kind, batch in candidates.items() if kind != "forward"
            }
        return select_batch(candidates, self.sim.now)

    def _forward_yields(self, candidates: Dict[str, CandidateBatch]) -> bool:
        """A forward candidate that waiting can improve yields its turn.

        Every forward batch pays the weight-bound floor (the cost model's
        ``forward_seconds(decode_rows=1)``) whatever it carries, so a
        candidate with no whole prompt in it gives way while another kind
        has a candidate:

        * **decode steps only** (``prefill_rows == 0``; adaptive policy):
          the cheaper batches beside it — a 0.1 ms ``embed_text``, a 2 ms
          ``sample`` — sit on other requests' critical paths, and once they
          ran their owners' forwards land and one larger forward follows
          instead of two small ones.  A forward that carries a prompt
          keeps its place on purpose (first-token time; see ARCHITECTURE
          "Which batch goes first").
        * **prefill slices only**: sliced prefills exist to *share* batches
          with decode rows; dispatched between decode rounds they would
          insert an extra floor per round.  They wait for the next mixed
          forward batch — or for an idle device, where they dispatch alone
          and keep a newly arriving inferlet's wait bounded by one chunk.

        Liveness: the dispatch order ages every command, this rule does not, so
        a forward is held for at most that floor between two forward
        dispatches — the floor is the most a merge can save, past it waiting
        cannot pay — and then competes by age again like any other kind.
        """
        forward = candidates.get("forward")
        if forward is None:
            self._forward_held_since = None
            return False
        if len(candidates) == 1:
            return False
        if forward.prefill_rows:
            improvable = all(command.is_chunk for command in forward.commands)
        else:
            improvable = self.config.policy == "adaptive"
        if not improvable:
            return False
        now = self.sim.now
        if self._forward_held_since is None:
            self._forward_held_since = now
        bound = self.handlers.cost_model.forward_seconds(decode_rows=1)
        if now - self._forward_held_since >= bound:
            self.stats.forward_holds_expired += 1
            return False
        self.stats.forward_yields += 1
        return True

    def _dispatch_best(self) -> None:
        batch = self._select(self._form_candidates())
        if batch is not None:
            self._dispatch(batch)

    def _dispatch_all_individually(self) -> None:
        for queue in self._dispatchable_queues():
            while queue.pending_count:
                run = queue.ready_runs(1)[0]  # the queue's head
                self._dispatch(CandidateBatch(kind=run[0].kind, commands=run))

    def _dispatch_if_threshold_met(self) -> None:
        while True:
            candidates = self._form_candidates()
            eligible = {
                kind: batch
                for kind, batch in candidates.items()
                if len(batch) >= self.config.k_threshold
            }
            batch = self._select(eligible)
            if batch is None:
                return
            self._dispatch(batch)

    def _arm_safety_flush(self) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        self.sim.schedule(milliseconds(MAX_WAIT_MS), self._safety_flush)

    def _safety_flush(self) -> None:
        self._flush_scheduled = False
        if self.total_pending:
            self._dispatch_best()
            self._arm_safety_flush()

    def _arm_timeout_flush(self, delay_seconds: Optional[float] = None) -> None:
        # One armed timer at a time, keyed to the oldest pending command:
        # arming on every submit (the old behaviour) scheduled a sim event
        # per command and turned a busy t_only deployment into a timer
        # storm.  A single timer fires no later than the unconditional
        # per-submit one would have, and re-arms itself for the next oldest
        # command after each flush.
        if self._timeout_flush_armed:
            return
        self._timeout_flush_armed = True
        self.timeout_timers_armed += 1
        if delay_seconds is None:
            delay_seconds = milliseconds(T_TIMEOUT_MS)
        self.sim.schedule(delay_seconds, self._timeout_flush)

    def _timeout_flush(self) -> None:
        self._timeout_flush_armed = False
        now = self.sim.now
        deadline = milliseconds(T_TIMEOUT_MS)
        candidates = self._form_candidates()
        ripe = {
            kind: batch
            for kind, batch in candidates.items()
            if now - batch.oldest_issue_time >= deadline - 1e-12
        }
        batch = self._select(ripe)
        if batch is not None:
            self._dispatch(batch)
        if self.total_pending:
            # Re-arm for the oldest command that could actually dispatch;
            # with every pending owner suspended (dispatch guard), poll a
            # full deadline out instead of spinning at delay zero.
            pending_times = [
                queue.oldest_pending_time
                for queue in self._dispatchable_queues()
                if queue.pending_count
            ]
            if pending_times and batch is None and now - min(pending_times) >= deadline - 1e-12:
                # Everything ripe was unformable this round (e.g. blocked
                # by conflicts); retry a full deadline later, not now.
                self._arm_timeout_flush()
            elif pending_times:
                self._arm_timeout_flush(max(0.0, min(pending_times) + deadline - now))
            else:
                self._arm_timeout_flush()

    # -- dispatch --------------------------------------------------------------------------

    def _dispatch(self, batch: CandidateBatch) -> None:
        # Head slices of chunked prefills are not queue residents: their
        # residual stays in its queue as a fence (so later commands keep
        # their order and synchronize barriers wait for one command), and
        # only the slice itself ships with this batch.
        chunks = [command for command in batch.commands if command.is_chunk]
        whole = [command for command in batch.commands if not command.is_chunk]
        for queue_key, run in self._group_by_queue(whole).items():
            self.get_queue(queue_key).pop_commands(run)
        for chunk in chunks:
            chunk.parent.take_chunk(chunk, self.sim.now)
        if chunks:
            self._record_chunks(batch, chunks)
        for observer in self.observers:
            observer.note_dispatched(self._shard_index, whole + chunks)
        self.stats.record(batch)
        if batch.kind == "forward":
            self._forward_held_since = None
        cost = self.handlers.batch_cost_seconds(batch.kind, batch.commands)
        cost += milliseconds(BATCH_SCHEDULING_OVERHEAD_MS)
        cost += milliseconds(IPC_CROSSING_MS)
        future = self.device.submit(
            kind=batch.kind,
            run=lambda batch=batch: self.handlers.execute_batch(batch.kind, batch.commands),
            cost_seconds=cost,
            size=len(batch.commands),
        )
        future.add_done_callback(
            lambda fut, batch=batch, dispatched=self.sim.now: self._on_batch_done(
                batch, fut, dispatched
            )
        )

    def _record_chunks(self, batch: CandidateBatch, chunks: List[Command]) -> None:
        """Account one batch that carries sliced-prefill head chunks.

        The stall saved is the modeled time each co-batched decode row
        would otherwise have spent waiting for the sliced prompts' *still
        remaining* tokens — the residual's ``input_tokens`` after the slice
        was taken, charged at the prefill rate."""
        decode_rows = batch.decode_rows
        remaining = sum(chunk.parent.input_tokens for chunk in chunks)
        saved = decode_rows * self.handlers.cost_model.prefill_token_seconds(remaining)
        self.metrics.prefill_chunks_dispatched += len(chunks)
        self.metrics.decode_rows_co_batched += decode_rows
        self.metrics.chunk_stall_saved_seconds += saved

    @staticmethod
    def _group_by_queue(commands: List[Command]) -> Dict[Any, List[Command]]:
        grouped: Dict[Any, List[Command]] = {}
        for command in commands:
            grouped.setdefault(command.queue_key, []).append(command)
        return grouped

    def _on_batch_done(self, batch: CandidateBatch, future, dispatched: float) -> None:
        error = future.exception()
        results = future.result() if error is None else None
        for observer in self.observers:
            observer.note_batch_done(self._shard_index, batch, dispatched, error is not None)
        for index, command in enumerate(batch.commands):
            if command.is_chunk:
                # A head slice completes *silently*: its residual is still
                # pending, so queue accounting (inflight counts, barriers)
                # and the caller's future wait for the final slice.  A
                # failing slice, though, fails the whole forward now — the
                # residual would only compound the damage.
                failure = error
                if failure is None and isinstance(results[index], BaseException):
                    failure = results[index]
                if failure is not None:
                    if not command.parent.future.done():
                        command.parent.future.set_exception(failure)
                    # Drop the residual too: its KV now has a hole where
                    # the failed slice's tokens never committed, so every
                    # further slice would waste device time building on
                    # corrupt context.
                    queue = self._queues.get(command.queue_key)
                    if queue is not None and queue.drop(command.parent):
                        for observer in self.observers:
                            observer.note_dropped(self._shard_index, command.parent)
                if not command.future.done():
                    if failure is not None:
                        command.future.set_exception(failure)
                    else:
                        command.future.set_result(results[index])
                if failure is None and self._chunk_listener is not None:
                    self._chunk_listener(command)
                continue
            queue = self._queues.get(command.queue_key)
            if queue is not None:
                queue.mark_completed(command)
            if command.future.done():
                continue
            if error is not None:
                command.future.set_exception(error)
            elif isinstance(results[index], BaseException):
                command.future.set_exception(results[index])
            else:
                command.future.set_result(results[index])

