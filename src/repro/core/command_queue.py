"""Commands and command queues (§4.1).

A :class:`Command` is one inference-layer API call after virtual-to-physical
resource translation.  A :class:`CommandQueue` is the logical sequence of
commands issued by an inferlet on one ``Queue`` handle: commands on the same
queue execute in issue order, which is what makes dependencies unambiguous
for the batch scheduler.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional

from repro.errors import SchedulingError
from repro.sim.futures import SimFuture

_command_ids = itertools.count(1)

#: Command kinds that the inference layer knows how to execute.
COMMAND_KINDS = (
    "embed_text",
    "embed_image",
    "forward",
    "sample",
    "copy_kv",
    "copy_emb",
    "mask_kv",
    "clear_kv",
    "dealloc_kv",
    "dealloc_emb",
)


@dataclass
class Command:
    """One inference-layer operation, ready to be batched and executed."""

    kind: str
    inferlet_id: str
    payload: Dict[str, Any]
    future: SimFuture
    issue_time: float
    queue_key: Any = None
    priority: int = 0
    rows: int = 1
    input_tokens: int = 0
    context_tokens: int = 0
    # What the command writes, as ``("kv", pid)`` / ``("emb", eid)`` pairs:
    # write-write conflicts are the only hazard batch formation checks.
    writes: FrozenSet = frozenset()
    # Chunked prefill (repro.core.batching): a head-slice command carries a
    # reference to the queue-resident original it was sliced from.  The
    # original (the *residual*) keeps shrinking in place as chunks are
    # taken, so its ``input_tokens`` is always the true remaining work.
    parent: Optional["Command"] = None
    chunks_taken: int = 0
    # Flight recorder (repro.core.trace): id of this command's open
    # queue-wait span, None with tracing off.  Pure bookkeeping — nothing
    # on the serving path reads it.
    trace_span: Optional[int] = None
    command_id: int = field(default_factory=lambda: next(_command_ids))

    def conflicts_with(self, other: "Command") -> bool:
        """Write-write conflicts prevent two commands from sharing a batch."""
        return bool(self.writes & other.writes)

    @property
    def is_decode_row(self) -> bool:
        """A single-token forward that is no piece of a chunked prefill
        (head slices carry ``parent``; the worn-down final residual carries
        ``chunks_taken``) — the classifier batch accounting and the trace
        exec spans share."""
        return (
            self.input_tokens <= 1 and self.parent is None and self.chunks_taken == 0
        )

    # -- chunked prefill ----------------------------------------------------

    @property
    def is_chunk(self) -> bool:
        return self.parent is not None

    def plan_chunk(self, n_tokens: int, future: SimFuture) -> "Command":
        """Create a head-slice command for the first ``n_tokens`` inputs.

        Planning is *pure*: the residual (``self``) is untouched until the
        batch is actually dispatched (``take_chunk``), so candidate batches
        that lose the selection round leave no trace.  The slice inherits
        the residual's issue time (aging and longest-waiting selection see
        the original command's wait), priority, and write set (so
        conflict rules treat the slice exactly like the whole command).

        The slice's attention is charged against the context *accumulated
        so far*: the residual's ``context_tokens`` is a page-capacity bound
        covering both prior content and the whole remaining prompt, so
        subtracting the still-uncommitted ``input_tokens`` leaves the prior
        content plus what earlier slices have already committed.  Chunking
        therefore re-pays the read of the growing context on every slice —
        a modeled cost, never a discount.
        """
        if n_tokens < 1 or n_tokens >= self.input_tokens:
            raise SchedulingError(
                f"invalid chunk of {n_tokens} tokens from a "
                f"{self.input_tokens}-token forward"
            )
        return Command(
            kind=self.kind,
            inferlet_id=self.inferlet_id,
            payload={},
            future=future,
            issue_time=self.issue_time,
            queue_key=self.queue_key,
            priority=self.priority,
            rows=1,
            input_tokens=n_tokens,
            context_tokens=max(0, self.context_tokens - self.input_tokens),
            writes=self.writes,
            parent=self,
        )

    def take_chunk(self, head: "Command", now: float) -> None:
        """Apply a planned split at dispatch time.

        The head slice receives the first ``head.input_tokens`` input
        embeddings (and never the output-hidden slots or an explicit write
        offset — KV commits through the handler's auto-offset, which lands
        each chunk's tokens after the ones committed so far).  The residual
        keeps everything else and *stays at the queue head*, preserving
        vertical-batching order; its attention estimate grows by the tokens
        the head will have committed by the time the residual runs.

        The residual's wait clock restarts at ``now``: it just received a
        slice of service, so for longest-waiting selection, t_only ripeness
        and QoS aging it counts as freshly re-arrived.  Without this reset
        the residual stays the oldest command in the system and the forward
        kind wins every selection round, starving the embed/sample batches
        the co-running decodes need — the exact head-of-line blocking
        chunking is meant to remove, re-created one layer up.
        """
        if head.parent is not self:
            raise SchedulingError("chunk applied to a command it was not sliced from")
        n = head.input_tokens
        iemb = self.payload["iemb"]
        if not 0 < n < len(iemb):
            raise SchedulingError("chunk no longer fits its residual command")
        head.payload = dict(self.payload, iemb=iemb[:n], oemb=[], okv_offset=None)
        self.payload["iemb"] = iemb[n:]
        self.input_tokens = len(self.payload["iemb"])
        # ``context_tokens`` stays put: it is the page-capacity estimate of
        # the gathered context, which already upper-bounds the tokens the
        # earlier slices will have committed — every slice is charged its
        # attention term against that accumulated-context bound.
        self.chunks_taken += 1
        self.issue_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Command #{self.command_id} {self.kind} from {self.inferlet_id}>"


class CommandQueue:
    """Scheduler-side state for one inferlet ``Queue`` handle."""

    def __init__(self, key: Any, model: str, owner: str, priority: int = 0) -> None:
        self.key = key
        self.model = model
        self.owner = owner
        self.priority = priority
        self._pending: Deque[Command] = deque()
        self._inflight: int = 0
        self._barrier_futures: List[tuple] = []  # (remaining_count, future)
        self._issued = 0
        self._completed = 0
        # Scheduler readiness/pending index hook: called with the signed
        # pending-count delta after every mutation, so the scheduler can
        # maintain O(1) aggregates instead of scanning all queues.
        self._pending_listener: Optional[Callable[["CommandQueue", int], None]] = None

    def set_pending_listener(
        self, listener: Optional[Callable[["CommandQueue", int], None]]
    ) -> None:
        self._pending_listener = listener

    def _pending_changed(self, delta: int) -> None:
        if delta and self._pending_listener is not None:
            self._pending_listener(self, delta)

    # -- issue / dispatch ----------------------------------------------------

    def push(self, command: Command) -> None:
        command.queue_key = self.key
        # Snapshot only: batch formation re-reads the live queue priority
        # (repro.core.batching.form_candidate_batches), so set_queue_priority
        # after enqueue still affects already-queued commands.
        command.priority = self.priority
        self._pending.append(command)
        self._issued += 1
        self._pending_changed(1)

    def head_run(self, max_commands: int) -> List[Command]:
        """Return the longest batchable prefix of pending commands.

        This implements *vertical batching*: consecutive commands of the
        same kind at the head of the queue that do not write-write conflict
        with each other.
        """
        run: List[Command] = []
        # Accumulated write set of the run so far: checking each candidate
        # against it by intersection is equivalent to pairwise
        # ``conflicts_with`` (write-write only) without the O(n^2) scan.
        run_writes: set = set()
        for command in self._pending:
            if len(run) >= max_commands:
                break
            if run and command.kind != run[0].kind:
                break
            if command.writes & run_writes:
                break
            run.append(command)
            run_writes |= command.writes
        return run

    def pop_commands(self, commands: List[Command]) -> None:
        """Remove dispatched commands (must be a prefix of the queue)."""
        popped = 0
        for command in commands:
            if not self._pending or self._pending[0] is not command:
                if popped:
                    self._pending_changed(-popped)
                raise SchedulingError("dispatched commands must form a queue prefix")
            self._pending.popleft()
            self._inflight += 1
            popped += 1
        self._pending_changed(-popped)

    def drop_head(self, command: Command) -> bool:
        """Abandon a pending head command (a forward whose slice failed).

        Removes it without dispatching and credits any synchronize
        barriers counting it, exactly as completion would — the caller has
        already delivered the failure through the command's future."""
        if not self._pending or self._pending[0] is not command:
            return False
        self._pending.popleft()
        self._completed += 1
        self._pending_changed(-1)
        self._resolve_barriers()
        return True

    def drain_pending(self) -> List[Command]:
        """Remove and return every still-pending command (queue teardown)."""
        drained = list(self._pending)
        self._pending.clear()
        self._pending_changed(-len(drained))
        return drained

    def drain_barriers(self) -> List[SimFuture]:
        """Remove and return every synchronize barrier (queue teardown)."""
        drained = [entry[1] for entry in self._barrier_futures]
        self._barrier_futures = []
        return drained

    def mark_completed(self) -> None:
        """One dispatched command retired (each barrier counts it once)."""
        self._inflight -= 1
        self._completed += 1
        if self._inflight < 0:
            raise SchedulingError("completed more commands than were dispatched")
        self._resolve_barriers()

    # -- synchronization ---------------------------------------------------------

    def synchronize(self, future: SimFuture) -> None:
        """Resolve ``future`` once all currently issued commands complete."""
        outstanding = len(self._pending) + self._inflight
        if outstanding == 0:
            future.set_result(None)
            return
        self._barrier_futures.append([outstanding, future])

    def _resolve_barriers(self) -> None:
        still_waiting = []
        for entry in self._barrier_futures:
            entry[0] -= 1
            if entry[0] <= 0:
                if not entry[1].done():
                    entry[1].set_result(None)
            else:
                still_waiting.append(entry)
        self._barrier_futures = still_waiting

    # -- inspection ---------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def inflight_count(self) -> int:
        return self._inflight

    @property
    def oldest_pending_time(self) -> Optional[float]:
        return self._pending[0].issue_time if self._pending else None

    @property
    def issued(self) -> int:
        return self._issued

    @property
    def completed(self) -> int:
        return self._completed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CommandQueue {self.key} model={self.model} pending={self.pending_count} "
            f"inflight={self._inflight}>"
        )
