"""Commands and command queues (§4.1).

A :class:`Command` is one inference-layer API call after virtual-to-physical
resource translation.  A :class:`CommandQueue` is the logical sequence of
commands issued by an inferlet on one ``Queue`` handle: commands on a queue
take effect in issue order: two that touch the same page or slot run in that
order, and independent ones may share a batch.  Each command names what it
reads and writes, which is what makes dependencies unambiguous for the batch
scheduler.  ``synchronize`` barriers and deallocations are no commands: both
wait at the queue's issue watermark, and a freed page or slot goes back to its
pool the moment its last earlier reader on the queue retires.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SchedulingError
from repro.core.qos import CLASS_RANK, DEFAULT_CLASS
from repro.sim.futures import SimFuture

_command_ids = itertools.count(1)

#: What each command kind the inference layer executes reads and writes:
#: ``(read fields, write fields)``, each field a ``(payload field, space)``
#: pair whose payload value is one physical id or a list of them, in the
#: ``"kv"`` page space or the ``"emb"`` slot space.
ACCESS: Dict[str, tuple] = {
    "embed_text": ((), (("emb_slots", "emb"),)),
    "embed_image": ((), (("emb_slots", "emb"),)),
    "forward": ((("ikv", "kv"), ("iemb", "emb")), (("okv", "kv"), ("oemb", "emb"))),
    "sample": ((("emb_slots", "emb"),), ()),
    "copy_kv": ((("src", "kv"),), (("dst", "kv"),)),
    "copy_emb": ((("src", "emb"),), (("dst", "emb"),)),
    "mask_kv": ((), (("page", "kv"),)),
    "clear_kv": ((), (("page", "kv"),)),
}

#: Command kinds that the inference layer knows how to execute.
COMMAND_KINDS = tuple(ACCESS)


def ids_of(value: Any) -> List[int]:
    """A payload field's physical ids: its list, or its one id."""
    return value if isinstance(value, list) else [value]


def access(kind: str, payload: Dict[str, Any]) -> Tuple[FrozenSet, FrozenSet]:
    """The ``("kv", pid)`` / ``("emb", eid)`` pairs a ``kind`` command with
    this payload reads, and the ones it writes."""
    read_fields, write_fields = ACCESS[kind]
    return (
        frozenset([(space, i) for name, space in read_fields for i in ids_of(payload[name])]),
        frozenset([(space, i) for name, space in write_fields for i in ids_of(payload[name])]),
    )


#: Class rank of a queue built without an owner's class (the default one's).
DEFAULT_RANK = CLASS_RANK[DEFAULT_CLASS]


@dataclass
class Command:
    """One inference-layer operation, ready to be batched and executed."""

    kind: str
    inferlet_id: str
    payload: Dict[str, Any]
    future: SimFuture
    issue_time: float
    queue_key: Any = None
    # Class rank of the owner's tenant (``CommandQueue.rank``): batch merging
    # and dispatch serve a lower rank first.
    rank: int = DEFAULT_RANK
    rows: int = 1
    input_tokens: int = 0
    context_tokens: int = 0
    # What the command reads and writes, as ``("kv", pid)`` / ``("emb", eid)``
    # pairs (:func:`access`).  A queue orders two of its commands only when
    # one writes what the other touches; across queues only write-write
    # conflicts count.
    reads: FrozenSet = frozenset()
    writes: FrozenSet = frozenset()
    # Position in its queue's issue order (``CommandQueue.issue``); the
    # synchronize barrier waits on it.  None until issued.
    queue_seq: Optional[int] = None
    # Chunked prefill (repro.core.batching): a head-slice command carries a
    # reference to the queue-resident original it was sliced from.  The
    # original (the *residual*) keeps shrinking in place as chunks are
    # taken, so its ``input_tokens`` is always the true remaining work.
    parent: Optional["Command"] = None
    chunks_taken: int = 0
    command_id: int = field(default_factory=lambda: next(_command_ids))

    def conflicts_with(self, other: "Command") -> bool:
        """Write-write conflicts prevent two commands from sharing a batch."""
        return bool(self.writes & other.writes)

    @property
    def is_decode_row(self) -> bool:
        """A single-token forward that is no piece of a chunked prefill
        (head slices carry ``parent``; the worn-down final residual carries
        ``chunks_taken``) — the classifier batch accounting and the phase
        timeline share."""
        return (
            self.input_tokens <= 1 and self.parent is None and self.chunks_taken == 0
        )

    # -- chunked prefill ----------------------------------------------------

    @property
    def is_chunk(self) -> bool:
        return self.parent is not None

    @property
    def is_fence(self) -> bool:
        """A chunked prefill's residual: it batches only from its queue's
        head, and nothing issued after it passes it.  Every other command
        names all it reads and writes, so the queue orders it by those."""
        return self.chunks_taken > 0

    def plan_chunk(self, n_tokens: int, future: SimFuture) -> "Command":
        """Create a head-slice command for the first ``n_tokens`` inputs.

        Planning is *pure*: the residual (``self``) is untouched until the
        batch is actually dispatched (``take_chunk``), so candidate batches
        that lose the selection round leave no trace.  The slice inherits
        the residual's issue time (aging and oldest-first selection see
        the original command's wait), class rank and write set (so
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
            rank=self.rank,
            rows=1,
            input_tokens=n_tokens,
            context_tokens=max(0, self.context_tokens - self.input_tokens),
            reads=self.reads,
            writes=self.writes,
            parent=self,
        )

    def take_chunk(self, head: "Command", now: float) -> None:
        """Apply a planned split at dispatch time.

        The head slice receives the first ``head.input_tokens`` input
        embeddings (and never the output-hidden slots or an explicit write
        offset — KV commits through the handler's auto-offset, which lands
        each chunk's tokens after the ones committed so far).  The residual
        keeps everything else and *stays in its queue* as a fence
        (:attr:`is_fence`), so nothing issued after it passes it; its
        attention estimate grows by the tokens the head will have committed
        by the time the residual runs.

        The residual's wait clock restarts at ``now``: it just received a
        slice of service, so for oldest-first selection, t_only ripeness
        and the aging bound it counts as freshly re-arrived.  Without this
        reset the residual stays the oldest command in the system and the forward
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
    """Scheduler-side state for one inferlet ``Queue`` handle.

    ``rank`` is the owner's class rank, stamped once at creation from the
    tenant's spec (which is never replaced); the queue object carries it
    across a handoff."""

    def __init__(
        self, key: Any, model: str, owner: str, priority: int = 0, rank: int = DEFAULT_RANK
    ) -> None:
        self.key = key
        self.model = model
        self.owner = owner
        self.priority = priority
        self.rank = rank
        self._pending: Deque[Command] = deque()
        self._inflight: int = 0
        # Barriers and held deallocations as ``(watermark, settle)``,
        # watermarks non-decreasing: ``settle(True)`` runs once every command
        # issued before it (``queue_seq < watermark``) has retired,
        # ``settle(False)`` if the queue is torn down first.
        self._barriers: Deque[tuple] = deque()
        self._issued = 0
        # Every command with a lower ``queue_seq`` has retired; the ones above
        # it that retired early (a later, independent batch) wait in the set.
        self._retired_below = 0
        self._retired_early: Set[int] = set()
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

    def issue(self, command: Command) -> None:
        """Number ``command`` in issue order: from now on every barrier and
        deallocation issued after it waits for it, although it becomes
        pending (:meth:`push`) only when its call overhead has elapsed."""
        command.queue_seq = self._issued
        self._issued += 1

    def push(self, command: Command) -> None:
        """An issued command arrives and is pending."""
        if command.queue_seq is None:  # no barrier would count it
            raise SchedulingError(f"{command!r} was pushed without being issued")
        command.queue_key = self.key
        command.rank = self.rank
        self._pending.append(command)
        self._pending_changed(1)

    def ready_runs(self, max_commands: int) -> List[List[Command]]:
        """*Vertical batching*: one run per command kind this queue has ready.

        A kind's run is every pending command of that kind, in queue order,
        with no read-after-write, write-after-read or write-after-write
        hazard with an earlier pending command left out of the run, and no
        write-write conflict with the run itself (a batch holds none), up to
        ``max_commands``.  A fence (:attr:`Command.is_fence`) joins a run
        only when every command before it is in that run, and from it on
        only that run grows, by consecutive commands: nothing passes it.
        On a chain — each command in a hazard with the one before it — this
        is the longest same-kind conflict-free prefix of the queue.  Runs
        come in the order their kinds first appear, the head's first.
        """
        pending = self._pending
        if len(pending) < 2:
            return [list(pending)] if pending else []
        head = pending[0]
        # kind -> [run, what its commands read, what they write]
        runs: Dict[str, list] = {head.kind: [[head], head.reads, head.writes]}
        # What the commands left out of their own kind's run read and write.
        out_reads = out_writes = frozenset()
        left_out = False
        fenced = head.is_fence
        for command in itertools.islice(pending, 1, None):
            kind = command.kind
            entry = runs.get(kind)
            reads, writes = command.reads, command.writes
            if fenced or command.is_fence:
                fenced = True
                if (
                    left_out
                    or entry is None
                    or len(runs) > 1
                    or len(entry[0]) >= max_commands
                    or not writes.isdisjoint(entry[2])
                ):
                    break
            else:
                joins = not left_out or (
                    reads.isdisjoint(out_writes)
                    and writes.isdisjoint(out_writes)
                    and writes.isdisjoint(out_reads)
                )
                if joins:
                    for other, (run, run_reads, run_writes) in runs.items():
                        if other == kind:
                            joins = len(run) < max_commands and writes.isdisjoint(run_writes)
                        else:
                            joins = (
                                reads.isdisjoint(run_writes)
                                and writes.isdisjoint(run_writes)
                                and writes.isdisjoint(run_reads)
                            )
                        if not joins:
                            break
                if not joins:
                    if left_out:
                        out_reads = out_reads | reads
                        out_writes = out_writes | writes
                    else:
                        left_out = True
                        out_reads, out_writes = reads, writes
                    continue
            if entry is None:
                runs[kind] = [[command], reads, writes]
            else:
                entry[0].append(command)
                entry[1] = entry[1] | reads
                entry[2] = entry[2] | writes
        return [entry[0] for entry in runs.values()]

    def pop_commands(self, commands: List[Command]) -> None:
        """Remove dispatched commands, wherever they sit in the queue."""
        pending = self._pending
        popped = 0
        for command in commands:
            if not pending or pending[0] is not command:
                break
            pending.popleft()
            popped += 1
        if popped < len(commands):
            taken = {id(command) for command in commands[popped:]}
            kept = deque(command for command in pending if id(command) not in taken)
            popped += len(pending) - len(kept)
            self._pending = kept
        self._inflight += popped
        self._pending_changed(-popped)
        if popped != len(commands):
            raise SchedulingError("dispatched commands must be pending on their queue")

    def drop(self, command: Command) -> bool:
        """Abandon a pending command (a forward whose slice failed); returns
        whether it was still pending.

        Removes it without dispatching and retires it for the synchronize
        barriers, exactly as completion would — the caller has already
        delivered the failure through the command's future."""
        for index, queued in enumerate(self._pending):
            if queued is command:
                del self._pending[index]
                self._pending_changed(-1)
                self._retire(command)
                return True
        return False

    def drain_pending(self) -> List[Command]:
        """Remove and return every still-pending command (queue teardown)."""
        drained = list(self._pending)
        self._pending.clear()
        self._pending_changed(-len(drained))
        return drained

    def drop_barriers(self) -> None:
        """Queue teardown: every synchronize barrier and every held
        deallocation settles unreached — the deallocation frees nothing."""
        barriers, self._barriers = self._barriers, deque()
        for _, settle in barriers:
            settle(False)

    def mark_completed(self, command: Command) -> None:
        """A dispatched command retired."""
        self._inflight -= 1
        if self._inflight < 0:
            raise SchedulingError("completed more commands than were dispatched")
        self._retire(command)

    # -- synchronization ---------------------------------------------------------

    def synchronize(self, future: SimFuture) -> None:
        """Resolve ``future`` once every command issued so far has retired,
        or when the queue is torn down first."""

        def settle(reached: bool) -> None:
            if not future.done():
                future.set_result(None)

        self.hold(settle)

    def hold(self, settle: Callable[[bool], None]) -> None:
        """Call ``settle(True)`` once every command issued so far has
        retired, or ``settle(False)`` if the queue is torn down first (a
        deallocation frees only in the first case)."""
        if self.idle:
            settle(True)
            return
        self._barriers.append((self._issued, settle))

    def _retire(self, command: Command) -> None:
        seq = command.queue_seq
        if seq != self._retired_below:
            self._retired_early.add(seq)
            return
        early = self._retired_early
        seq += 1
        while seq in early:
            early.remove(seq)
            seq += 1
        self._retired_below = seq
        barriers = self._barriers
        while barriers and barriers[0][0] <= seq:
            barriers.popleft()[1](True)

    # -- inspection ---------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """Every command this queue issued has retired: none is in its
        delivery window, pending or in flight."""
        return self._retired_below == self._issued

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def oldest_pending_time(self) -> Optional[float]:
        return self._pending[0].issue_time if self._pending else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CommandQueue {self.key} model={self.model} pending={self.pending_count} "
            f"inflight={self._inflight}>"
        )
