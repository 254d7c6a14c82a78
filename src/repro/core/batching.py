"""Batch formation: vertical, horizontal and token-budget batching (§5.2, Figure 4).

Given the per-queue pending commands, the batcher computes, for every
command kind, the largest dispatchable batch:

* **Vertical batching** — per queue, one run per command kind: every
  pending command of that kind with no hazard against an earlier command
  left out of the run (:meth:`CommandQueue.ready_runs`).  Commands on a
  queue take effect in issue order: two that touch the same page or slot
  run in that order, and independent ones may share a batch.
* **Horizontal batching** — merging those runs across queues, placing
  commands from higher-priority queues earlier, skipping commands that
  write-write conflict with already selected ones, and truncating from the
  tail when the backend's maximum batch size would be exceeded.
* **Token-budget batching (chunked prefill)** — ``forward`` batches are
  also capped at ``GpuConfig.max_batch_tokens`` input tokens (decode rows
  count one each).  A prefill whose prompt exceeds the remaining budget —
  or the per-slice bound ``ControlLayerConfig.prefill_chunk_tokens`` — is
  *split*: a head slice
  (:meth:`Command.plan_chunk`) fills the batch while the residual command
  stays in its queue as a fence, so each dispatched batch mixes decode rows
  with at most one partial prefill chunk per queue and a long prompt can no
  longer head-of-line-block the decodes behind it.  A budget no batch
  reaches leaves every prompt whole.

The scheduler then picks among the candidate batches of different kinds
(:meth:`repro.core.scheduler.BatchScheduler._select`): a ``forward``
candidate first yields its turn to the batches that feed it — decode steps
only or prefill slices only to any kind ready beside it, one carrying a
prompt to an ``embed_text`` — for a bounded time; among what is left, one
key decides (:func:`select_batch`),
in every configuration: a candidate whose oldest command has waited
:data:`AGING_MS` goes first, oldest first; otherwise the best class rank
among its commands' owners, then its oldest command.  With one class
registered that is the candidate whose oldest command has waited longest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.command_queue import Command, CommandQueue
from repro.sim.futures import SimFuture

#: Starvation bound of the dispatch order (virtual ms): a candidate batch
#: whose oldest command has waited this long goes first, oldest first,
#: whatever its class.
AGING_MS = 200.0


@dataclass
class CandidateBatch:
    """A dispatchable batch of same-kind commands."""

    kind: str
    commands: List[Command]
    # Forward-batch role composition, counted in one pass when the batch is
    # formed (selection reads it on every dispatch, the statistics once
    # more): ``decode_rows`` are the forward commands advancing a single
    # token, ``prefill_rows`` the ones — whole, head slices or residuals —
    # carrying prompt tokens.  A chunked prefill's pieces stay prefill work
    # even when only one token wide (``Command.is_decode_row``).  Both are
    # 0 for every other kind.
    decode_rows: int = field(init=False, default=0)
    prefill_rows: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.kind == "forward":
            self.decode_rows = sum(1 for command in self.commands if command.is_decode_row)
            self.prefill_rows = len(self.commands) - self.decode_rows

    @property
    def oldest_issue_time(self) -> float:
        return min(command.issue_time for command in self.commands)

    @property
    def total_rows(self) -> int:
        return sum(command.rows for command in self.commands)

    @property
    def total_input_tokens(self) -> int:
        """Input tokens carried by the batch (decode rows count one each)."""
        return sum(max(1, command.input_tokens) for command in self.commands)

    def __len__(self) -> int:
        return len(self.commands)


def form_candidate_batches(
    queues: Sequence[CommandQueue],
    max_batch_rows: int,
    max_batch_tokens: int,
    prefill_chunk_tokens: int,
    future_factory: Callable[[], SimFuture],
) -> Dict[str, CandidateBatch]:
    """Compute the best candidate batch per command kind.

    Each run goes to the merge with its queue's priority, read *live* at
    formation time, so a ``set_queue_priority`` issued after commands were
    enqueued still reorders them; a command carries no copy of it.  The
    class rank needs no refresh: a queue's never changes.

    ``forward`` candidates are held to ``max_batch_tokens`` input tokens
    (``prefill_chunk_tokens`` bounds single slices, ``future_factory``
    mints the futures of planned head slices).
    """
    runs_by_kind: Dict[str, List[Tuple[int, List[Command]]]] = {}
    for queue in queues:
        for run in queue.ready_runs(max_batch_rows):
            runs_by_kind.setdefault(run[0].kind, []).append((queue.priority, run))

    candidates: Dict[str, CandidateBatch] = {}
    for kind, runs in runs_by_kind.items():
        merged = _merge_runs(
            runs, max_batch_rows, max_batch_tokens, prefill_chunk_tokens, future_factory
        )
        if merged:
            candidates[kind] = CandidateBatch(kind=kind, commands=merged)
    return candidates


def _chunkable(command: Command) -> bool:
    """May this forward command be sliced into a head chunk + residual?

    Only plain multi-token prefills qualify: an explicit attention mask is
    shaped against the whole input, and an explicit ``okv_offset`` pins
    where KV lands — both would be silently broken by slicing.  (LoRA
    adapters apply per token, so adapter forwards slice fine.)
    """
    return (
        command.parent is None
        and command.input_tokens > 1
        and command.payload.get("mask") is None
        and command.payload.get("okv_offset") is None
    )


def _chunk_reserve(command: Command) -> int:
    """Tokens the *final* slice must keep: every requested output-hidden
    slot reads the hidden state of one trailing input token (and a forward
    needs at least one input)."""
    return max(1, len(command.payload.get("oemb") or ()))


def _merge_runs(
    runs: List[Tuple[int, List[Command]]],
    max_batch_rows: int,
    max_batch_tokens: int,
    prefill_chunk_tokens: int,
    future_factory: Callable[[], SimFuture],
) -> List[Command]:
    """Horizontal batching: merge per-queue runs, each with its queue's
    priority, into one ordered batch.

    Only ``forward`` runs spend the token budget: the ``input_tokens`` of
    the other kinds count embedding slots, and the row limit alone bounds
    their batches."""
    # A better class's queues are placed earlier, then higher-priority
    # queues, so that tail truncation drops batch-class and low-priority
    # work first; ties broken by the oldest command.  Within a tier,
    # residuals that already received a slice pack *after* fresh work:
    # decode rows fill the token budget first and the slice takes the
    # remainder, instead of two residuals claiming the whole budget and
    # pushing every decode row to the next round.
    def order(entry: Tuple[int, List[Command]]) -> Tuple:
        priority, run = entry
        head = run[0]
        return (head.rank, -priority, head.chunks_taken > 0, head.issue_time, head.command_id)

    merged: List[Command] = []
    total_rows = 0
    total_tokens = 0
    # Accumulated write set of the merged batch: checking each candidate by
    # set intersection is equivalent to the pairwise ``conflicts_with``
    # scan (write-write only) without the O(n^2) cost.
    merged_writes: set = set()
    for _, run in sorted(runs, key=order):
        for command in run:
            if total_rows + command.rows > max_batch_rows:
                return merged
            if command.writes & merged_writes:
                # A conflicting command blocks the rest of its queue's run
                # (queue order must be preserved).
                break
            if command.kind == "forward":
                tokens = max(1, command.input_tokens)
                allowed = max_batch_tokens - total_tokens
                if command.input_tokens > 1:
                    allowed = min(allowed, prefill_chunk_tokens)
                if tokens > allowed:
                    head = min(allowed, command.input_tokens - _chunk_reserve(command))
                    if _chunkable(command) and head >= 1:
                        # Slice off a head chunk that fills the budget; the
                        # residual stays in its queue and blocks the rest of
                        # this run (at most one partial prefill chunk per
                        # queue per batch).
                        chunk = command.plan_chunk(head, future_factory())
                        merged.append(chunk)
                        total_rows += chunk.rows
                        total_tokens += head
                        merged_writes |= chunk.writes
                        break
                    if merged:
                        # Doesn't fit and can't be sliced: it waits for a
                        # batch with more headroom, blocking its own run.
                        break
                    # A lone over-budget, unsliceable command must still
                    # dispatch (the budget can never starve a queue).
                total_tokens += tokens
            merged.append(command)
            total_rows += command.rows
            merged_writes |= command.writes
    return merged


def dispatch_key(batch: CandidateBatch, now: float) -> Tuple:
    """The one dispatch order; the candidate with the smallest key goes.

    An aged candidate (oldest command waited :data:`AGING_MS`) goes first,
    oldest first; otherwise the best class rank among its commands, then
    its oldest command.  Equal keys keep candidate order (``min``)."""
    oldest = batch.oldest_issue_time
    if now - oldest >= AGING_MS / 1e3:
        return (0, 0, oldest)
    return (1, min(command.rank for command in batch.commands), oldest)


def holds_aged_worse(batch: CandidateBatch, other: CandidateBatch, now: float) -> bool:
    """``batch`` holds a command of a worse class than ``other``'s best that
    has waited :data:`AGING_MS`: what :func:`dispatch_key` puts first."""
    best = min(command.rank for command in other.commands)
    return any(
        command.rank > best and now - command.issue_time >= AGING_MS / 1e3
        for command in batch.commands
    )


def select_batch(candidates: Dict[str, CandidateBatch], now: float) -> Optional[CandidateBatch]:
    """Pick the candidate that goes next (:func:`dispatch_key`)."""
    if not candidates:
        return None
    return min(candidates.values(), key=lambda batch: dispatch_key(batch, now))
