"""Batch formation: vertical, horizontal and token-budget batching (§5.2, Figure 4).

Given the per-queue pending commands, the batcher computes, for every
command kind, the largest dispatchable batch:

* **Vertical batching** — the longest prefix of same-kind, non-conflicting
  commands at the head of each queue (:meth:`CommandQueue.head_run`).
* **Horizontal batching** — merging those runs across queues, placing
  commands from higher-priority queues earlier, skipping commands that
  write-write conflict with already selected ones, and truncating from the
  tail when the backend's maximum batch size would be exceeded.
* **Token-budget batching (chunked prefill)** — with
  ``ControlLayerConfig.chunked_prefill`` on, ``forward`` batches are also
  capped at ``max_batch_tokens`` input tokens (decode rows count one each).
  A prefill whose prompt exceeds the remaining budget — or the per-slice
  bound ``prefill_chunk_tokens`` — is *split*: a head slice
  (:meth:`Command.plan_chunk`) fills the batch while the residual command
  stays at the queue head, so each dispatched batch mixes decode rows with
  at most one partial prefill chunk per queue and a long prompt can no
  longer head-of-line-block the decodes behind it.

The scheduler then picks among the candidate batches of different kinds
(:meth:`repro.core.scheduler.BatchScheduler._select`): a ``forward``
candidate with no whole prompt in it — decode steps only, or prefill slices
only — first yields its turn to the cheaper kinds ready beside it, for a
bounded time; among what is left, the candidate whose oldest pending command
has waited the longest goes (:func:`select_longest_waiting`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.command_queue import Command, CommandQueue
from repro.sim.futures import SimFuture


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
    priority_of: Optional[Callable[[CommandQueue], int]] = None,
    max_batch_tokens: int = 0,
    prefill_chunk_tokens: int = 0,
    future_factory: Optional[Callable[[], SimFuture]] = None,
) -> Dict[str, CandidateBatch]:
    """Compute the best candidate batch per command kind.

    Merge priority is read *live* from each queue at formation time (via
    ``priority_of``, defaulting to ``queue.priority``), so a
    ``set_queue_priority`` issued after commands were enqueued still
    reorders them — the priority snapshotted onto the command at push time
    is only a fallback for commands inspected outside batch formation.
    The QoS service supplies a ``priority_of`` that adds a per-class
    stride on top of the queue priority.

    ``max_batch_tokens`` > 0 enables token-budget batching of ``forward``
    candidates (``prefill_chunk_tokens`` bounds single slices,
    ``future_factory`` mints the futures of planned head slices); 0 keeps
    the pre-chunking formation path byte-for-byte.
    """
    runs_by_kind: Dict[str, List[List[Command]]] = {}
    for queue in queues:
        run = queue.head_run(max_batch_rows)
        if not run:
            continue
        priority = priority_of(queue) if priority_of is not None else queue.priority
        for command in run:
            command.priority = priority
        runs_by_kind.setdefault(run[0].kind, []).append(run)

    candidates: Dict[str, CandidateBatch] = {}
    for kind, runs in runs_by_kind.items():
        merged = _merge_runs(
            runs,
            max_batch_rows,
            max_batch_tokens=max_batch_tokens if kind == "forward" else 0,
            prefill_chunk_tokens=prefill_chunk_tokens,
            future_factory=future_factory,
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
        command.kind == "forward"
        and command.parent is None
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
    runs: List[List[Command]],
    max_batch_rows: int,
    max_batch_tokens: int = 0,
    prefill_chunk_tokens: int = 0,
    future_factory: Optional[Callable[[], SimFuture]] = None,
) -> List[Command]:
    """Horizontal batching: merge per-queue runs into one ordered batch."""
    # Higher-priority queues are placed earlier so that tail truncation
    # drops low-priority work first; ties broken by the oldest command.
    # Within a priority tier, residuals that already received a slice pack
    # *after* fresh work: decode rows fill the token budget first and the
    # slice takes the remainder, instead of two residuals claiming the
    # whole budget and pushing every decode row to the next round.  (With
    # chunking off no command has ``chunks_taken`` set and the key reduces
    # to the stock ordering.)
    ordered_runs = sorted(
        runs,
        key=lambda run: (
            -run[0].priority,
            run[0].chunks_taken > 0,
            run[0].issue_time,
            run[0].command_id,
        ),
    )
    merged: List[Command] = []
    total_rows = 0
    total_tokens = 0
    # Accumulated write set of the merged batch: checking each candidate by
    # set intersection is equivalent to the pairwise ``conflicts_with``
    # scan (write-write only) without the O(n^2) cost.
    merged_writes: set = set()
    for run in ordered_runs:
        for command in run:
            if total_rows + command.rows > max_batch_rows:
                return merged
            if command.writes & merged_writes:
                # A conflicting command blocks the rest of its queue's run
                # (queue order must be preserved).
                break
            if max_batch_tokens:
                tokens = max(1, command.input_tokens)
                allowed = max_batch_tokens - total_tokens
                if prefill_chunk_tokens and command.input_tokens > 1:
                    allowed = min(allowed, prefill_chunk_tokens)
                if tokens > allowed:
                    head = min(allowed, command.input_tokens - _chunk_reserve(command))
                    if (
                        _chunkable(command)
                        and head >= 1
                        and future_factory is not None
                    ):
                        # Slice off a head chunk that fills the budget; the
                        # residual stays at the queue head and blocks the
                        # rest of this run (at most one partial prefill
                        # chunk per queue per batch).
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


def select_longest_waiting(
    candidates: Dict[str, CandidateBatch]
) -> Optional[CandidateBatch]:
    """Pick the candidate whose oldest pending command has waited longest."""
    if not candidates:
        return None
    return min(candidates.values(), key=lambda batch: batch.oldest_issue_time)
