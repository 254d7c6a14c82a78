"""Kernel cost model: how long each batched device operation takes.

The model is intentionally simple and fully documented so that experiments
are interpretable:

* A **forward** batch costs a weight-bound floor (``decode_ms_base``, the
  time of a single-sequence decode step — dominated by streaming the model
  weights), plus a small per-extra-row cost, plus a per-token prefill cost
  for rows carrying more than one input token, plus an attention term
  growing with the gathered context length.  That formula is written once,
  :meth:`KernelCostModel.forward_seconds`: the device is charged with it,
  and whatever predicts a forward (the scheduler's hold bound, the swap
  manager's recompute side, chunk accounting) asks it, not the parameters.
* **Embed** and **sample** batches cost a fixed per-call launch plus a
  per-token / per-row term.  In monolithic systems these are pipelined with
  the forward pass (the paper's Table 3 "opportunity cost"); the baselines
  therefore do not pay them separately, while Pie does.
* **Copy/mask/alloc** operations have small per-page costs.

The parameters live in :class:`repro.model.config.CostParams` and are
calibrated per model size against the paper's Table 3/4 measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.model.config import ModelConfig
from repro.sim.latency import milliseconds


@dataclass(frozen=True)
class ForwardRow:
    """One row of a forward batch: a single (inferlet, queue) forward call."""

    n_input_tokens: int
    context_tokens: int = 0


class KernelCostModel:
    """Maps batched device operations to virtual-time costs (seconds)."""

    def __init__(self, model_config: ModelConfig) -> None:
        self.config = model_config
        self.cost = model_config.cost

    # -- forward -----------------------------------------------------------

    def forward_seconds(
        self, decode_rows: int = 0, prefill_tokens: int = 0, context_tokens: int = 0
    ) -> float:
        """What one forward batch costs: ``decode_rows`` rows of at most one
        input token, ``prefill_tokens`` input tokens of the rows carrying
        more, ``context_tokens`` gathered by all rows (summed in ms, then
        converted once)."""
        cost = self.cost
        total_ms = cost.decode_ms_base
        if decode_rows > 1:
            total_ms += cost.decode_ms_per_extra_row * (decode_rows - 1)
        total_ms += cost.prefill_ms_per_token * prefill_tokens
        total_ms += cost.attn_ms_per_kilotoken * (context_tokens / 1024.0)
        return milliseconds(total_ms)

    def forward_batch_cost(self, rows: Sequence[ForwardRow]) -> float:
        """:meth:`forward_seconds` of a batch of rows; an empty batch is free."""
        if not rows:
            return 0.0
        return self.forward_seconds(
            decode_rows=sum(1 for row in rows if row.n_input_tokens <= 1),
            prefill_tokens=sum(
                row.n_input_tokens for row in rows if row.n_input_tokens > 1
            ),
            context_tokens=sum(row.context_tokens for row in rows),
        )

    def prefill_token_seconds(self, n_tokens: int) -> float:
        """The per-token prefill term of :meth:`forward_seconds` alone, for
        ``n_tokens`` prompt tokens — without the weight-bound floor every
        batch pays."""
        return milliseconds(self.cost.prefill_ms_per_token * n_tokens)

    # -- embed ---------------------------------------------------------------

    def embed_batch_cost(self, total_tokens: int) -> float:
        ms = self.cost.embed_ms_per_call + self.cost.embed_ms_per_token * total_tokens
        return milliseconds(ms)

    # -- sample --------------------------------------------------------------

    def sample_batch_cost(self, n_rows: int) -> float:
        ms = (
            self.cost.sample_ms_per_call
            + self.cost.sample_ms_per_row * max(0, n_rows - 1)
            + self.cost.dist_return_ms * n_rows
        )
        return milliseconds(ms)

    # -- cache manipulation ----------------------------------------------------

    def copy_batch_cost(self, n_pages: int) -> float:
        """One kernel launch plus a per-page copy term: a same-device page
        copy, and the landing of pages that crossed from another device
        (the wire time is the link's, :class:`repro.core.mover.KvMover`)."""
        ms = self.cost.kernel_launch_ms + self.cost.copy_ms_per_page * n_pages
        return milliseconds(ms)

    def mask_batch_cost(self, n_pages: int) -> float:
        ms = self.cost.kernel_launch_ms + self.cost.mask_ms_per_page * n_pages
        return milliseconds(ms)

    def alloc_batch_cost(self, n_items: int) -> float:
        ms = self.cost.alloc_ms_per_call + 0.0005 * n_items
        return milliseconds(ms)

    # -- convenience for experiments -------------------------------------------

    def chunked_prefill_ms(
        self, n_tokens: int, chunk_tokens: int, context_tokens: int = 0
    ) -> float:
        """Modeled prefill time when sliced into ``chunk_tokens`` chunks (ms).

        Each slice is a full forward dispatch: it pays the weight-bound
        floor again and an attention term against the context accumulated
        so far (the slices before it plus ``context_tokens``) — chunking is
        therefore a modeled *cost* in total device time, never a discount.
        Its win is latency: decode rows ride alongside each slice instead
        of stalling for the whole prompt (see ``repro.core.batching``).
        """
        if chunk_tokens < 1:
            raise ValueError("chunk_tokens must be at least 1")
        total = 0.0
        done = 0
        while done < n_tokens:
            take = min(chunk_tokens, n_tokens - done)
            total += self.forward_batch_cost(
                [ForwardRow(n_input_tokens=take, context_tokens=context_tokens + done)]
            )
            done += take
        return total * 1e3
