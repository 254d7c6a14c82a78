"""Inference-layer API handlers (§5.3).

Each handler executes one *kind* of batched command against device memory
and the transformer.  The handlers are pure with respect to scheduling —
they are invoked by the device with a list of commands and return a list of
per-command results — and, with the ``KvPageStore`` gather/scatter kernels
they call, they are the only code that touches tensors.

A ``forward`` batch runs in *waves*: every command of a wave is prepared
(embeds read, KV context gathered), the transformer is called once for all
of them, then each command's KV and output embeddings are written, in
command order.  That equals running the commands one after the other as long
as none reads what an earlier one writes, so such a command starts the next
wave.  (A command that *writes* what an earlier one reads is safe: every read
of a wave precedes every write, and reads copy.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ResourceError, SchedulingError
from repro.core.command_queue import Command
from repro.gpu.kernels import ForwardRow, KernelCostModel
from repro.gpu.memory import DeviceMemory
from repro.model.registry import ModelEntry
from repro.model.sampling import top_k_dist
from repro.model.transformer import ForwardInput

#: Top-K truncation of the distributions ``get_next_dist`` returns when the
#: call names no ``top_k`` of its own.
DEFAULT_TOP_K = 256


class ApiHandlers:
    """The set of handlers serving one model on one device."""

    def __init__(
        self,
        model_entry: ModelEntry,
        memory: DeviceMemory,
        cost_model: KernelCostModel,
    ) -> None:
        self.model_entry = model_entry
        self.memory = memory
        self.cost_model = cost_model
        #: Per-command handlers; ``forward`` is batched (``_run_forward_batch``).
        self._dispatch = {
            "embed_text": self._run_embed_text,
            "embed_image": self._run_embed_image,
            "sample": self._run_sample,
            "copy_kv": self._run_copy_kv,
            "copy_emb": self._run_copy_emb,
            "mask_kv": self._run_mask_kv,
            "clear_kv": self._run_clear_kv,
            "dealloc_kv": self._run_release,
            "dealloc_emb": self._run_release,
        }

    # -- public interface -----------------------------------------------------

    def execute_batch(self, kind: str, commands: Sequence[Command]) -> List[Any]:
        """Execute a batch; returns per-command results in command order.

        A failing command yields its exception object in the result list
        instead of failing the whole batch — commands from unrelated
        inferlets share batches, so one inferlet's invalid resource use must
        not take down its batch-mates.
        """
        if kind == "forward":
            return self._run_forward_batch(commands)
        try:
            handler = self._dispatch[kind]
        except KeyError:
            raise SchedulingError(f"no handler for command kind {kind!r}") from None
        results: List[Any] = []
        for command in commands:
            try:
                results.append(handler(command.payload))
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results.append(exc)
        return results

    def batch_cost_seconds(self, kind: str, commands: Sequence[Command]) -> float:
        """Virtual-time cost of executing the batch on the device."""
        if kind == "forward":
            rows = [
                ForwardRow(
                    n_input_tokens=max(1, command.input_tokens),
                    context_tokens=command.context_tokens,
                )
                for command in commands
            ]
            return self.cost_model.forward_batch_cost(rows)
        if kind in ("embed_text", "embed_image"):
            total_tokens = sum(command.input_tokens for command in commands)
            return self.cost_model.embed_batch_cost(total_tokens)
        if kind == "sample":
            total_rows = sum(command.rows for command in commands)
            return self.cost_model.sample_batch_cost(total_rows)
        if kind in ("copy_kv", "copy_emb"):
            return self.cost_model.copy_batch_cost(len(commands))
        if kind in ("mask_kv", "clear_kv"):
            return self.cost_model.mask_batch_cost(len(commands))
        if kind in ("dealloc_kv", "dealloc_emb"):
            return self.cost_model.alloc_batch_cost(len(commands))
        raise SchedulingError(f"no cost model for command kind {kind!r}")

    # -- embed handlers -----------------------------------------------------------

    def _run_embed_text(self, payload: Dict[str, Any]) -> int:
        token_ids = payload["token_ids"]
        positions = payload["positions"]
        slots = payload["emb_slots"]
        if not (len(token_ids) == len(positions) == len(slots)):
            raise ResourceError("embed_txt: token/position/slot counts must match")
        vectors = self.model_entry.transformer.embed_tokens(token_ids, positions)
        self.memory.embeds.write(slots, vectors, positions)
        return len(slots)

    def _run_embed_image(self, payload: Dict[str, Any]) -> int:
        blob = payload["blob"]
        positions = payload["positions"]
        slots = payload["emb_slots"]
        vectors = self.model_entry.transformer.embed_image(blob, len(slots), positions)
        self.memory.embeds.write(slots, vectors, positions)
        return len(slots)

    # -- forward handler -------------------------------------------------------------

    def _run_forward_batch(self, commands: Sequence[Command]) -> List[Any]:
        """Execute forward rows (whole commands or chunked-prefill slices).

        Chunked prefill (repro.core.batching) relies on two properties of
        this handler, both stateful through device memory rather than the
        payload: the gathered context includes every token *committed so
        far* into the input pages — so a later slice attends to the KV its
        predecessors wrote — and the auto-offset of ``KvPageStore.scatter``
        (the count of valid slots) lands each slice's KV right after them.  A
        slice therefore needs no extra bookkeeping here; the scheduler only
        resolves the caller's future when the final slice completes.
        """
        results: List[Any] = [None] * len(commands)
        wave: List[Tuple[int, Dict[str, Any], ForwardInput]] = []
        kv_written: Set[int] = set()
        emb_written: Set[int] = set()
        for index, command in enumerate(commands):
            payload = command.payload
            if not (
                kv_written.isdisjoint(payload.get("ikv", ()))
                and emb_written.isdisjoint(payload.get("iemb", ()))
            ):
                self._run_wave(wave, results)
                wave = []
                kv_written.clear()
                emb_written.clear()
            try:
                wave.append((index, payload, self._forward_input(payload)))
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results[index] = exc
                continue
            kv_written.update(payload.get("okv", ()))
            emb_written.update(payload.get("oemb", ()))
        self._run_wave(wave, results)
        return results

    def _forward_input(self, payload: Dict[str, Any]) -> ForwardInput:
        """Read what one forward command needs from device memory (copies)."""
        iemb: List[int] = payload.get("iemb", [])
        mask = payload.get("mask")
        adapter_name = payload.get("adapter")
        if not iemb:
            raise ResourceError("forward: at least one input embedding is required")
        if len(payload.get("oemb", ())) > len(iemb):
            raise ResourceError("forward: more output embeddings than input tokens")
        return ForwardInput(
            embeds=self.memory.embeds.read(iemb),
            positions=self.memory.embeds.positions(iemb),
            context=self.memory.kv_pages.gather(payload.get("ikv", [])),
            attn_mask=np.asarray(mask, dtype=bool) if mask is not None else None,
            adapter=(
                self.model_entry.adapters.get(adapter_name)
                if adapter_name is not None
                else None
            ),
        )

    def _run_wave(
        self, wave: List[Tuple[int, Dict[str, Any], ForwardInput]], results: List[Any]
    ) -> None:
        """One model call for the wave, then each command's writes in order."""
        if not wave:
            return
        outputs = self.model_entry.transformer.forward([row for _, _, row in wave])
        for (index, payload, _), output in zip(wave, outputs):
            if isinstance(output, Exception):
                results[index] = output
                continue
            try:
                okv: List[int] = payload.get("okv", [])
                oemb: List[int] = payload.get("oemb", [])
                if okv:
                    self.memory.kv_pages.scatter(
                        okv,
                        payload.get("okv_offset"),
                        output.new_keys,
                        output.new_values,
                        output.positions,
                    )
                if oemb:
                    n_out = len(oemb)
                    self.memory.embeds.write(
                        oemb, output.hidden[-n_out:], output.positions[-n_out:]
                    )
                results[index] = len(payload["iemb"])
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results[index] = exc

    # -- sample handler ----------------------------------------------------------------

    def _run_sample(self, payload: Dict[str, Any]) -> List:
        slots = payload["emb_slots"]
        top_k = payload.get("top_k") or DEFAULT_TOP_K
        temperature = payload.get("temperature", 1.0)
        hidden = self.memory.embeds.read(slots)
        logits = self.model_entry.transformer.logits(hidden)
        return [top_k_dist(row, k=top_k, temperature=temperature) for row in logits]

    # -- cache manipulation handlers ------------------------------------------------------

    def _run_copy_kv(self, payload: Dict[str, Any]) -> int:
        src = self.memory.kv_pages.page(payload["src"])
        dst = self.memory.kv_pages.page(payload["dst"])
        src_slots = payload.get("src_slots")
        dst_slots = payload.get("dst_slots")
        if src_slots is None:
            src_slots = np.flatnonzero(src.valid)
        if dst_slots is None:
            dst_slots = np.arange(len(src_slots))
        if len(src_slots) != len(dst_slots):
            raise ResourceError("copy_kvpage: slot count mismatch")
        dst.copy_token_from(src, src_slots, dst_slots)
        return len(src_slots)

    def _run_copy_emb(self, payload: Dict[str, Any]) -> int:
        src_slots = payload["src"]
        dst_slots = payload["dst"]
        data = self.memory.embeds.read(src_slots)
        positions = self.memory.embeds.positions(src_slots)
        self.memory.embeds.write(dst_slots, data, positions)
        return len(src_slots)

    def _run_mask_kv(self, payload: Dict[str, Any]) -> int:
        page = self.memory.kv_pages.page(payload["page"])
        page.mask_tokens(payload["mask"])
        return 1

    def _run_clear_kv(self, payload: Dict[str, Any]) -> int:
        page = self.memory.kv_pages.page(payload["page"])
        page.clear()
        return 1

    # -- deferred deallocation -------------------------------------------------------------

    @staticmethod
    def _run_release(payload: Dict[str, Any]) -> int:
        release = payload["release"]
        release()
        return 1
