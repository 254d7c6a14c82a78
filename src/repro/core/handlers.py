"""Inference-layer API handlers (§5.3).

Each handler executes one *kind* of batched command against device memory
and the transformer.  The handlers are pure with respect to scheduling —
they are invoked by the device with a list of commands and return a list of
per-command results — and, with the ``KvPageStore`` gather/scatter kernels
they call, they are the only code that touches tensors.

The batch, not the command, is the unit of numpy work for the three kinds
every output token pays (``forward``, ``sample``, ``embed_text``): per
command there is only validation — a bad command gets its own exception
object and its batch-mates complete — and then one read, one model or
top-K pass and one write serve all of them, bit-identical to serving each
alone (docs/ARCHITECTURE.md, "Batch-wide handlers").

A ``forward`` batch runs in *waves*: everything the wave's commands read is
read (one KV gather, one embed read), the transformer is called once for all
of them, then everything they write is written (one KV scatter, one embed
write).  That equals running the commands one after the other as long as none
reads *or writes* what an earlier one writes, so such a command starts the
next wave.  (A command that writes what an earlier one *reads* is safe: every
read of a wave precedes every write, and reads copy.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import ResourceError, SchedulingError
from repro.core.command_queue import Command
from repro.gpu.kernels import KernelCostModel
from repro.gpu.memory import DeviceMemory, KvWrite
from repro.model.registry import ModelEntry
from repro.model.sampling import check_temperature, check_top_k, top_k_dists
from repro.model.transformer import ForwardInput, ForwardResult, KvContext

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
        #: The kinds every output token pays run once per *batch*.
        self._batched = {
            "forward": self._run_forward_batch,
            "sample": self._run_sample_batch,
            "embed_text": self._run_embed_text_batch,
        }
        #: The rare kinds run once per command.
        self._dispatch = {
            "embed_image": self._run_embed_image,
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
        batched = self._batched.get(kind)
        if batched is not None:
            return batched(commands)
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
            return self.cost_model.forward_seconds(
                decode_rows=sum(1 for command in commands if command.input_tokens <= 1),
                prefill_tokens=sum(
                    command.input_tokens for command in commands if command.input_tokens > 1
                ),
                context_tokens=sum(command.context_tokens for command in commands),
            )
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

    def _run_embed_text_batch(self, commands: Sequence[Command]) -> List[Any]:
        """One table lookup, one sinusoid and one slot write for the batch —
        all elementwise, so every command gets the vectors it would compute
        alone.  A bad command (count mismatch, token outside the vocabulary,
        unallocated slot) gets its own exception and writes nothing."""
        results: List[Any] = [None] * len(commands)
        transformer = self.model_entry.transformer
        token_ids: List[int] = []
        positions: List[int] = []
        slots: List[int] = []
        for index, command in enumerate(commands):
            payload = command.payload
            try:
                own_tokens = payload["token_ids"]
                own_positions = payload["positions"]
                own_slots = payload["emb_slots"]
                if not (len(own_tokens) == len(own_positions) == len(own_slots)):
                    raise ResourceError("embed_txt: token/position/slot counts must match")
                transformer.check_token_ids(own_tokens)
                self.memory.embeds.check(own_slots)
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results[index] = exc
                continue
            token_ids.extend(own_tokens)
            positions.extend(own_positions)
            slots.extend(own_slots)
            results[index] = len(own_slots)
        # Command order is write order: a slot named twice keeps its last write.
        self.memory.embeds.write(slots, transformer.embed_tokens(token_ids, positions), positions)
        return results

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
        wave: List[Tuple[int, Dict[str, Any]]] = []
        kv_written: Set[int] = set()
        emb_written: Set[int] = set()
        for index, command in enumerate(commands):
            payload = command.payload
            okv, oemb = payload.get("okv", ()), payload.get("oemb", ())
            if not (
                kv_written.isdisjoint(payload.get("ikv", ()))
                and emb_written.isdisjoint(payload.get("iemb", ()))
                and kv_written.isdisjoint(okv)
                and emb_written.isdisjoint(oemb)
            ):
                self._run_wave(wave, results)
                wave = []
                kv_written.clear()
                emb_written.clear()
            wave.append((index, payload))
            kv_written.update(okv)
            emb_written.update(oemb)
        self._run_wave(wave, results)
        return results

    def _check_forward(
        self, payload: Dict[str, Any], context: Union[KvContext, ResourceError]
    ) -> Tuple[KvContext, Any, Any]:
        """Validate one forward command against device memory; ``context`` is
        its share of the wave's gather, or what that failed with.  Returns the
        row's context, attention mask and adapter."""
        iemb: List[int] = payload.get("iemb", [])
        mask = payload.get("mask")
        adapter_name = payload.get("adapter")
        if not iemb:
            raise ResourceError("forward: at least one input embedding is required")
        if len(payload.get("oemb", ())) > len(iemb):
            raise ResourceError("forward: more output embeddings than input tokens")
        self.memory.embeds.check(iemb)
        if isinstance(context, ResourceError):
            raise context
        return (
            context,
            np.asarray(mask, dtype=bool) if mask is not None else None,
            self.model_entry.adapters.get(adapter_name) if adapter_name is not None else None,
        )

    def _run_wave(self, wave: List[Tuple[int, Dict[str, Any]]], results: List[Any]) -> None:
        """One wave: every read (one gather, one embed read), one model call,
        then every write (one scatter, one embed write).  A command that fails
        at any step gets its own exception and writes nothing."""
        if not wave:
            return
        embeds, kv_pages = self.memory.embeds, self.memory.kv_pages
        contexts = kv_pages.gather([payload.get("ikv", []) for _, payload in wave])
        ready: List[tuple] = []  # (index, payload, context, mask, adapter)
        for (index, payload), context in zip(wave, contexts):
            try:
                ready.append((index, payload, *self._check_forward(payload, context)))
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results[index] = exc
        iemb = [slot for _, payload, *_ in ready for slot in payload["iemb"]]
        vectors, positions = embeds.read(iemb), embeds.positions(iemb)
        rows: List[ForwardInput] = []
        start = 0
        for _, payload, context, mask, adapter in ready:
            stop = start + len(payload["iemb"])
            n_outputs = len(payload.get("oemb", ()))
            rows.append(
                ForwardInput(
                    vectors[start:stop], positions[start:stop], context, mask, adapter, n_outputs
                )
            )
            start = stop
        outputs = self.model_entry.transformer.forward(rows)

        done: List[Tuple[int, Dict[str, Any], ForwardResult]] = []
        for (index, payload, *_), output in zip(ready, outputs):
            try:
                if isinstance(output, Exception):
                    raise output
                embeds.check(payload.get("oemb", ()))
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results[index] = exc
                continue
            done.append((index, payload, output))
        writers = [entry for entry in done if entry[1].get("okv")]
        errors = kv_pages.scatter(
            [
                KvWrite(
                    payload["okv"],
                    payload.get("okv_offset"),
                    output.new_keys,
                    output.new_values,
                    output.positions,
                )
                for _, payload, output in writers
            ]
        )
        for (index, _, _), error in zip(writers, errors):
            results[index] = error  # ``None``, as before, unless the write failed
        out_slots: List[int] = []
        out_hidden: List[np.ndarray] = []
        out_positions: List[np.ndarray] = []
        for index, payload, output in done:
            if results[index] is not None:
                continue
            oemb = payload.get("oemb", ())
            if oemb:
                out_slots.extend(oemb)
                out_hidden.append(output.hidden)  # the ``len(oemb)`` rows it asked for
                out_positions.append(output.positions[-len(oemb) :])
            results[index] = len(payload["iemb"])
        if out_slots:
            embeds.write(out_slots, np.concatenate(out_hidden), np.concatenate(out_positions))

    # -- sample handler ----------------------------------------------------------------

    def _run_sample_batch(self, commands: Sequence[Command]) -> List[Any]:
        """One slot read for the batch; then, per group of commands with the
        same slot count, ``top_k`` and temperature, one logits call and one
        top-K pass.  The group's hidden states are stacked ``(commands, slots,
        d_model)``, so numpy's matmul makes the BLAS call each command would
        make alone (one folded ``(commands * slots, d_model)`` gemm rounds
        differently), and the top-K works along the vocabulary axis only."""
        results: List[Any] = [None] * len(commands)
        embeds = self.memory.embeds
        groups: Dict[Tuple[int, int, float], List[int]] = {}
        for index, command in enumerate(commands):
            payload = command.payload
            try:
                slots = payload["emb_slots"]
                top_k = payload.get("top_k")
                if top_k is None:
                    top_k = DEFAULT_TOP_K
                temperature = payload.get("temperature", 1.0)
                embeds.check(slots)
                check_temperature(temperature)
                check_top_k(top_k)
                groups.setdefault((len(slots), top_k, temperature), []).append(index)
            except Exception as exc:  # noqa: BLE001 - delivered via the command future
                results[index] = exc
        # Read group by group, so that each group is one slice of the read.
        hidden = embeds.read(
            [
                slot
                for members in groups.values()
                for index in members
                for slot in commands[index].payload["emb_slots"]
            ]
        )
        d_model = self.model_entry.config.d_model
        start = 0
        for (n_slots, top_k, temperature), members in groups.items():
            stop = start + n_slots * len(members)
            stacked = hidden[start:stop].reshape(len(members), n_slots, d_model)
            logits = self.model_entry.transformer.logits(stacked)
            dists = top_k_dists(logits.reshape(stop - start, logits.shape[-1]), top_k, temperature)
            for at, index in enumerate(members):
                results[index] = dists[at * n_slots : (at + 1) * n_slots]
            start = stop
        return results

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
