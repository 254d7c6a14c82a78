"""The inferlet-facing API bindings (§4, Table 1).

:class:`InferletContext` is the ``ctx`` object handed to every inferlet's
``main`` coroutine.  It exposes the full 42-function API surface: 18
functions that define the LLM forward pass and resource management (routed
to the inference layer through command queues) and 24 control-layer
functions for runtime management, inter-inferlet communication and I/O.

Calls that involve a command queue return a :class:`SimFuture` which
resolves when the command has been executed by the inference layer;
commands on the same queue execute in issue order, so inferlets typically
only await the calls whose results they need (``get_next_dist``,
``synchronize``) — exactly as in the paper's code samples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ReproError, TraitNotSupportedError
from repro.core.controller import Controller
from repro.core.handles import Embed, KvPage, Queue
from repro.core.inferlet import InferletInstance
from repro.core.traits import trait_of_api
from repro.sim.futures import SimFuture


class Subscription:
    """Receiving side of the broadcast/subscribe API."""

    def __init__(self, ctx: "InferletContext", topic: str) -> None:
        self._ctx = ctx
        self.topic = topic

    def next_message(self) -> SimFuture:
        """Future for the next message broadcast on this topic."""
        return self._ctx._controller.next_broadcast(self._ctx._instance, self.topic)


class InferletContext:
    """API bindings bound to one inferlet instance."""

    def __init__(
        self,
        instance: InferletInstance,
        controller: Controller,
        wasm_overhead_seconds: float = 0.0,
    ) -> None:
        self._instance = instance
        self._controller = controller
        self._sim = controller.sim
        self._wasm_overhead = wasm_overhead_seconds

    # ------------------------------------------------------------------
    # Internal helpers (not part of the 42-call API surface)
    # ------------------------------------------------------------------

    @property
    def instance_id(self) -> str:
        return self._instance.instance_id

    @property
    def rng(self) -> np.random.Generator:
        """Per-inferlet RNG: sampling happens in the application (§4.2)."""
        return self._instance.rng

    def record_output_tokens(self, count: int = 1) -> None:
        """Instrumentation hook: count tokens this inferlet emitted as output."""
        self._controller.record_output_tokens(self._instance, count)

    def _charge(self, api_name: str) -> float:
        self._instance.check_alive()
        overhead = self._controller.charge_call(self._instance, api_name)
        overhead += self._wasm_overhead
        self._instance.pending_overhead += overhead
        return overhead

    def _drain_overhead(self) -> SimFuture:
        """Turn accumulated per-call overheads into simulated time."""
        pending, self._instance.pending_overhead = self._instance.pending_overhead, 0.0
        return self._sim.sleep(pending)

    def _check_trait(self, handle: Queue, api_name: str) -> None:
        trait = trait_of_api(api_name)
        if not self._controller.service(handle.model).entry.supports_trait(trait):
            raise TraitNotSupportedError(
                f"model {handle.model!r} does not support trait {trait!r} ({api_name})"
            )

    async def _awaited(self, future: SimFuture) -> Any:
        await self._drain_overhead()
        return await future

    def _wrap(self, future: SimFuture) -> SimFuture:
        """Return a future that pays pending overhead before resolving."""
        if self._instance.pending_overhead <= 0:
            return future
        return self._sim.create_task(self._awaited(future), name="api-call")


    # ------------------------------------------------------------------
    # Control-layer APIs (24): runtime management, messaging, I/O
    # ------------------------------------------------------------------

    def get_arg(self) -> List[str]:
        """Command-line arguments passed at launch."""
        self._charge("get_arg")
        return list(self._instance.args)

    def send(self, message: Any) -> None:
        """Send a message to the client that launched this inferlet."""
        self._charge("send")
        self._controller.client_send(self._instance, message)

    def receive(self) -> SimFuture:
        """Future for the next message from the client."""
        self._charge("receive")
        return self._wrap(self._controller.client_receive(self._instance))

    def http_get(self, url: str) -> SimFuture:
        """Perform an HTTP GET against a simulated external endpoint."""
        self._charge("http_get")
        return self._wrap(self._controller.http_request(url, None, instance=self._instance))

    def http_post(self, url: str, payload: Any = None) -> SimFuture:
        """Perform an HTTP POST against a simulated external endpoint."""
        self._charge("http_post")
        return self._wrap(self._controller.http_request(url, payload, instance=self._instance))

    def available_models(self) -> List[str]:
        self._charge("available_models")
        return self._controller.available_models()

    def available_traits(self, model: str) -> List[str]:
        self._charge("available_traits")
        return self._controller.available_traits(model)

    def available_adapters(self, model: str) -> List[str]:
        self._charge("available_adapters")
        return self._controller.available_adapters(model)

    def create_queue(self, model: Optional[str] = None) -> Queue:
        """Create a command queue bound to a model."""
        self._charge("create_queue")
        return self._controller.create_queue(self._instance, model)

    def synchronize(self, queue: Queue) -> SimFuture:
        """Future resolving once every command issued so far on the queue completes."""
        self._charge("synchronize")
        return self._wrap(self._controller.synchronize(queue))

    def set_queue_priority(self, queue: Queue, priority: int) -> None:
        self._charge("set_queue_priority")
        self._controller.set_queue_priority(queue, priority)

    def destroy_queue(self, queue: Queue) -> None:
        self._charge("destroy_queue")
        self._controller.destroy_queue(self._instance, queue)

    def broadcast(self, topic: str, message: Any) -> int:
        """Broadcast a message to every inferlet subscribed to ``topic``."""
        self._charge("broadcast")
        return self._controller.broadcast(self._instance, topic, message)

    def subscribe(self, topic: str) -> Subscription:
        self._charge("subscribe")
        self._controller.subscribe(self._instance, topic)
        return Subscription(self, topic)

    def unsubscribe(self, topic: str) -> None:
        self._charge("unsubscribe")
        self._controller.unsubscribe(self._instance, topic)

    def sleep(self, seconds: float) -> SimFuture:
        """Suspend the inferlet for ``seconds`` of virtual time."""
        self._charge("sleep")
        return self._wrap(self._sim.sleep(seconds))

    def now(self) -> float:
        self._charge("now")
        return self._sim.now

    def get_model_info(self, model: Optional[str] = None) -> Dict[str, Any]:
        self._charge("get_model_info")
        model = model or self._controller.default_model()
        config = self._controller.service(model).entry.config
        return {
            "name": config.name,
            "size": config.size_label,
            "vocab_size": config.vocab_size,
            "kv_page_size": config.kv_page_size,
            "max_position": config.max_position,
        }

    def log(self, message: str) -> None:
        """Debug logging (a no-op sink; recorded only for metrics)."""
        self._charge("log")

    def kv_page_size(self, model: Optional[str] = None) -> int:
        self._charge("kv_page_size")
        model = model or self._controller.default_model()
        return self._controller.service(model).entry.config.kv_page_size

    def export_kvpage(self, pages: Sequence[KvPage], name: str) -> None:
        """Publish KV pages so other inferlets can import them by name."""
        self._charge("export_kvpage")
        self._controller.export_kv_pages(self._instance, list(pages), name)

    def import_kvpage(self, name: str, model: Optional[str] = None) -> List[KvPage]:
        """Map a named export into this inferlet's address space."""
        self._charge("import_kvpage")
        return self._controller.import_kv_pages(self._instance, name, model)

    def release_kvpage_export(self, name: str, model: Optional[str] = None) -> None:
        self._charge("release_kvpage_export")
        self._controller.release_export(name, model)

    def list_exports(self, model: Optional[str] = None) -> List[str]:
        self._charge("list_exports")
        return self._controller.list_exports(model)

    # ------------------------------------------------------------------
    # Inference-layer APIs (18): resources, embed, forward, sample
    # ------------------------------------------------------------------

    # -- Allocate trait ----------------------------------------------------

    def alloc_kvpage(self, queue: Queue, count: int) -> List[KvPage]:
        """Allocate ``count`` KV-cache pages (virtual handles returned immediately)."""
        self._charge("alloc_kvpage")
        self._check_trait(queue, "alloc_kvpage")
        return self._controller.alloc_kv_pages(self._instance, queue, count)

    def dealloc_kvpage(self, queue: Queue, pages: Sequence[KvPage]) -> SimFuture:
        """Deallocate KV pages (ordered after earlier commands on the queue)."""
        self._charge("dealloc_kvpage")
        return self._controller.dealloc_kv_pages(self._instance, queue, list(pages))

    def alloc_emb(self, queue: Queue, count: int) -> List[Embed]:
        """Allocate ``count`` embedding slots."""
        self._charge("alloc_emb")
        self._check_trait(queue, "alloc_emb")
        return self._controller.alloc_embeds(self._instance, queue, count)

    def dealloc_emb(self, queue: Queue, embeds: Sequence[Embed]) -> SimFuture:
        self._charge("dealloc_emb")
        return self._controller.dealloc_embeds(self._instance, queue, list(embeds))

    def copy_kvpage(
        self,
        queue: Queue,
        src: KvPage,
        dst: KvPage,
        src_slots: Optional[Sequence[int]] = None,
        dst_slots: Optional[Sequence[int]] = None,
    ) -> SimFuture:
        """Token-level copy of KV-cache contents between pages."""
        self._charge("copy_kvpage")
        src_pid = self._controller.resolve_kv(self._instance, queue, [src])[0]
        dst_pid = self._controller.prepare_kv_mutation(self._instance, queue, dst)
        payload = {
            "src": src_pid,
            "dst": dst_pid,
            "src_slots": list(src_slots) if src_slots is not None else None,
            "dst_slots": list(dst_slots) if dst_slots is not None else None,
        }
        return self._controller.submit_command(
            self._instance,
            queue,
            "copy_kv",
            payload,
            reads=frozenset({("kv", src_pid)}),
            writes=frozenset({("kv", dst_pid)}),
        )

    def copy_emb(self, queue: Queue, src: Sequence[Embed], dst: Sequence[Embed]) -> SimFuture:
        """Copy embedding slots (e.g. to snapshot hidden states)."""
        self._charge("copy_emb")
        src_ids = self._controller.resolve_emb(self._instance, queue, list(src))
        dst_ids = self._controller.resolve_emb(self._instance, queue, list(dst))
        cache = self._controller.prefix_cache_probe(self._instance, queue)
        if cache is not None:
            cache.forget_embeds(dst_ids)  # copied hidden states, not a token
        return self._controller.submit_command(
            self._instance,
            queue,
            "copy_emb",
            {"src": src_ids, "dst": dst_ids},
            reads=frozenset(("emb", eid) for eid in src_ids),
            writes=frozenset(("emb", eid) for eid in dst_ids),
        )

    def clear_kvpage(self, queue: Queue, page: KvPage) -> SimFuture:
        """Reset a KV page to its unwritten state (keeps the allocation)."""
        self._charge("clear_kvpage")
        pid = self._controller.prepare_kv_mutation(self._instance, queue, page)
        return self._controller.submit_command(
            self._instance,
            queue,
            "clear_kv",
            {"page": pid},
            writes=frozenset({("kv", pid)}),
        )

    # -- Forward trait -------------------------------------------------------

    def forward(
        self,
        queue: Queue,
        ikv: Sequence[KvPage],
        iemb: Sequence[Embed],
        okv: Sequence[KvPage] = (),
        oemb: Sequence[Embed] = (),
        mask: Optional[np.ndarray] = None,
        okv_offset: Optional[int] = None,
    ) -> SimFuture:
        """Run the transformer over ``iemb`` attending to ``ikv``.

        New K/V for the input tokens are appended to ``okv`` (or written at
        ``okv_offset``); the final hidden states of the last ``len(oemb)``
        input tokens are written to ``oemb``.
        """
        self._charge("forward")
        self._check_trait(queue, "forward")
        return self._submit_forward(queue, ikv, iemb, okv, oemb, mask, okv_offset, adapter=None)

    def forward_with_adapter(
        self,
        queue: Queue,
        adapter: str,
        ikv: Sequence[KvPage],
        iemb: Sequence[Embed],
        okv: Sequence[KvPage] = (),
        oemb: Sequence[Embed] = (),
        mask: Optional[np.ndarray] = None,
        okv_offset: Optional[int] = None,
    ) -> SimFuture:
        """Like :meth:`forward` but applying a named LoRA adapter."""
        self._charge("forward_with_adapter")
        self._check_trait(queue, "forward_with_adapter")
        return self._submit_forward(queue, ikv, iemb, okv, oemb, mask, okv_offset, adapter=adapter)

    def _submit_forward(
        self,
        queue: Queue,
        ikv: Sequence[KvPage],
        iemb: Sequence[Embed],
        okv: Sequence[KvPage],
        oemb: Sequence[Embed],
        mask: Optional[np.ndarray],
        okv_offset: Optional[int],
        adapter: Optional[str],
    ) -> SimFuture:
        if not iemb:
            raise ReproError("forward requires at least one input embedding")
        finish = None
        cache = self._controller.prefix_cache_for_forward(self._instance, queue)
        if cache is not None:
            # A cached page-aligned prompt prefix is adopted in place of the
            # caller's fresh pages and the matching input embeddings are
            # dropped — their prefill compute is skipped entirely.  The
            # finish hook registers pages this forward fills completely.
            iemb, finish = cache.begin_forward(
                self._instance.instance_id,
                list(ikv),
                list(iemb),
                list(okv),
                list(oemb),
                mask,
                adapter,
                okv_offset,
            )
        ikv_ids = self._controller.resolve_kv(self._instance, queue, list(ikv))
        iemb_ids = self._controller.resolve_emb(self._instance, queue, list(iemb))
        okv_ids = self._controller.resolve_kv(self._instance, queue, list(okv))
        oemb_ids = self._controller.resolve_emb(self._instance, queue, list(oemb))
        if cache is not None and oemb_ids:
            # Output slots now hold hidden states, not embedded tokens.
            cache.forget_embeds(oemb_ids)
        payload = {
            "ikv": ikv_ids,
            "iemb": iemb_ids,
            "okv": okv_ids,
            "oemb": oemb_ids,
            "mask": None if mask is None else np.asarray(mask, dtype=bool),
            "okv_offset": okv_offset,
            "adapter": adapter,
        }
        page_size = self._controller.service(queue.model).entry.config.kv_page_size
        reads = frozenset(
            [("kv", pid) for pid in ikv_ids] + [("emb", eid) for eid in iemb_ids]
        )
        writes = frozenset(
            [("kv", pid) for pid in okv_ids] + [("emb", eid) for eid in oemb_ids]
        )
        future = self._controller.submit_command(
            self._instance,
            queue,
            "forward",
            payload,
            rows=1,
            input_tokens=len(iemb_ids),
            context_tokens=len(ikv_ids) * page_size,
            reads=reads,
            writes=writes,
        )
        if finish is not None:
            future.add_done_callback(finish)
        return future

    def mask_kvpage(self, queue: Queue, page: KvPage, mask: Sequence[bool]) -> SimFuture:
        """Token-level visibility mask over one KV page."""
        self._charge("mask_kvpage")
        self._check_trait(queue, "mask_kvpage")
        pid = self._controller.prepare_kv_mutation(self._instance, queue, page)
        return self._controller.submit_command(
            self._instance,
            queue,
            "mask_kv",
            {"page": pid, "mask": list(mask)},
            writes=frozenset({("kv", pid)}),
        )

    # -- InputText / InputImage traits ------------------------------------------

    def embed_txt(
        self,
        queue: Queue,
        token_ids: Sequence[int],
        positions: Sequence[int],
        embeds: Sequence[Embed],
    ) -> SimFuture:
        """Embed token ids at explicit positions into embedding slots."""
        self._charge("embed_txt")
        self._check_trait(queue, "embed_txt")
        slot_ids = self._controller.resolve_emb(self._instance, queue, list(embeds))
        if not (len(token_ids) == len(positions) == len(slot_ids)):
            raise ReproError("embed_txt: token/position/embed counts must match")
        cache = self._controller.prefix_cache_probe(self._instance, queue)
        if cache is not None:
            cache.record_embeds(slot_ids, list(token_ids), list(positions))
        return self._controller.submit_command(
            self._instance,
            queue,
            "embed_text",
            {"token_ids": list(token_ids), "positions": list(positions), "emb_slots": slot_ids},
            input_tokens=len(slot_ids),
            writes=frozenset(("emb", eid) for eid in slot_ids),
        )

    def num_embs_needed(self, model: str, image_size: int) -> int:
        """Number of embedding slots needed for an image of ``image_size`` bytes."""
        self._charge("num_embs_needed")
        return self._controller.service(model).entry.transformer.num_image_embeds_needed(
            image_size
        )

    def embed_img(
        self,
        queue: Queue,
        blob: bytes,
        embeds: Sequence[Embed],
        positions: Optional[Sequence[int]] = None,
    ) -> SimFuture:
        """Embed an image blob into embedding slots."""
        self._charge("embed_img")
        self._check_trait(queue, "embed_img")
        slot_ids = self._controller.resolve_emb(self._instance, queue, list(embeds))
        if positions is None:
            positions = list(range(len(slot_ids)))
        cache = self._controller.prefix_cache_probe(self._instance, queue)
        if cache is not None:
            cache.forget_embeds(slot_ids)  # image content has no token identity
        return self._controller.submit_command(
            self._instance,
            queue,
            "embed_image",
            {"blob": blob, "positions": list(positions), "emb_slots": slot_ids},
            input_tokens=len(slot_ids),
            writes=frozenset(("emb", eid) for eid in slot_ids),
        )

    # -- Tokenize trait -------------------------------------------------------------

    def tokenize(self, queue: Queue, text: str) -> List[int]:
        """Convert text into token ids."""
        self._charge("tokenize")
        self._check_trait(queue, "tokenize")
        return self._controller.service(queue.model).entry.tokenizer.encode(text)

    def detokenize(self, queue: Queue, token_ids: Sequence[int]) -> str:
        """Convert token ids back into text."""
        self._charge("detokenize")
        self._check_trait(queue, "detokenize")
        return self._controller.service(queue.model).entry.tokenizer.decode(list(token_ids))

    def get_vocabs(self, queue: Queue) -> List[bytes]:
        """The model's vocabulary as raw byte strings."""
        self._charge("get_vocabs")
        self._check_trait(queue, "get_vocabs")
        return self._controller.service(queue.model).entry.tokenizer.get_vocab()

    # -- OutputText trait ----------------------------------------------------------------

    def get_next_dist(
        self,
        queue: Queue,
        embed: Embed,
        top_k: Optional[int] = None,
        temperature: float = 1.0,
    ) -> SimFuture:
        """Future for the (top-K truncated) next-token distribution."""
        self._charge("get_next_dist")
        self._check_trait(queue, "get_next_dist")
        slot_ids = self._controller.resolve_emb(self._instance, queue, [embed])
        future = self._controller.submit_command(
            self._instance,
            queue,
            "sample",
            {"emb_slots": slot_ids, "top_k": top_k, "temperature": temperature},
            rows=1,
            reads=frozenset(("emb", eid) for eid in slot_ids),
        )
        return self._first_of(future)

    def get_dists(
        self,
        queue: Queue,
        embeds: Sequence[Embed],
        top_k: Optional[int] = None,
        temperature: float = 1.0,
    ) -> SimFuture:
        """Future for the next-token distributions of several embeddings."""
        self._charge("get_dists")
        self._check_trait(queue, "get_dists")
        slot_ids = self._controller.resolve_emb(self._instance, queue, list(embeds))
        return self._controller.submit_command(
            self._instance,
            queue,
            "sample",
            {"emb_slots": slot_ids, "top_k": top_k, "temperature": temperature},
            rows=len(slot_ids),
            reads=frozenset(("emb", eid) for eid in slot_ids),
        )

    def _first_of(self, future: SimFuture) -> SimFuture:
        async def unwrap():
            results = await future
            return results[0]

        return self._sim.create_task(unwrap(), name="get_next_dist")
