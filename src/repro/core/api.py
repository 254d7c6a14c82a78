"""The inferlet-facing API bindings (§4, Table 1).

:class:`InferletContext` is the ``ctx`` object handed to every inferlet's
``main`` coroutine.  It exposes the full 42-function API surface: 18
functions that define the LLM forward pass and resource management (routed
to the inference layer through command queues) and 24 control-layer
functions for runtime management, inter-inferlet communication and I/O.

Calls that involve a command queue return a :class:`SimFuture` which
resolves when the command has been executed by the inference layer.
Commands on a queue take effect in issue order: two that touch the same page
or slot run in that order, and independent ones may share a batch.  So
inferlets typically only await the calls whose results they need
(``get_next_dist``, ``synchronize``) — exactly as in the paper's code
samples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ReproError, TraitNotSupportedError
from repro.core.controller import Controller
from repro.core.handles import Embed, KvPage, Queue
from repro.core.inferlet import InferletInstance
from repro.core.router import DeviceShard
from repro.core.traits import trait_of_api
from repro.model.sampling import check_top_k
from repro.sim.futures import SimFuture


class Subscription:
    """Receiving side of the broadcast/subscribe API."""

    def __init__(self, ctx: "InferletContext", topic: str) -> None:
        self._ctx = ctx
        self.topic = topic

    def next_message(self) -> SimFuture:
        """Future for the next message broadcast on this topic."""
        return self._ctx._controller.bus.next_message(self.topic, self._ctx.instance_id)


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

    def _enter(self, api_name: str, queue: Queue) -> DeviceShard:
        """Charge an inference-layer call, check the queue's model implements
        its trait, and read — once per call — the shard the inferlet lives
        on in that model's cluster (it names its service)."""
        self._charge(api_name)
        home = self._instance.placements[queue.model]
        trait = trait_of_api(api_name)
        entry = home.service.entry
        if not entry.supports_trait(trait):
            raise TraitNotSupportedError(
                f"model {entry.name!r} does not support trait {trait!r} ({api_name})"
            )
        return home

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
        self._instance.channel.send_to_client(message)

    def receive(self) -> SimFuture:
        """Future for the next message from the client."""
        self._charge("receive")
        return self._wrap(self._instance.channel.receive_from_client())

    def http_get(self, url: str) -> SimFuture:
        """Perform an HTTP GET against a simulated external endpoint."""
        self._charge("http_get")
        return self._wrap(self._controller.http_request(self._instance, url))

    def http_post(self, url: str, payload: Any = None) -> SimFuture:
        """Perform an HTTP POST against a simulated external endpoint."""
        self._charge("http_post")
        return self._wrap(self._controller.http_request(self._instance, url, payload))

    def available_models(self) -> List[str]:
        self._charge("available_models")
        return self._controller.available_models()

    def available_traits(self, model: str) -> List[str]:
        self._charge("available_traits")
        return self._controller.service(model).entry.traits()

    def available_adapters(self, model: str) -> List[str]:
        self._charge("available_adapters")
        return self._controller.service(model).entry.adapters.names()

    def create_queue(self, model: Optional[str] = None) -> Queue:
        """Create a command queue bound to a model."""
        self._charge("create_queue")
        return self._controller.create_queue(self._instance, model)

    def synchronize(self, queue: Queue) -> SimFuture:
        """Future resolving once every command issued so far on the queue completes."""
        self._charge("synchronize")
        return self._wrap(self._controller.synchronize(self._instance, queue))

    def set_queue_priority(self, queue: Queue, priority: int) -> None:
        self._charge("set_queue_priority")
        self._controller.set_queue_priority(self._instance, queue, priority)

    def destroy_queue(self, queue: Queue) -> None:
        self._charge("destroy_queue")
        self._controller.destroy_queue(self._instance, queue)

    def broadcast(self, topic: str, message: Any) -> int:
        """Broadcast a message to every inferlet subscribed to ``topic``."""
        self._charge("broadcast")
        return self._controller.bus.broadcast(topic, message, sender_id=self.instance_id)

    def subscribe(self, topic: str) -> Subscription:
        self._charge("subscribe")
        self._controller.bus.subscribe(topic, self.instance_id)
        return Subscription(self, topic)

    def unsubscribe(self, topic: str) -> None:
        self._charge("unsubscribe")
        self._controller.bus.unsubscribe(topic, self.instance_id)

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
        home = self._enter("alloc_kvpage", queue)
        return self._controller.alloc_kv_pages(self._instance, home, count)

    def dealloc_kvpage(self, queue: Queue, pages: Sequence[KvPage]) -> SimFuture:
        """Deallocate KV pages once every earlier command on the queue has
        retired (no device work; :meth:`Controller.dealloc`)."""
        home = self._enter("dealloc_kvpage", queue)
        return self._controller.dealloc(self._instance, home, queue, "dealloc_kv", list(pages))

    def alloc_emb(self, queue: Queue, count: int) -> List[Embed]:
        """Allocate ``count`` embedding slots."""
        home = self._enter("alloc_emb", queue)
        return self._controller.alloc_embeds(self._instance, home, count)

    def dealloc_emb(self, queue: Queue, embeds: Sequence[Embed]) -> SimFuture:
        home = self._enter("dealloc_emb", queue)
        return self._controller.dealloc(self._instance, home, queue, "dealloc_emb", list(embeds))

    def copy_kvpage(
        self,
        queue: Queue,
        src: KvPage,
        dst: KvPage,
        src_slots: Optional[Sequence[int]] = None,
        dst_slots: Optional[Sequence[int]] = None,
    ) -> SimFuture:
        """Token-level copy of KV-cache contents between pages."""
        home = self._enter("copy_kvpage", queue)
        src_pid = self._controller.resolve_kv(self._instance, home, [src])[0]
        dst_pid = self._controller.prepare_kv_mutation(self._instance, home, dst)
        payload = {
            "src": src_pid,
            "dst": dst_pid,
            "src_slots": list(src_slots) if src_slots is not None else None,
            "dst_slots": list(dst_slots) if dst_slots is not None else None,
        }
        return self._controller.submit_command(self._instance, home, queue, "copy_kv", payload)

    def copy_emb(self, queue: Queue, src: Sequence[Embed], dst: Sequence[Embed]) -> SimFuture:
        """Copy embedding slots (e.g. to snapshot hidden states)."""
        home = self._enter("copy_emb", queue)
        src_ids = home.resources.resolve_emb_many(self.instance_id, list(src))
        dst_ids = home.resources.resolve_emb_many(self.instance_id, list(dst))
        return self._controller.submit_command(
            self._instance, home, queue, "copy_emb", {"src": src_ids, "dst": dst_ids}
        )

    def clear_kvpage(self, queue: Queue, page: KvPage) -> SimFuture:
        """Reset a KV page to its unwritten state (keeps the allocation)."""
        home = self._enter("clear_kvpage", queue)
        return self._mutate_kvpage(home, queue, page, "clear_kv")

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
        home = self._enter("forward", queue)
        return self._submit_forward(home, queue, ikv, iemb, okv, oemb, mask, okv_offset, None)

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
        home = self._enter("forward_with_adapter", queue)
        return self._submit_forward(home, queue, ikv, iemb, okv, oemb, mask, okv_offset, adapter)

    def _submit_forward(
        self,
        home: DeviceShard,
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
        controller, instance = self._controller, self._instance
        finish = None
        cache = home.prefix_cache
        if cache is not None:
            # Swapped pages come home first, so the cache can resolve the
            # owner's context.  A cached page-aligned prompt prefix is
            # adopted in place of the caller's fresh pages and the matching
            # input embeddings are dropped — their prefill compute is
            # skipped entirely.  The finish hook registers pages this
            # forward fills completely.
            home.service.swap.fault_in(instance, home)
            iemb, finish = cache.begin_forward(
                instance.instance_id,
                list(ikv),
                list(iemb),
                list(okv),
                list(oemb),
                mask,
                adapter,
                okv_offset,
            )
        ikv_ids = controller.resolve_kv(instance, home, list(ikv))
        iemb_ids = home.resources.resolve_emb_many(instance.instance_id, list(iemb))
        okv_ids = controller.resolve_kv(instance, home, list(okv))
        oemb_ids = home.resources.resolve_emb_many(instance.instance_id, list(oemb))
        payload = {
            "ikv": ikv_ids,
            "iemb": iemb_ids,
            "okv": okv_ids,
            "oemb": oemb_ids,
            "mask": None if mask is None else np.asarray(mask, dtype=bool),
            "okv_offset": okv_offset,
            "adapter": adapter,
        }
        page_size = home.service.entry.config.kv_page_size
        future = controller.submit_command(
            instance,
            home,
            queue,
            "forward",
            payload,
            rows=1,
            input_tokens=len(iemb_ids),
            context_tokens=len(ikv_ids) * page_size,
        )
        # Registered after the busy pin is (in submit_command), so the pin is
        # released before the hook registers the pages this forward filled.
        if finish is not None:
            future.add_done_callback(finish)
        return future

    def mask_kvpage(self, queue: Queue, page: KvPage, mask: Sequence[bool]) -> SimFuture:
        """Token-level visibility mask over one KV page."""
        home = self._enter("mask_kvpage", queue)
        return self._mutate_kvpage(home, queue, page, "mask_kv", mask=list(mask))

    def _mutate_kvpage(
        self, home: DeviceShard, queue: Queue, page: KvPage, kind: str, **payload: Any
    ) -> SimFuture:
        pid = self._controller.prepare_kv_mutation(self._instance, home, page)
        return self._controller.submit_command(
            self._instance, home, queue, kind, {"page": pid, **payload}
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
        home = self._enter("embed_txt", queue)
        slot_ids = home.resources.resolve_emb_many(self.instance_id, list(embeds))
        if not (len(token_ids) == len(positions) == len(slot_ids)):
            raise ReproError("embed_txt: token/position/embed counts must match")
        return self._controller.submit_command(
            self._instance,
            home,
            queue,
            "embed_text",
            {"token_ids": list(token_ids), "positions": list(positions), "emb_slots": slot_ids},
            input_tokens=len(slot_ids),
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
        home = self._enter("embed_img", queue)
        slot_ids = home.resources.resolve_emb_many(self.instance_id, list(embeds))
        if positions is None:
            positions = list(range(len(slot_ids)))
        return self._controller.submit_command(
            self._instance,
            home,
            queue,
            "embed_image",
            {"blob": blob, "positions": list(positions), "emb_slots": slot_ids},
            input_tokens=len(slot_ids),
        )

    # -- Tokenize trait -------------------------------------------------------------

    def tokenize(self, queue: Queue, text: str) -> List[int]:
        """Convert text into token ids."""
        home = self._enter("tokenize", queue)
        return home.service.entry.tokenizer.encode(text)

    def detokenize(self, queue: Queue, token_ids: Sequence[int]) -> str:
        """Convert token ids back into text."""
        home = self._enter("detokenize", queue)
        return home.service.entry.tokenizer.decode(list(token_ids))

    def get_vocabs(self, queue: Queue) -> List[bytes]:
        """The model's vocabulary as raw byte strings."""
        home = self._enter("get_vocabs", queue)
        return home.service.entry.tokenizer.get_vocab()

    # -- OutputText trait ----------------------------------------------------------------

    def get_next_dist(
        self,
        queue: Queue,
        embed: Embed,
        top_k: Optional[int] = None,
        temperature: float = 1.0,
    ) -> SimFuture:
        """Future for the (top-K truncated) next-token distribution."""
        home = self._enter("get_next_dist", queue)
        return self._first_of(self._sample(home, queue, [embed], top_k, temperature))

    def get_dists(
        self,
        queue: Queue,
        embeds: Sequence[Embed],
        top_k: Optional[int] = None,
        temperature: float = 1.0,
    ) -> SimFuture:
        """Future for the next-token distributions of several embeddings."""
        home = self._enter("get_dists", queue)
        return self._sample(home, queue, list(embeds), top_k, temperature)

    def _sample(
        self,
        home: DeviceShard,
        queue: Queue,
        embeds: List[Embed],
        top_k: Optional[int],
        temperature: float,
    ) -> SimFuture:
        if top_k is not None:
            check_top_k(top_k)
        slot_ids = home.resources.resolve_emb_many(self.instance_id, embeds)
        return self._controller.submit_command(
            self._instance,
            home,
            queue,
            "sample",
            {"emb_slots": slot_ids, "top_k": top_k, "temperature": temperature},
            rows=len(slot_ids),
        )

    def _first_of(self, future: SimFuture) -> SimFuture:
        async def unwrap():
            results = await future
            return results[0]

        return self._sim.create_task(unwrap(), name="get_next_dist")
