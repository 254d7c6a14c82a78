"""``Context``: the high-level generation abstraction of the support library.

A :class:`Context` wraps one generation stream: it owns KV pages, tracks how
full they are, embeds and forwards prompt tokens (``fill``), runs the
decode loop (``generate_until``), and supports the operations the paper's
advanced inferlets need — forking for tree-structured reasoning (shared
prefix pages, SGLang-style), token-level cache masking, and exporting /
importing prefixes for application-controlled prefix caching.

The paper's three-line example becomes::

    context = Context(ctx)
    await context.fill("Hello, ")
    await context.generate_until(max_tokens=10)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.core.api import InferletContext
from repro.core.handles import Embed, KvPage, Queue
from repro.model.sampling import TokenDistribution
from repro.support.sampling import SamplingParams, choose_token
from repro.support.stopping import StopCondition, build_stop_conditions


class Context:
    """Automatic KV-page and decode-loop management for one stream."""

    def __init__(
        self,
        api: InferletContext,
        model: Optional[str] = None,
        queue: Optional[Queue] = None,
        sampling: Optional[SamplingParams] = None,
    ) -> None:
        self.api = api
        self.queue = queue if queue is not None else api.create_queue(model)
        self.model = self.queue.model
        self.page_size = api.kv_page_size(self.model)
        self.sampling = sampling or SamplingParams()
        self.token_ids: List[int] = []
        self.generated_ids: List[int] = []
        self._pages: List[KvPage] = []
        self._page_fill: List[int] = []
        # Index of the first page that still takes tokens.  Pages before it
        # are never written again: they are full, or sealed (a fork's view
        # of its parent's pages, an imported prefix).  Pages from it on are
        # this context's own, filled in order.
        self._write_cursor = 0
        self._owned_pages: List[KvPage] = []
        self._visible: List[bool] = []
        self._gen_emb: Embed = api.alloc_emb(self.queue, 1)[0]
        self._owned_embeds: List[Embed] = [self._gen_emb]
        self._has_hidden = False
        self._freed = False

    # -- inspection ---------------------------------------------------------

    @property
    def num_tokens(self) -> int:
        return len(self.token_ids)

    @property
    def num_cached_tokens(self) -> int:
        return sum(self._page_fill)

    @property
    def pages(self) -> List[KvPage]:
        return list(self._pages)

    @property
    def generated_text(self) -> str:
        return self.api.detokenize(self.queue, self.generated_ids)

    def text(self) -> str:
        """Full decoded text (prompt + generation)."""
        return self.api.detokenize(self.queue, self.token_ids)

    # -- page management ------------------------------------------------------

    def _writable_capacity(self) -> int:
        writable = len(self._pages) - self._write_cursor
        if not writable:
            return 0
        return writable * self.page_size - self._page_fill[self._write_cursor]

    def _ensure_capacity(self, n_tokens: int) -> None:
        missing = n_tokens - self._writable_capacity()
        if missing <= 0:
            return
        pages_needed = (missing + self.page_size - 1) // self.page_size
        new_pages = self.api.alloc_kvpage(self.queue, pages_needed)
        for page in new_pages:
            self._pages.append(page)
            self._page_fill.append(0)
            self._owned_pages.append(page)

    def _writable_pages(self) -> List[KvPage]:
        return self._pages[self._write_cursor :]

    def _record_written(self, n_tokens: int) -> None:
        if n_tokens > self._writable_capacity():
            raise ReproError("internal accounting error: wrote more tokens than capacity")
        while n_tokens:
            take = min(self.page_size - self._page_fill[self._write_cursor], n_tokens)
            self._page_fill[self._write_cursor] += take
            n_tokens -= take
            if self._page_fill[self._write_cursor] == self.page_size:
                self._write_cursor += 1

    # -- prefill -----------------------------------------------------------------

    async def fill(self, prompt: Union[str, Sequence[int]]) -> None:
        """Embed and prefill the prompt, leaving the last hidden state ready."""
        self._check_usable()
        tokens = (
            self.api.tokenize(self.queue, prompt) if isinstance(prompt, str) else list(prompt)
        )
        if not tokens:
            return
        positions = list(range(self.num_tokens, self.num_tokens + len(tokens)))
        self._ensure_capacity(len(tokens))
        prompt_embeds = self.api.alloc_emb(self.queue, len(tokens))
        self.api.embed_txt(self.queue, tokens, positions, prompt_embeds)
        self.api.forward(
            self.queue,
            ikv=self._pages,
            iemb=prompt_embeds,
            okv=self._writable_pages(),
            oemb=[self._gen_emb],
        )
        self.api.dealloc_emb(self.queue, prompt_embeds)
        await self.api.synchronize(self.queue)
        self.token_ids.extend(tokens)
        self._visible.extend([True] * len(tokens))
        self._record_written(len(tokens))
        self._has_hidden = True

    # -- decoding ------------------------------------------------------------------

    async def next_dist(
        self, top_k: Optional[int] = None, temperature: float = 1.0
    ) -> TokenDistribution:
        """Next-token distribution at the current position."""
        self._check_usable()
        if not self._has_hidden:
            raise ReproError("call fill() before sampling from the context")
        return await self.api.get_next_dist(
            self.queue, self._gen_emb, top_k=top_k, temperature=temperature
        )

    async def append_token(self, token: int) -> None:
        """Append a chosen token and advance the KV cache by one step."""
        self._check_usable()
        position = self.num_tokens
        self._ensure_capacity(1)
        self.api.embed_txt(self.queue, [token], [position], [self._gen_emb])
        self.api.forward(
            self.queue,
            ikv=self._pages,
            iemb=[self._gen_emb],
            okv=self._writable_pages(),
            oemb=[self._gen_emb],
        )
        await self.api.synchronize(self.queue)
        self.token_ids.append(token)
        self._visible.append(True)
        self._record_written(1)
        self._has_hidden = True

    async def generate_once(
        self,
        params: Optional[SamplingParams] = None,
        allowed: Optional[Sequence[int]] = None,
    ) -> int:
        """Sample one token, append it, and return it."""
        params = params or self.sampling
        dist = await self.next_dist()
        token = choose_token(dist, params, self.api.rng, allowed=allowed)
        await self.append_token(token)
        self.generated_ids.append(token)
        self.api.record_output_tokens(1)
        return token

    async def generate_until(
        self,
        max_tokens: int = 64,
        stop: Optional[StopCondition] = None,
        params: Optional[SamplingParams] = None,
        eos_token: Optional[int] = None,
    ) -> str:
        """Generate until a stop condition fires; returns the new text."""
        stop = stop or build_stop_conditions(max_tokens=max_tokens, eos_token=eos_token)
        new_tokens: List[int] = []
        while True:
            token = await self.generate_once(params=params)
            new_tokens.append(token)
            text = self.api.detokenize(self.queue, new_tokens)
            if stop.should_stop(new_tokens, text) or len(new_tokens) >= max_tokens:
                return text

    # -- cache manipulation -------------------------------------------------------------

    async def mask_token_range(self, start: int, end: int, visible: bool = False) -> None:
        """Change the visibility of cached tokens ``[start, end)``.

        This is the support-library face of ``mask_kvpage``: it lets
        inferlets drop exhausted context (e.g. a tool result that is no
        longer needed) without re-prefilling anything.
        """
        self._check_usable()
        if not 0 <= start <= end <= self.num_cached_tokens:
            raise ReproError(f"invalid mask range [{start}, {end})")
        for index in range(start, end):
            self._visible[index] = visible
        first_page = start // self.page_size
        last_page = (max(start, end - 1)) // self.page_size
        for page_index in range(first_page, last_page + 1):
            page_start = page_index * self.page_size
            mask = self._visible[page_start : page_start + self.page_size]
            mask += [True] * (self.page_size - len(mask))
            self.api.mask_kvpage(self.queue, self._pages[page_index], mask)
        await self.api.synchronize(self.queue)

    # -- forking (tree-structured generation) ------------------------------------------------

    def fork(self, queue: Optional[Queue] = None) -> "Context":
        """Create a child context sharing this context's cached prefix.

        The child reads the parent's KV pages but never writes to them;
        divergent tokens go to freshly allocated pages.  Giving each child
        its own command queue lets the batch scheduler run sibling branches
        in the same device batch (horizontal batching).
        """
        self._check_usable()
        child = Context.__new__(Context)
        child.api = self.api
        child.queue = queue if queue is not None else self.api.create_queue(self.model)
        child.model = self.model
        child.page_size = self.page_size
        child.sampling = self.sampling
        child.token_ids = list(self.token_ids)
        child.generated_ids = []
        child._pages = list(self._pages)
        child._page_fill = list(self._page_fill)
        child._write_cursor = len(self._pages)
        child._owned_pages = []
        child._visible = list(self._visible)
        child._gen_emb = self.api.alloc_emb(child.queue, 1)[0]
        child._owned_embeds = [child._gen_emb]
        child._has_hidden = False
        child._freed = False
        return child

    async def refresh_hidden(self) -> None:
        """Recompute the last token's hidden state (needed after fork).

        Re-embeds the final cached token and runs a single forward over the
        cached prefix (minus that token) — one decode-step of work, no
        re-prefill of the whole context.
        """
        self._check_usable()
        if not self.token_ids:
            raise ReproError("cannot refresh an empty context")
        last_token = self.token_ids[-1]
        position = self.num_tokens - 1
        self.api.embed_txt(self.queue, [last_token], [position], [self._gen_emb])
        self.api.forward(
            self.queue,
            ikv=self._pages,
            iemb=[self._gen_emb],
            okv=[],
            oemb=[self._gen_emb],
        )
        await self.api.synchronize(self.queue)
        self._has_hidden = True

    # -- prefix export / import --------------------------------------------------------------------

    def export_prefix(self, name: str) -> None:
        """Publish this context's KV pages for reuse by other inferlets."""
        self._check_usable()
        if not self._pages:
            raise ReproError("nothing to export: the context has no cached pages")
        self.api.export_kvpage(self._pages, name)

    @classmethod
    async def from_export(
        cls,
        api: InferletContext,
        name: str,
        prefix_tokens: Sequence[int],
        model: Optional[str] = None,
        sampling: Optional[SamplingParams] = None,
    ) -> "Context":
        """Build a context on top of an exported (shared) prefix.

        ``prefix_tokens`` is the token sequence the export corresponds to;
        the importer needs it to continue the position numbering and to
        detokenize.  The imported pages are sealed (read-only).
        """
        context = cls(api, model=model, sampling=sampling)
        imported = api.import_kvpage(name, model=context.model)
        prefix_tokens = list(prefix_tokens)
        context._pages = list(imported)
        context._write_cursor = len(imported)
        fills = []
        remaining = len(prefix_tokens)
        for _ in imported:
            take = min(context.page_size, remaining)
            fills.append(take)
            remaining -= take
        context._page_fill = fills
        context.token_ids = prefix_tokens
        context._visible = [True] * len(prefix_tokens)
        await context.refresh_hidden()
        return context

    # -- cleanup -----------------------------------------------------------------------------------------

    def free(self) -> None:
        """Deallocate every resource this context owns (idempotent)."""
        if self._freed:
            return
        if self._owned_pages:
            self.api.dealloc_kvpage(self.queue, self._owned_pages)
        if self._owned_embeds:
            self.api.dealloc_emb(self.queue, self._owned_embeds)
        self._freed = True

    def _check_usable(self) -> None:
        if self._freed:
            raise ReproError("this Context has been freed")
