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

import numpy as np

from repro.errors import ReproError
from repro.core.api import InferletContext
from repro.core.handles import Embed, KvPage, Queue
from repro.model.sampling import TokenDistribution
from repro.sim.futures import SimFuture
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
        # The last chosen token, counted in ``token_ids`` but not yet in the
        # KV cache: the next call that reads the context writes it first.
        self._pending: Optional[int] = None
        # A fork's copies into this context (the parent's hidden state, the
        # parent's partial last page), in flight on the queue that issued
        # them.  Every device call waits for them first.
        self._landing: List[SimFuture] = []
        self._landing_queue = self.queue
        self._freed = False

    # -- inspection ---------------------------------------------------------

    @property
    def num_tokens(self) -> int:
        return len(self.token_ids)

    @property
    def num_cached_tokens(self) -> int:
        """Tokens written to the KV cache (a pending token is not yet)."""
        return sum(self._page_fill)

    @property
    def pages(self) -> List[KvPage]:
        """The context's KV pages, for a device call the caller issues:
        a pending token is written into them first."""
        self._write_pending()
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
        """Embed and prefill the prompt, leaving the last hidden state ready.

        A pending token rides in front of the prompt: one embed and one
        forward write both.  Nothing waits for the prefill: later readers
        queue behind it, and :meth:`export_prefix` waits for it first."""
        self._check_usable()
        await self._landed()
        tokens = (
            self.api.tokenize(self.queue, prompt) if isinstance(prompt, str) else list(prompt)
        )
        if not tokens:
            return
        pending = [] if self._pending is None else [self._pending]
        self._pending = None
        written = pending + tokens
        positions = list(range(self.num_tokens - len(pending), self.num_tokens + len(tokens)))
        self._ensure_capacity(len(written))
        prompt_embeds = self.api.alloc_emb(self.queue, len(written))
        self.api.embed_txt(self.queue, written, positions, prompt_embeds)
        self.api.forward(
            self.queue,
            ikv=self._pages,
            iemb=prompt_embeds,
            okv=self._writable_pages(),
            oemb=[self._gen_emb],
        )
        self.api.dealloc_emb(self.queue, prompt_embeds)
        self.token_ids.extend(tokens)
        self._visible.extend([True] * len(tokens))
        self._record_written(len(written))
        self._has_hidden = True

    # -- decoding ------------------------------------------------------------------

    async def next_dist(
        self, top_k: Optional[int] = None, temperature: float = 1.0
    ) -> TokenDistribution:
        """Next-token distribution at the current position.

        A pending token's write is issued first; the queue keeps the sample
        behind the forward whose hidden state it reads."""
        self._check_usable()
        if not self._has_hidden and self._pending is None:
            raise ReproError("call fill() before sampling from the context")
        await self._landed()
        self._write_pending()
        return await self.api.get_next_dist(
            self.queue, self._gen_emb, top_k=top_k, temperature=temperature
        )

    async def append_token(self, token: int) -> None:
        """Append a chosen token; its KV is written by the next call that
        reads the context (:meth:`next_dist`, :meth:`fill`, :meth:`fork`,
        ...), never if none does.  An earlier pending token is written now."""
        self._check_usable()
        await self._landed()
        self._write_pending()
        self.token_ids.append(token)
        self._visible.append(True)
        self._pending = token

    def _write_pending(self) -> None:
        """Issue the pending token's write: one embed and a one-token
        forward into the cache, leaving its hidden state in the slot."""
        token = self._pending
        if token is None:
            return
        self._pending = None
        self._ensure_capacity(1)
        self.api.embed_txt(self.queue, [token], [self.num_tokens - 1], [self._gen_emb])
        self.api.forward(
            self.queue,
            ikv=self._pages,
            iemb=[self._gen_emb],
            okv=self._writable_pages(),
            oemb=[self._gen_emb],
        )
        self._record_written(1)
        self._has_hidden = True

    async def generate_once(
        self,
        params: Optional[SamplingParams] = None,
        allowed: Optional[Sequence[int]] = None,
    ) -> int:
        """Sample one token, append it, and return it.

        The token counts as output once chosen; its KV write waits for the
        next call that reads the context (:meth:`append_token`)."""
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
        if not 0 <= start <= end <= self.num_tokens:
            raise ReproError(f"invalid mask range [{start}, {end})")
        await self._landed()
        self._write_pending()
        for index in range(start, end):
            self._visible[index] = visible
        first_page = start // self.page_size
        last_page = (max(start, end - 1)) // self.page_size
        for page_index in range(first_page, last_page + 1):
            page_start = page_index * self.page_size
            mask = self._visible[page_start : page_start + self.page_size]
            mask += [True] * (self.page_size - len(mask))
            self.api.mask_kvpage(self.queue, self._pages[page_index], mask)

    # -- forking (tree-structured generation) ------------------------------------------------

    def fork(self, queue: Optional[Queue] = None) -> "Context":
        """Create a child context sharing this context's cached prefix.

        The child reads the parent's full KV pages but never writes to them;
        divergent tokens go to pages of its own.  A partial last page is
        copied into one of them (``copy_kvpage``), so neither context sees
        the tokens the other appends, and the parent's last hidden state is
        copied into the child's slot (``copy_emb``): a fork runs no forward.
        The copies ride the parent's queue, ahead of anything it issues
        next, and the child's first device call waits for them.  Giving
        each child its own command queue lets the batch scheduler run
        sibling branches in the same device batch (horizontal batching).
        """
        self._check_usable()
        self._write_pending()
        # Copies into a context still in flight: its children's copies ride
        # behind them, and its own next call waits for theirs too.
        source = self._landing_queue if self._landing else self.queue
        cursor = self._write_cursor
        child = Context.__new__(Context)
        child.api = self.api
        child.queue = queue if queue is not None else self.api.create_queue(self.model)
        child.model = self.model
        child.page_size = self.page_size
        child.sampling = self.sampling
        child.token_ids = list(self.token_ids)
        child.generated_ids = []
        child._pages = self._pages[:cursor]
        child._page_fill = self._page_fill[:cursor]
        child._write_cursor = cursor
        child._owned_pages = []
        child._visible = list(self._visible)
        child._gen_emb = self.api.alloc_emb(child.queue, 1)[0]
        child._owned_embeds = [child._gen_emb]
        child._landing = []
        child._landing_queue = source
        child._freed = False
        fill = self._page_fill[cursor] if cursor < len(self._pages) else 0
        if fill:
            own = self.api.alloc_kvpage(child.queue, 1)[0]
            child._pages.append(own)
            child._page_fill.append(fill)
            child._owned_pages.append(own)
            slots = list(range(fill))
            child._landing.append(
                self.api.copy_kvpage(source, self._pages[cursor], own, slots, slots)
            )
        child._has_hidden = self._has_hidden
        child._pending = None
        if self._has_hidden:
            child._landing.append(self.api.copy_emb(source, [self._gen_emb], [child._gen_emb]))
        if self._landing:
            self._landing += child._landing
        return child

    async def _landed(self) -> None:
        """Wait for the copies a fork issued into this context."""
        landing, self._landing = self._landing, []
        for future in landing:
            await future

    async def refresh_hidden(self) -> None:
        """Make the last token's hidden state current.

        After :meth:`fork` this waits for the parent's hidden state to land
        in the child's slot.  Otherwise (a changed mask, a second call) it
        re-embeds the final cached token and runs a single forward over the
        cached prefix minus that token — one decode-step of work, no
        re-prefill of the whole context.
        """
        self._check_usable()
        if not self.token_ids:
            raise ReproError("cannot refresh an empty context")
        copied = self._has_hidden and bool(self._landing)
        await self._landed()
        self._write_pending()
        if copied:
            return
        last_token = self.token_ids[-1]
        position = self.num_tokens - 1
        cached = self.num_cached_tokens
        # The token's K/V is cached already: the query hides that copy, so
        # it attends to itself once, as it did when it was written.
        mask = np.ones((1, cached + 1), dtype=bool)
        mask[0, cached - 1] = False
        self.api.embed_txt(self.queue, [last_token], [position], [self._gen_emb])
        self.api.forward(
            self.queue,
            ikv=self._pages,
            iemb=[self._gen_emb],
            okv=[],
            oemb=[self._gen_emb],
            mask=mask,
        )
        self._has_hidden = True

    # -- prefix export / import --------------------------------------------------------------------

    async def export_prefix(self, name: str) -> bool:
        """Publish this context's KV pages for reuse by other inferlets,
        once every write into them issued so far has retired: an importer
        reads them from its own queue, which orders nothing behind ours.
        Returns whether it published: of programs that filled the prefix
        together, the first publishes it and the rest keep their pages."""
        self._check_usable()
        await self._landed()
        self._write_pending()
        if not self._pages:
            raise ReproError("nothing to export: the context has no cached pages")
        await self.api.synchronize(self.queue)
        if name in self.api.list_exports(self.model):
            return False
        self.api.export_kvpage(self._pages, name)
        return True

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
        detokenize.  The imported pages before the prefix's last page are
        sealed (read-only); the tokens of its last page — at most one page,
        and one the exporter may still be writing — are prefilled into a
        page of the importer's own, which leaves the last hidden state ready.
        """
        prefix_tokens = list(prefix_tokens)
        context = cls(api, model=model, sampling=sampling)
        imported = api.import_kvpage(name, model=context.model)
        sealed = (len(prefix_tokens) - 1) // context.page_size
        if not prefix_tokens or sealed >= len(imported):
            raise ReproError(
                f"export {name!r} holds {len(imported)} pages, "
                f"not the {len(prefix_tokens)} prefix tokens given"
            )
        context._pages = imported[:sealed]
        context._page_fill = [context.page_size] * sealed
        context._write_cursor = sealed
        cut = sealed * context.page_size
        context.token_ids = prefix_tokens[:cut]
        context._visible = [True] * cut
        await context.fill(prefix_tokens[cut:])
        return context

    # -- cleanup -----------------------------------------------------------------------------------------

    def free(self) -> None:
        """Deallocate every resource this context owns (idempotent).

        A pending token is never written: nothing will read it."""
        if self._freed:
            return
        # Behind the fork's copies into them, when those are still in flight.
        queue = self._landing_queue if self._landing else self.queue
        if self._owned_pages:
            self.api.dealloc_kvpage(queue, self._owned_pages)
        if self._owned_embeds:
            self.api.dealloc_emb(queue, self._owned_embeds)
        self._freed = True

    def _check_usable(self) -> None:
        if self._freed:
            raise ReproError("this Context has been freed")
