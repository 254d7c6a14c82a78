"""Host-time spans around the public entry points of each layer.

Nothing under ``src/`` carries a span: :func:`installed` replaces the listed
methods with timing wrappers inside the traced subprocess only, before the
server is built.  Self time (a span's duration minus the time its child
spans cover) is aggregated for every call; full span records are kept in
memory up to a cap and written once at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

Layer = Union[str, Callable[[tuple], str]]


def _owner(args: tuple) -> Optional[str]:
    """The inferlet a call is made for, where its first argument says."""
    if len(args) < 2:
        return None
    first = args[1]
    if isinstance(first, tuple) and first:
        first = first[0]  # scheduler queue keys are (owner, queue id)
    if isinstance(first, str):
        return first
    return getattr(first, "instance_id", None)


class SpanRecorder:
    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        virtual_now: Callable[[], float] = lambda: 0.0,
        cap: int = 250_000,
    ) -> None:
        self.clock = clock
        self.virtual_now = virtual_now
        self.cap = cap
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (id, parent id, name, layer, host start, host end, virtual time, owner)
        self.records: List[tuple] = []
        self.dropped = 0
        #: Highest KV pages allocated on one device, sampled after each alloc.
        self.kv_pages_peak = 0
        self._stack: List[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def wrap(self, name: str, layer: Layer, fn: Callable, owner=_owner, after=None) -> Callable:
        stack, clock = self._stack, self.clock

        def spanned(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                span_layer = layer if isinstance(layer, str) else layer(args)
                self.self_s[span_layer] += duration - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if len(self.records) < self.cap:
                    self.records.append(
                        (
                            frame[0],
                            parent[0] if parent is not None else None,
                            name,
                            span_layer,
                            start,
                            end,
                            self.virtual_now(),
                            owner(args),
                        )
                    )
                else:
                    self.dropped += 1

        spanned.__wrapped__ = fn
        return spanned

    def clear(self) -> None:
        """Forget what set-up recorded; the timed section starts here."""
        self.self_s.clear()
        self.calls.clear()
        self.records.clear()
        self.dropped = self.kv_pages_peak = 0

    def write(self, path: str) -> None:
        fields = ("id", "parent", "name", "layer", "host_start", "host_end", "virtual_s", "owner")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")


def _task_layer(args: tuple) -> str:
    """A task step runs whichever coroutine the task wraps: inferlet
    programs and their API awaits, the lifecycle manager's launch worker,
    the controller's tool calls, or this benchmark's request drivers."""
    name = args[0].name
    if name.startswith("ilm:"):
        return "lifecycle"
    if name.startswith("http:"):
        return "controller"
    if name in ("arrival", "client", "run_all"):
        return "harness"
    return "inferlet"


def _public(cls) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
    ]


def targets(recorder: SpanRecorder) -> List[tuple]:
    """(holder, attribute, layer, owner function, after hook) per wrapped call."""
    from repro.core import scheduler as scheduler_module
    from repro.core.controller import Controller
    from repro.core.handlers import ApiHandlers
    from repro.core.lifecycle import InferletLifecycleManager
    from repro.core.prefix_cache import PrefixCacheService
    from repro.core.resources import ResourceManager
    from repro.core.router import Router
    from repro.core.scheduler import BatchScheduler
    from repro.gpu.device import SimDevice
    from repro.model.transformer import TinyTransformer
    from repro.sim.simulator import Simulator
    from repro.sim.tasks import Task

    listed = [
        (Simulator, ["step"], "sim"),
        (InferletLifecycleManager, ["launch"], "lifecycle"),
        (Controller, _public(Controller), "controller"),
        (Router, ["place", "release"], "router"),
        (BatchScheduler, ["submit", "create_queue", "remove_queue"], "scheduler"),
        (scheduler_module, ["form_candidate_batches"], "scheduler"),
        (
            ResourceManager,
            [name for name in _public(ResourceManager) if name != "alloc_kv_pages"],
            "resources",
        ),
        (PrefixCacheService, ["begin_forward", "match_len", "record_embeds"], "prefix_cache"),
        (ApiHandlers, ["execute_batch", "batch_cost_seconds"], "handlers"),
        (TinyTransformer, ["forward", "embed_tokens", "logits"], "model"),
        (SimDevice, ["submit"], "device"),
    ]

    def note_kv_peak(args: tuple) -> None:
        allocated = args[0].memory.kv_pages.num_allocated
        recorder.kv_pages_peak = max(recorder.kv_pages_peak, allocated)

    found = [
        (holder, name, layer, _owner, None) for holder, names, layer in listed for name in names
    ]
    found.append((ResourceManager, "alloc_kv_pages", "resources", _owner, note_kv_peak))
    found.append((Task, "_step", _task_layer, lambda args: args[0].name, None))
    return found


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    for holder, name, layer, owner, after in targets(recorder):
        original = vars(holder)[name]
        originals.append((holder, name, original))
        label = f"{holder.__name__.rsplit('.', 1)[-1]}.{name}"
        setattr(holder, name, recorder.wrap(label, layer, original, owner, after))
    try:
        yield recorder
    finally:
        for holder, name, original in originals:
            setattr(holder, name, original)
