"""The host-speed reference: a fixed kernel timed beside the workload.

This box is a 2-vCPU virtual machine whose neighbours slow it by 10-40 %
for minutes at a time, so raw CPU seconds of one commit drift by more than
any bound this benchmark could set.  The worker therefore runs this kernel
between slices of the timed section, off the workload's clock, and counts
each slice's CPU seconds at the speed the kernel ran at beside it:
``slice_cpu * NOMINAL_S / kernel_cpu``.  Host times are thus CPU seconds of
a host that runs the kernel in ``NOMINAL_S`` -- this box when it is quiet.

The kernel mixes what the simulator mixes (interpreter-bound dict, heap and
attribute traffic; small float32 matmuls, a softmax and a page gather), is
about 2 ms long, and must never change: a change here rescales every host
metric.  It calls nothing under ``src/``, so a faster simulator cannot
speed it up.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: What one run of the kernel takes on this box with quiet neighbours.
NOMINAL_S = 0.0021

_WEIGHTS = np.full((64, 64), 0.01, dtype=np.float32)
_PAGES = np.ones((2048, 64), dtype=np.float32)
_GATHER = (np.arange(256) * 7) % 2048
_ROWS = np.ones((16, 64), dtype=np.float32)


class _Record:
    __slots__ = ("count", "level")

    def __init__(self) -> None:
        self.count, self.level = 0, 1.0


def sample() -> float:
    """CPU seconds of one run of the kernel with warm caches.

    The kernel runs twice and the second run is timed: the first refills
    the caches the workload has just used (it runs 14 % slower), so the
    workload's own footprint does not pass for a slower host."""
    _kernel()
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def _kernel() -> None:
    table, heap, record, log = {}, [], _Record(), []
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        record.count += key
        record.level = record.level * 0.5 + key
        heapq.heappush(heap, (key, i))
        if i & 1:
            heapq.heappop(heap)
        log.append(record.count)
    rows = _ROWS
    for _ in range(12):
        context = _PAGES[_GATHER]
        rows = np.tanh(rows @ _WEIGHTS)
        scores = rows @ context.T
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        scores /= scores.sum(axis=1, keepdims=True)
        rows = scores @ context
