"""Fork/join parallelism helpers (SGLang-style, §6.3).

Tree-structured strategies (Tree-of-Thought, Skeleton-of-Thought, beam
variants) fork a shared context into several branches, run them
concurrently — the batch scheduler merges their forward calls into shared
device batches — and join on all results.
"""

from __future__ import annotations

from typing import Awaitable, Callable, List, Sequence, TypeVar

from repro.core.api import InferletContext
from repro.support.context import Context

T = TypeVar("T")


async def fork_join(
    api: InferletContext,
    parent: Context,
    branch_fn: Callable[[Context, int], Awaitable[T]],
    n_branches: int,
    refresh: bool = True,
) -> List[T]:
    """Fork ``parent`` into ``n_branches`` children and run them concurrently.

    ``branch_fn(child_context, index)`` is invoked per branch; its results
    are returned in branch order.  Children are freed afterwards.
    """
    children = [parent.fork() for _ in range(n_branches)]
    if refresh:
        # One decode-step each to rebuild the branch's last hidden state.
        await api._sim.gather([api._sim.create_task(child.refresh_hidden()) for child in children])
    tasks = [
        api._sim.create_task(branch_fn(child, index), name=f"branch-{index}")
        for index, child in enumerate(children)
    ]
    try:
        results = await api._sim.gather(tasks)
    finally:
        for child in children:
            child.free()
    return results


async def run_parallel(api: InferletContext, coros: Sequence[Awaitable[T]]) -> List[T]:
    """Run independent coroutines concurrently on the inferlet's runtime."""
    tasks = [api._sim.create_task(coro) for coro in coros]
    return await api._sim.gather(tasks)
