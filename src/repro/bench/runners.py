"""Shared helpers for the experiment modules."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core import InferletProgram, PieServer
from repro.core.config import PieConfig
from repro.sim import Simulator
from repro.workloads import ToolEnvironment


def make_pie_setup(
    models: Sequence[str] = ("llama-sim-1b",),
    config: Optional[PieConfig] = None,
    seed: int = 0,
    with_tools: bool = True,
    **overrides,
) -> Tuple[Simulator, PieServer]:
    """Create a simulator + Pie server + standard tool environment.

    ``overrides`` are :class:`~repro.core.server.PieServer`'s configuration
    shorthands, forwarded as they are (``num_devices=4``,
    ``prefix_cache=True``, ``tenants=[...]``, ``fault_plan=[...]``, ...).
    """
    sim = Simulator(seed=seed)
    server = PieServer(sim, models=list(models), config=config, **overrides)
    if with_tools:
        ToolEnvironment(sim, server.external)
    return sim, server


def run_pie_single(server: PieServer, program: InferletProgram, args=None):
    """Run one inferlet to completion; returns its LaunchResult."""
    server.register_program(program)
    return server.sim.run_until_complete(server.run_inferlet(program.name, args))


def run_pie_concurrent(
    server: PieServer,
    programs: Sequence[InferletProgram],
    args_list: Optional[Sequence] = None,
) -> Tuple[List, float]:
    """Run several inferlets concurrently; returns (results, elapsed seconds)."""
    sim = server.sim
    for program in programs:
        if program.name not in server.lifecycle.program_names():
            server.register_program(program)
    args_list = args_list or [None] * len(programs)
    start = sim.now

    async def run_all():
        tasks = [
            sim.create_task(server.run_inferlet(program.name, args))
            for program, args in zip(programs, args_list)
        ]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    return results, sim.now - start


def run_concurrent_coros(sim: Simulator, coros: Sequence) -> Tuple[List, float]:
    """Run arbitrary coroutines concurrently on a simulator; (results, elapsed)."""
    start = sim.now

    async def run_all():
        tasks = [sim.create_task(coro) for coro in coros]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    return results, sim.now - start


def throughput(count: int, elapsed_seconds: float) -> float:
    """Items per second, guarding against zero elapsed time."""
    if elapsed_seconds <= 0:
        return 0.0
    return count / elapsed_seconds


def normalize(values: dict, mode: str) -> dict:
    """Normalise a mapping of system -> value as the paper's figures do.

    ``mode='latency'`` divides by the largest (slowest) value, so lower is
    better; ``mode='throughput'`` divides by the largest value, so 1.0 is the
    best system.  ``None`` entries (unsupported) are preserved.
    """
    present = [v for v in values.values() if v is not None]
    if not present:
        return dict(values)
    reference = max(present)
    if reference <= 0:
        return dict(values)
    return {
        key: (None if value is None else value / reference) for key, value in values.items()
    }
