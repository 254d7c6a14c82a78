"""Shared helpers for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import InferletProgram, PieServer
from repro.core.config import PieConfig
from repro.core.metrics import InferletMetrics, SystemMetrics
from repro.core.server import LaunchResult
from repro.errors import AdmissionRejectedError
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


@dataclass(frozen=True)
class Launch:
    """One fleet entry: which program, when, and how it is launched."""

    program: InferletProgram
    #: Seconds after the run starts.  ``None`` launches directly; a zero
    #: delay still takes the ``sim.sleep`` hop (one more event, a different
    #: interleaving), so the two are not interchangeable.
    delay: Optional[float] = None
    #: Keyword arguments of ``PieServer.run_inferlet`` (``args``, ``tenant``).
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class FleetRun:
    """What one fleet did: a result per entry, in fleet order, plus the
    handful of readings every arm reports."""

    fleet: Sequence[Launch]
    results: List[LaunchResult]
    elapsed: float
    #: The server's own counters (cumulative over everything it has served).
    metrics: SystemMetrics

    @property
    def finished(self) -> int:
        return sum(1 for result in self.results if result.status == "finished")

    def results_of(self, programs: Sequence[InferletProgram]) -> List[LaunchResult]:
        """Results of the entries that launched one of ``programs``, in fleet
        order.  Grouping is by program, never by what the result looks like:
        a launch that failed or was reclaimed (``result is None``) is still
        its program's."""
        names = {program.name for program in programs}
        return [
            result
            for launch, result in zip(self.fleet, self.results)
            if launch.program.name in names
        ]

    def records_of(self, programs: Sequence[InferletProgram]) -> List[InferletMetrics]:
        """Per-inferlet records (TTFT, TPOT, status) of those entries; one
        that never got as far as running has none."""
        records = (
            self.metrics.per_inferlet.get(result.instance_id)
            for result in self.results_of(programs)
        )
        return [record for record in records if record is not None]

    def readings(self) -> Dict[str, Any]:
        return {
            "finished": self.finished,
            "elapsed": self.elapsed,
            "total_output_tokens": self.metrics.total_output_tokens,
            "token_throughput": ratio(self.metrics.total_output_tokens, self.elapsed),
            "forward_input_tokens": self.metrics.forward_input_tokens,
        }


def launch_fleet(server: PieServer, fleet: Sequence[Launch]) -> FleetRun:
    """Run a fleet of programs with launch times to completion.

    Registers the programs not yet on the server, creates one task per
    entry **in list order**, and gathers.  List order is the contract:
    the lifecycle manager hands out sampling seeds as launches arrive, so
    two entries due at the same instant launch — and are seeded — in the
    order the fleet lists them, and ``results[i]`` belongs to ``fleet[i]``.

    A launch that admission control refuses is *shed*, not failed: the
    typed :class:`~repro.errors.AdmissionRejectedError` becomes that entry's
    result (``status="rejected"``, the error's ``reason`` kept) and the rest
    of the fleet runs on.  Any other exception is a bug and still fails the
    run.
    """
    sim = server.sim
    registered = set(server.lifecycle.program_names())
    for launch in fleet:
        if launch.program.name not in registered:
            server.register_program(launch.program)
            registered.add(launch.program.name)
    start = sim.now

    async def one(launch: Launch) -> LaunchResult:
        if launch.delay is not None:
            await sim.sleep(launch.delay)
        try:
            return await server.run_inferlet(launch.program.name, **launch.kwargs)
        except AdmissionRejectedError as exc:
            return LaunchResult(instance_id="", status="rejected", result=None, reason=exc.reason)

    async def run_all():
        return await sim.gather([sim.create_task(one(launch)) for launch in fleet])

    results = sim.run_until_complete(run_all())
    return FleetRun(fleet, results, sim.now - start, server.metrics)


def run_pie_concurrent(
    server: PieServer,
    programs: Sequence[InferletProgram],
    args_list: Optional[Sequence] = None,
) -> Tuple[List, float]:
    """Run several inferlets concurrently; returns (results, elapsed seconds)."""
    args_list = args_list or [None] * len(programs)
    run = launch_fleet(
        server,
        [Launch(program, kwargs={"args": args}) for program, args in zip(programs, args_list)],
    )
    return run.results, run.elapsed


def run_concurrent_coros(sim: Simulator, coros: Sequence) -> Tuple[List, float]:
    """Run arbitrary coroutines concurrently on a simulator; (results, elapsed).

    The launcher for the baseline engines, which are not inferlets."""
    start = sim.now

    async def run_all():
        tasks = [sim.create_task(coro) for coro in coros]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    return results, sim.now - start


def ratio(numerator: float, denominator: float) -> float:
    """The harness's one guarded division: 0.0 when the denominator is not
    positive (items per second of a run that took no time, a speedup over
    an arm that measured nothing)."""
    if denominator <= 0:
        return 0.0
    return numerator / denominator


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
