"""Discrete-event simulation kernel.

All of the repro package runs on a deterministic discrete-event simulator:
the Pie serving system, the baseline monolithic engines, remote clients and
external tools are coroutines scheduled on a single :class:`Simulator`.

The kernel purposefully mirrors a tiny subset of ``asyncio``:

* :class:`SimFuture` — an awaitable, single-assignment result cell.
* :class:`Task` — a coroutine driven by the simulator; itself awaitable.
* :class:`Simulator` — the event loop with a virtual clock.

Virtual time is measured in **seconds** (floats).  Latency models convert
from milliseconds/microseconds where that reads more naturally.
"""

from repro.sim.futures import SimFuture
from repro.sim.tasks import Task
from repro.sim.simulator import Simulator
from repro.sim.latency import LatencyModel, ConstantLatency, UniformLatency, NormalLatency
from repro.sim.network import NetworkLink
from repro.sim.periodic import PeriodicService
from repro.sim.faults import FAULT_KINDS, FaultInjector, FaultPlan

__all__ = [
    "SimFuture",
    "Task",
    "Simulator",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "NormalLatency",
    "NetworkLink",
    "PeriodicService",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
]
