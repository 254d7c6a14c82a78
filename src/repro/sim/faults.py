"""Deterministic fault injection on the virtual clock (the chaos plane).

Production serving means partial failure: a device crashes mid-run.  This
module gives the simulated cluster a *replayable* failure schedule — a
:class:`FaultPlan` of typed entries on the virtual clock, executed by a
:class:`FaultInjector` that draws no randomness at all.  The simulator's
generator is never touched, so a chaos run perturbs the workload only
through the faults themselves, and the same ``fault_plan`` replays
bit-identically against any workload seed.

Fault entry grammar (plain tuples so plans can live inside the frozen
:class:`~repro.core.config.ControlLayerConfig`):

``("shard_crash", time_s, shard_index)``
    Fail-stop the shard's device: new batch submissions fail with
    :class:`~repro.errors.FaultInjectedError`; the health service's next
    heartbeat marks the shard ``down`` and runs the failover sweep.

Every injected fault is kept in :attr:`FaultInjector.injected`, which the
monitor's snapshot document exports under ``"faults"``.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultInjector"]

#: Every fault kind the injector understands.
FAULT_KINDS = ("shard_crash",)


class FaultPlan:
    """A validated, time-ordered schedule of fault entries."""

    def __init__(self, entries: Sequence[tuple] = ()) -> None:
        self.entries: Tuple[tuple, ...] = tuple(
            sorted((tuple(entry) for entry in entries), key=lambda e: (e[1], e[0]))
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @staticmethod
    def validate(entries: Sequence[tuple], num_shards: int) -> None:
        """Raise :class:`ReproError` unless every entry fits the grammar.

        A plan arrives from outside, so nothing is coerced: the time is a
        finite, non-negative real and the index an ``int`` (not a ``bool``)
        naming one of the ``num_shards`` shards."""
        for entry in entries:
            if not isinstance(entry, (tuple, list)) or len(entry) < 2:
                raise ReproError(f"fault entry must be (kind, time_s, ...), got {entry!r}")
            if entry[0] not in FAULT_KINDS:
                raise ReproError(f"unknown fault kind {entry[0]!r}; have {FAULT_KINDS}")
            time_s = entry[1]
            if (
                not isinstance(time_s, numbers.Real)
                or isinstance(time_s, bool)
                or not math.isfinite(time_s)
                or time_s < 0
            ):
                raise ReproError(f"fault time must be a finite non-negative number: {entry!r}")
            index = entry[2] if len(entry) == 3 else None
            if (
                not isinstance(index, numbers.Integral)
                or isinstance(index, bool)
                or not 0 <= index < num_shards
            ):
                raise ReproError(
                    f"shard_crash needs (kind, time_s, shard_index < {num_shards}): {entry!r}"
                )


class FaultInjector:
    """Replays a :class:`FaultPlan` against a live cluster.

    Built by every controller, after the shard health service, from
    ``ControlLayerConfig.fault_plan`` (empty: it schedules nothing).  Each
    crash goes to ``health``.
    """

    def __init__(self, sim, plan: Sequence[tuple], health, metrics) -> None:
        self.sim = sim
        self.plan = FaultPlan(plan)
        self.health = health
        self.metrics = metrics
        #: Every fault fired so far, in firing order — exported with the
        #: monitor snapshot so SLO reports can line alerts up with causes.
        self.injected: List[dict] = []

    def arm(self) -> None:
        """Schedule every plan entry on the virtual clock (call once)."""
        now = self.sim.now
        for entry in self.plan:
            self.sim.schedule(max(0.0, entry[1] - now), self._fire, entry)

    def _fire(self, entry: tuple) -> None:
        kind = entry[0]
        self.injected.append(
            {"time": self.sim.now, "kind": kind, "entry": list(entry)}
        )
        self.metrics.faults_injected += 1
        self.metrics.shard_crashes += 1
        self.health.inject_shard_crash(int(entry[2]))
