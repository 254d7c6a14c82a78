"""Deterministic fault injection on the virtual clock (the chaos plane).

Production serving means partial failure: devices crash, interconnects
flap, tool backends time out.  This module gives the simulated cluster a
*replayable* failure schedule — a :class:`FaultPlan` of typed entries on
the virtual clock, executed by a :class:`FaultInjector` that draws no
randomness at all (:meth:`FaultPlan.generate` draws a plan from its own
seeded generator).  The simulator's generator is never touched, so a chaos
run perturbs the workload only through the faults themselves, and the
same ``fault_plan`` replays bit-identically against any workload seed.

Fault entry grammar (plain tuples so plans can live inside the frozen
:class:`~repro.core.config.ControlLayerConfig`):

``("shard_crash", time_s, shard_index)``
    Fail-stop the shard's device: new batch submissions fail with
    :class:`~repro.errors.FaultInjectedError`; the health service's next
    heartbeat marks the shard ``down`` and runs the failover sweep.
``("shard_slowdown", time_s, shard_index, multiplier, duration_s)``
    Multiply the device's batch execution cost for ``duration_s``
    (a straggler / thermal-throttle model); the heartbeat marks the
    shard ``degraded`` while the multiplier is above 1.
``("link_flap", time_s, duration_s)``
    Every live disaggregation KV link is busied out for ``duration_s``
    (transfers queue behind the outage; pure ``_busy_until`` arithmetic,
    no rng draws).
``("link_spike", time_s, extra_delay_s, duration_s)``
    Add ``extra_delay_s`` of one-way latency to every live KV link for
    ``duration_s``.
``("tool_error", time_s, duration_s[, url])`` /
``("tool_timeout", time_s, duration_s[, url])``
    While the window is open, ``http_get``/``http_post`` calls (to
    ``url``, or to any endpoint when omitted) fail with
    :class:`~repro.errors.FaultInjectedError`; the timeout flavour first
    wastes :data:`FaultInjector.TOOL_TIMEOUT_S` of simulated client-side
    waiting.  The controller's retry policy backs off and re-attempts.

Every injected fault lands as an instant in the ``"fault"`` trace
category, so chaos runs read directly off the Perfetto timeline.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultInjector"]

#: Every fault kind the injector understands.
FAULT_KINDS = (
    "shard_crash",
    "shard_slowdown",
    "link_flap",
    "link_spike",
    "tool_error",
    "tool_timeout",
)


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
        """Raise :class:`ReproError` unless every entry fits the grammar."""
        for entry in entries:
            if not isinstance(entry, (tuple, list)) or len(entry) < 2:
                raise ReproError(f"fault entry must be (kind, time_s, ...), got {entry!r}")
            kind, time_s = entry[0], entry[1]
            if kind not in FAULT_KINDS:
                raise ReproError(f"unknown fault kind {kind!r}; have {FAULT_KINDS}")
            if not isinstance(time_s, (int, float)) or time_s < 0:
                raise ReproError(f"fault time must be a non-negative number: {entry!r}")
            if kind == "shard_crash":
                if len(entry) != 3 or not 0 <= int(entry[2]) < num_shards:
                    raise ReproError(
                        f"shard_crash needs (kind, time_s, shard_index < {num_shards}): {entry!r}"
                    )
            elif kind == "shard_slowdown":
                if (
                    len(entry) != 5
                    or not 0 <= int(entry[2]) < num_shards
                    or entry[3] < 1.0
                    or entry[4] <= 0
                ):
                    raise ReproError(
                        "shard_slowdown needs (kind, time_s, shard_index, "
                        f"multiplier >= 1, duration_s > 0): {entry!r}"
                    )
            elif kind == "link_flap":
                if len(entry) != 3 or entry[2] <= 0:
                    raise ReproError(
                        f"link_flap needs (kind, time_s, duration_s > 0): {entry!r}"
                    )
            elif kind == "link_spike":
                if len(entry) != 4 or entry[2] < 0 or entry[3] <= 0:
                    raise ReproError(
                        "link_spike needs (kind, time_s, extra_delay_s >= 0, "
                        f"duration_s > 0): {entry!r}"
                    )
            else:  # tool_error / tool_timeout
                if len(entry) not in (3, 4) or entry[2] <= 0:
                    raise ReproError(
                        f"{kind} needs (kind, time_s, duration_s > 0[, url]): {entry!r}"
                    )

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float,
        num_shards: int,
        n_faults: int = 4,
        kinds: Sequence[str] = FAULT_KINDS,
        protect_shards: Sequence[int] = (),
    ) -> Tuple[tuple, ...]:
        """Draw a random plan from a dedicated seeded generator.

        Pure function of its arguments — the chaos interleaving suites
        derive one plan per test seed.  ``protect_shards`` keeps listed
        shard indexes out of crash/slowdown draws (e.g. shard 0 so at
        least one prefill shard survives a disaggregated run).
        """
        rng = np.random.default_rng(seed)
        candidates = [i for i in range(num_shards) if i not in set(protect_shards)]
        entries: List[tuple] = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            time_s = float(rng.uniform(0.0, horizon_s))
            if kind in ("shard_crash", "shard_slowdown") and not candidates:
                kind = "tool_error"
            if kind == "shard_crash":
                entries.append((kind, time_s, candidates[int(rng.integers(len(candidates)))]))
            elif kind == "shard_slowdown":
                entries.append(
                    (
                        kind,
                        time_s,
                        candidates[int(rng.integers(len(candidates)))],
                        float(rng.uniform(1.5, 4.0)),
                        float(rng.uniform(0.1, 0.5) * horizon_s),
                    )
                )
            elif kind == "link_flap":
                entries.append((kind, time_s, float(rng.uniform(0.05, 0.3) * horizon_s)))
            elif kind == "link_spike":
                entries.append(
                    (
                        kind,
                        time_s,
                        float(rng.uniform(0.001, 0.01)),
                        float(rng.uniform(0.1, 0.5) * horizon_s),
                    )
                )
            else:
                entries.append((kind, time_s, float(rng.uniform(0.05, 0.3) * horizon_s)))
        plan = cls(entries).entries
        cls.validate(plan, num_shards)
        return plan


class _ToolWindow:
    """One open tool-fault window: calls inside it fail."""

    __slots__ = ("kind", "start", "end", "url")

    def __init__(self, kind: str, start: float, end: float, url: Optional[str]) -> None:
        self.kind = kind
        self.start = start
        self.end = end
        self.url = url

    def matches(self, url: str, now: float) -> bool:
        return self.start <= now < self.end and (self.url is None or self.url == url)


class FaultInjector:
    """Replays a :class:`FaultPlan` against a live cluster.

    Built by the controller only when ``ControlLayerConfig.faults`` is on,
    after the shard health service; the off-knob serving path never
    constructs one.  Shard and link faults go to ``health``, which also
    knows the live KV links; tool faults are answered synchronously via
    :meth:`tool_fault` from the controller's ``http_request`` path.
    """

    #: Simulated client-side wait burned by one ``tool_timeout`` attempt.
    TOOL_TIMEOUT_S = 0.05

    def __init__(self, sim, plan: Sequence[tuple], health, metrics, trace=None) -> None:
        self.sim = sim
        self.plan = FaultPlan(plan)
        self.health = health
        self.metrics = metrics
        self.trace = trace
        #: Every fault fired so far, in firing order — exported with the
        #: monitor snapshot so SLO reports can line alerts up with causes.
        self.injected: List[dict] = []
        self._tool_windows: List[_ToolWindow] = []

    def arm(self) -> None:
        """Schedule every plan entry on the virtual clock (call once)."""
        now = self.sim.now
        for entry in self.plan:
            self.sim.schedule(max(0.0, entry[1] - now), self._fire, entry)

    # -- firing ------------------------------------------------------------

    def _fire(self, entry: tuple) -> None:
        kind = entry[0]
        self.injected.append(
            {"time": self.sim.now, "kind": kind, "entry": list(entry)}
        )
        self.metrics.faults_injected += 1
        if self.trace is not None:
            self.trace.instant(
                f"fault_{kind}", "fault", args={"entry": list(entry)}
            )
        if kind == "shard_crash":
            self.metrics.shard_crashes += 1
            self.health.inject_shard_crash(int(entry[2]))
        elif kind == "shard_slowdown":
            self.metrics.shard_slowdowns += 1
            self.health.inject_shard_slowdown(int(entry[2]), float(entry[3]), float(entry[4]))
        elif kind == "link_flap":
            self._apply_link_fault(lambda link: link.inject_outage(self.sim.now, float(entry[2])))
        elif kind == "link_spike":
            extra, duration = float(entry[2]), float(entry[3])
            restored = self._apply_link_fault(lambda link: link.inject_delay(extra))
            self.sim.schedule(
                duration,
                lambda: [link.inject_delay(-extra) for link in restored],
            )
        else:  # tool_error / tool_timeout
            url = entry[3] if len(entry) > 3 else None
            start = float(entry[1])
            self._tool_windows.append(
                _ToolWindow(kind, start, start + float(entry[2]), url)
            )

    def _apply_link_fault(self, apply: Callable) -> list:
        """Apply one fault to every live KV link; returns the links hit.

        Links are created lazily per (src, dst) pair, so a fault firing
        before any stream exists is a recorded no-op — the trace instant
        still lands, carrying ``links=0``.
        """
        links = self.health.live_links()
        for link in links:
            apply(link)
        self.metrics.link_faults += 1
        return links

    # -- tool faults --------------------------------------------------------

    def tool_fault(self, url: str, now: float) -> Optional[str]:
        """The fault kind an ``http`` attempt at ``now`` hits, if any."""
        for window in self._tool_windows:
            if window.matches(url, now):
                return window.kind
        return None
