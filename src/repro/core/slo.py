"""Per-tenant SLO error budgets and multi-window burn-rate alerting.

The QoS subsystem *enforces* SLOs inside the scheduler; this module
*observes* them the way a production on-call would: the good/bad verdicts
of each tenant's TTFT and TPOT samples — decided once, on the inferlet's
record (:func:`repro.core.metrics.met`), and counted once, on the tenant's
:class:`~repro.core.metrics.TenantMetrics` — are read against an error
budget for an availability objective (``slo_target``, e.g. 0.95 = 5% of
requests may miss), and alerts fire on the *burn rate* — how many times
faster than sustainable the budget is being consumed:

    ``burn = (bad / total) / (1 - slo_target)``

A burn of 1.0 spends exactly the budget over the objective window; a burn
of 6 exhausts it six times too fast.  Following the multi-window pattern
from the SRE literature, each alert rule pairs a *long* window (evidence
the problem is real) with a *short* window (evidence it is still
happening): the alert fires when both windows burn above the threshold and
clears when the short window drops back below it — so a transient spike
neither fires (long window still clean) nor keeps a resolved incident
alive (short window recovers quickly).

Window state advances at scrape ticks (:meth:`SloEngine.tick`, driven by
the monitor's virtual-clock scraper): each tick buckets what the records
counted since the last one into a deque pruned to the longest window.
All windows are virtual-time seconds — the simulated runs replay hours of
traffic in seconds, so defaults are seconds-scale, not the SRE hours.

Fire and clear events are recorded as trace instants (category
``"alert"``) when a :class:`~repro.core.trace.TraceRecorder` is attached,
so alerts land on the Perfetto timeline next to the spans that caused
them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.core.metrics import TenantMetrics
from repro.core.qos import TenantTable

__all__ = ["BurnWindow", "AlertEvent", "SloEngine", "SIGNALS"]

#: The two latency signals tracked per tenant.
SIGNALS = ("ttft", "tpot")


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate rule (seconds of virtual time)."""

    long_s: float
    short_s: float
    threshold: float

    def __post_init__(self) -> None:
        if not self.long_s > self.short_s > 0:
            raise ReproError(
                f"burn window needs long_s > short_s > 0, got "
                f"({self.long_s}, {self.short_s})"
            )
        if self.threshold <= 0:
            raise ReproError("burn threshold must be positive")


#: Availability objective a tenant without ``TenantSpec.slo_target`` is
#: judged against: the fraction of SLO-judged samples that must meet their
#: latency target.
DEFAULT_SLO_TARGET = 0.95
#: The burn-rate rules of an engine built without its own.  Seconds-scale,
#: not the SRE handbook's hours: simulated runs compress hours of traffic
#: into seconds.  Both are read when an :class:`SloEngine` is built.
BURN_WINDOWS = (BurnWindow(2.0, 0.5, 6.0), BurnWindow(10.0, 2.0, 3.0))


@dataclass
class AlertEvent:
    """One fire or clear transition of a burn-rate alert."""

    time: float
    kind: str  # "fire" | "clear"
    tenant: str
    signal: str  # "ttft" | "tpot"
    window: int  # index into the engine's window list
    long_s: float
    short_s: float
    threshold: float
    burn_long: float
    burn_short: float


class _SignalTracker:
    """Burn-rate windows over one (tenant, signal) stream of its record."""

    def __init__(self, windows: Sequence[BurnWindow]) -> None:
        self.windows = tuple(windows)
        # The record's (met, missed) when the last bucket was closed.
        self._seen = (0, 0)
        # Closed buckets: (tick_time, good, bad), pruned to the longest
        # window at each tick, so memory is O(longest_window / scrape).
        self._buckets: Deque[Tuple[float, int, int]] = deque()
        self.active: List[bool] = [False] * len(self.windows)

    def _window_counts(self, now: float, window_s: float) -> Tuple[int, int]:
        good = bad = 0
        floor = now - window_s
        for time, g, b in reversed(self._buckets):
            if time <= floor:
                break
            good += g
            bad += b
        return good, bad

    def burn_rate(self, now: float, window_s: float, budget: float) -> float:
        good, bad = self._window_counts(now, window_s)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / budget

    def tick(
        self, now: float, verdicts: Tuple[int, int], budget: float
    ) -> List[Tuple[int, str, float, float]]:
        """Bucket the verdicts counted since the last tick and evaluate
        every window rule.

        Returns ``(window_index, kind, burn_long, burn_short)`` transitions.
        """
        if verdicts != self._seen:
            (good, bad), (seen_good, seen_bad) = verdicts, self._seen
            self._buckets.append((now, good - seen_good, bad - seen_bad))
            self._seen = verdicts
        longest = max(w.long_s for w in self.windows) if self.windows else 0.0
        floor = now - longest
        while self._buckets and self._buckets[0][0] <= floor:
            self._buckets.popleft()
        transitions: List[Tuple[int, str, float, float]] = []
        for index, window in enumerate(self.windows):
            burn_long = self.burn_rate(now, window.long_s, budget)
            burn_short = self.burn_rate(now, window.short_s, budget)
            if not self.active[index]:
                if burn_long >= window.threshold and burn_short >= window.threshold:
                    self.active[index] = True
                    transitions.append((index, "fire", burn_long, burn_short))
            else:
                if burn_short < window.threshold:
                    self.active[index] = False
                    transitions.append((index, "clear", burn_long, burn_short))
        return transitions


class SloEngine:
    """Tracks per-tenant error budgets and drives burn-rate alerts.

    Independent of the QoS *service*: the availability objective of a
    tenant is read from the controller's :class:`~repro.core.qos.TenantTable`
    (``tenants``) and its verdicts from the core's per-tenant records
    (``records``, ``SystemMetrics.tenants``); both exist whether or not QoS
    enforcement is on (the load harness runs with it off).
    """

    def __init__(
        self,
        tenants: TenantTable,
        records: Dict[str, TenantMetrics],
        windows: Optional[Sequence[BurnWindow]] = None,
        default_target: Optional[float] = None,
        trace=None,
    ) -> None:
        if windows is None:
            windows = BURN_WINDOWS
        if default_target is None:
            default_target = DEFAULT_SLO_TARGET
        if not windows:
            raise ReproError("SloEngine needs at least one burn window")
        if not 0.0 < default_target < 1.0:
            raise ReproError("slo_target must be in (0, 1)")
        self.tenants = tenants
        self.records = records
        self.windows = tuple(windows)
        self.default_target = default_target
        self._trace = trace
        self._trackers: Dict[Tuple[str, str], _SignalTracker] = {}
        #: Every fire/clear transition, in virtual-time order.
        self.alerts: List[AlertEvent] = []

    def target_for(self, tenant: str) -> float:
        target = self.tenants[tenant].slo_target
        return target if target is not None else self.default_target

    # -- scrape tick --------------------------------------------------------

    def tick(self, now: float) -> List[AlertEvent]:
        """Advance every window; returns the fire/clear transitions.

        A stream is tracked from the first tick its record holds a verdict;
        the streams tick in the order they started being tracked."""
        for tenant, record in self.records.items():
            for signal in SIGNALS:
                if (tenant, signal) not in self._trackers and any(record.verdicts(signal)):
                    self._trackers[(tenant, signal)] = _SignalTracker(self.windows)
        events: List[AlertEvent] = []
        for (tenant, signal), tracker in self._trackers.items():
            budget = 1.0 - self.target_for(tenant)
            verdicts = self.records[tenant].verdicts(signal)
            for index, kind, burn_long, burn_short in tracker.tick(now, verdicts, budget):
                window = self.windows[index]
                event = AlertEvent(
                    time=now,
                    kind=kind,
                    tenant=tenant,
                    signal=signal,
                    window=index,
                    long_s=window.long_s,
                    short_s=window.short_s,
                    threshold=window.threshold,
                    burn_long=burn_long,
                    burn_short=burn_short,
                )
                events.append(event)
                self.alerts.append(event)
                if self._trace is not None:
                    self._trace.instant(
                        f"slo_alert_{kind}",
                        "alert",
                        args={
                            "tenant": tenant,
                            "signal": signal,
                            "window": index,
                            "long_s": window.long_s,
                            "short_s": window.short_s,
                            "threshold": window.threshold,
                            "burn_long": burn_long,
                            "burn_short": burn_short,
                        },
                    )
        return events

    # -- reporting ----------------------------------------------------------

    def active_alerts(self) -> List[dict]:
        """Currently-firing (tenant, signal, window) rules."""
        active: List[dict] = []
        for (tenant, signal), tracker in sorted(self._trackers.items()):
            for index, firing in enumerate(tracker.active):
                if firing:
                    window = self.windows[index]
                    active.append(
                        {
                            "tenant": tenant,
                            "signal": signal,
                            "window": index,
                            "long_s": window.long_s,
                            "short_s": window.short_s,
                            "threshold": window.threshold,
                        }
                    )
        return active

    def budget(self, tenant: str, signal: str) -> dict:
        """Cumulative error-budget consumption of one signal stream."""
        record = self.records.get(tenant)
        good, bad = record.verdicts(signal) if record is not None else (0, 0)
        total = good + bad
        target = self.target_for(tenant)
        budget_fraction = 1.0 - target
        bad_fraction = bad / total if total else 0.0
        consumed = bad_fraction / budget_fraction if budget_fraction else 0.0
        return {
            "events": total,
            "bad": bad,
            "attainment": good / total if total else 1.0,
            "target": target,
            "budget_fraction": budget_fraction,
            "budget_consumed": consumed,
            "budget_remaining": max(0.0, 1.0 - consumed),
        }

    def budgets(self) -> Dict[str, Dict[str, dict]]:
        """``tenant -> signal -> budget`` for every stream with a verdict."""
        report: Dict[str, Dict[str, dict]] = {}
        for tenant, signal in sorted((t, s) for t in self.records for s in SIGNALS):
            if any(self.records[tenant].verdicts(signal)):
                report.setdefault(tenant, {})[signal] = self.budget(tenant, signal)
        return report
