"""Live monitoring plane: an SLO engine on a virtual-clock tick, and exports
collected when someone asks.

:class:`MonitorService` keeps no copy of a fact that has another owner:

* its :class:`~repro.core.registry.MetricRegistry` holds what nothing else
  records, all counted off lifecycle notifications — ``pie_ttft_seconds``,
  ``pie_tpot_seconds``, ``pie_requests_total`` and per-tenant
  ``pie_offered_total`` / ``pie_good_total`` (server-side goodput: launches
  asked for, and those that finished inside their SLO);
* an :class:`~repro.core.slo.SloEngine` counts each sample's verdict — read
  off the inferlet's record, never re-judged here — into per-tenant error
  budgets and fires multi-window burn-rate alerts;
* the *scrape tick*, every :data:`SCRAPE_INTERVAL_MS` — a
  :class:`~repro.sim.periodic.PeriodicService`, so it only re-arms while
  inferlets are live and a run never lasts longer because monitoring is
  on — advances the alert windows and calls the alert listeners, nothing
  else;
* :meth:`MonitorService.collect`, behind both exporters, reads
  ``SystemMetrics``, ``TenantMetrics``, each shard's ``SchedulerStats`` and
  ``readings()`` and the engine's budgets and alert history *at that
  instant*, so an export cannot disagree with the live state it names.

Off by default (``ControlLayerConfig.monitoring``): no ``MonitorService``
is built and ``Controller.observers`` holds none.  When on, every hook and
every export only *reads* serving state, so tokens, metrics and virtual
timestamps stay bit-identical to a monitor-off run (asserted in
``tests/test_determinism.py``).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, List

from repro.core.inferlet import LifecycleObserver
from repro.core.metrics import TenantMetrics
from repro.core.registry import CounterFamily, HistogramFamily, MetricRegistry
from repro.core.scheduler import SchedulerStats
from repro.core.slo import SloEngine
from repro.sim.periodic import PeriodicService

__all__ = ["MonitorService"]

#: Tick period in virtual milliseconds: each tick advances the alert windows
#: (0 = no ticks; request-path counters and histograms still accumulate).
#: Read when a monitor is built.
SCRAPE_INTERVAL_MS = 50.0
#: ``DeviceShard.readings()`` keys, exported beside the shard's counters.
SHARD_READINGS = {
    "queue_depth": "Pending commands in the shard scheduler",
    "kv_occupancy": "Fraction of GPU KV pages in use",
    "embed_occupancy": "Fraction of embed slots in use",
    "busy_seconds": "Cumulative device busy time",
}


def _scalars(record) -> Dict[str, float]:
    """A counter record's plain-number fields (its histograms, dicts and
    names are not scalar samples)."""
    return {
        name: value
        for name, value in vars(record).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _field_help(probe) -> Dict[str, str]:
    return {name: f"{type(probe).__name__}.{name}" for name in _scalars(probe)}


class MonitorService(LifecycleObserver):
    """Owns the request-path metrics, the SLO engine, and the scrape tick."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.registry = MetricRegistry()
        self.slo = SloEngine(controller.tenants, trace=controller.trace)
        self.scrape_interval_ms = SCRAPE_INTERVAL_MS
        self.scraper = PeriodicService(
            self.sim,
            self.scrape_interval_ms / 1e3,
            self._scrape,
            controller.has_live_inferlets,
        )
        # Alert subscribers (e.g. the chaos plane's BrownoutController),
        # invoked with each AlertEvent as the scrape tick surfaces it.
        self._alert_listeners: List[Callable] = []

        # Request-path families, created eagerly so exports are stable even
        # before the first observation.
        self._ttft: HistogramFamily = self.registry.histogram(
            "pie_ttft_seconds",
            "Time to first token per tenant",
            labelnames=("tenant",),
        )
        self._tpot: HistogramFamily = self.registry.histogram(
            "pie_tpot_seconds",
            "Time per output token per tenant",
            labelnames=("tenant",),
        )
        self._requests: CounterFamily = self.registry.counter(
            "pie_requests_total",
            "Inferlets that left, by tenant and terminal status (rejected = refused at admission)",
            labelnames=("tenant", "status"),
        )
        self._offered: CounterFamily = self.registry.counter(
            "pie_offered_total",
            "Launches asked for per tenant (refused ones included)",
            labelnames=("tenant",),
        )
        self._good: CounterFamily = self.registry.counter(
            "pie_good_total",
            "Inferlets that finished inside their TTFT and TPOT SLO (goodput)",
            labelnames=("tenant",),
        )

    # -- lifecycle notifications (all read-only w.r.t. simulation state) -----

    def note_launch_requested(self, instance) -> None:
        self._offered.labels(tenant=instance.tenant).inc()

    def note_output(self, instance, now: float, count: int, first: bool) -> None:
        if not first:
            return
        metrics = instance.metrics
        self._ttft.labels(tenant=instance.tenant).observe(metrics.ttft)
        self.slo.observe(instance.tenant, "ttft", metrics.ttft_met)

    def note_finished(self, instance) -> None:
        tenant = instance.tenant
        metrics = instance.metrics
        self._requests.labels(tenant=tenant, status=metrics.status).inc()
        if metrics.good:
            self._good.labels(tenant=tenant).inc()
        # Only finished streams are judged here (QoS also counts a
        # terminated stream's TPOT against its tenant).
        if metrics.status == "finished" and metrics.tpot is not None:
            self._tpot.labels(tenant=tenant).observe(metrics.tpot)
            self.slo.observe(tenant, "tpot", metrics.tpot_met)

    # -- virtual-clock tick -------------------------------------------------

    def add_alert_listener(self, listener: Callable) -> None:
        """Subscribe to burn-rate AlertEvents surfaced by the scrape tick."""
        self._alert_listeners.append(listener)

    @property
    def scrapes_taken(self) -> int:
        return self.scraper.ticks

    def _scrape(self) -> None:
        for event in self.slo.tick(self.sim.now):
            for listener in self._alert_listeners:
                listener(event)

    # -- exporters ----------------------------------------------------------

    def collect(self) -> MetricRegistry:
        """Everything exportable, read from its owner at this instant: the
        registry's own families plus gauges over the live counter records
        and the SLO engine's state (pure inspection; the result is the
        caller's to discard)."""
        export = MetricRegistry(self.registry.families())

        def publish(prefix: str, helps: Dict[str, str], rows, labelnames=()) -> None:
            # One gauge per name — so a family exists before its first
            # row — and one sample per (labels, values) row.
            for name, help_ in helps.items():
                gauge = export.gauge(f"pie_{prefix}_{name}", help_, labelnames)
                for labels, values in rows:
                    gauge.labels(**labels).set(values[name])

        system = self.controller.metrics
        publish("system", _field_help(system), [({}, _scalars(system))])
        publish(
            "tenant",
            _field_help(TenantMetrics(tenant="")),
            [({"tenant": name}, _scalars(record)) for name, record in system.tenants.items()],
            labelnames=("tenant",),
        )
        publish(
            "shard",
            {**_field_help(SchedulerStats()), **SHARD_READINGS},
            [
                (
                    {"model": service.entry.name, "shard": str(shard.index)},
                    {**_scalars(shard.scheduler.stats), **shard.readings()},
                )
                for service in self.controller.services()
                for shard in service.shards
            ],
            labelnames=("model", "shard"),
        )

        events = export.counter(
            "pie_slo_events_total",
            "SLO-judged latency samples by tenant, signal, and outcome",
            labelnames=("tenant", "signal", "outcome"),
        )
        remaining = export.gauge(
            "pie_slo_budget_remaining",
            "Fraction of the cumulative error budget left",
            labelnames=("tenant", "signal"),
        )
        for tenant, signals in self.slo.budgets().items():
            for signal, budget in signals.items():
                stream = {"tenant": tenant, "signal": signal}
                events.labels(**stream, outcome="met").inc(budget["events"] - budget["bad"])
                events.labels(**stream, outcome="missed").inc(budget["bad"])
                remaining.labels(**stream).set(budget["budget_remaining"])
        transitions = export.counter(
            "pie_slo_alerts_total",
            "Burn-rate alert transitions by tenant, signal, and kind",
            labelnames=("tenant", "signal", "kind"),
        )
        active = export.gauge(
            "pie_slo_alert_active",
            "1 while a burn-rate alert window is firing",
            labelnames=("tenant", "signal", "window"),
        )
        for event in self.slo.alerts:
            stream = {"tenant": event.tenant, "signal": event.signal}
            transitions.labels(**stream, kind=event.kind).inc()
            active.labels(**stream, window=str(event.window)).set(
                1.0 if event.kind == "fire" else 0.0
            )
        return export

    def to_prometheus(self) -> str:
        """Prometheus text exposition of :meth:`collect`."""
        return self.collect().to_prometheus()

    def snapshot_document(self) -> dict:
        """JSON-ready document: :meth:`collect`, the SLO state with its full
        alert history and — with the chaos plane on — every fault injected
        so far."""
        document = {
            "clock": "virtual_seconds",
            "now": self.sim.now,
            "scrape_interval_ms": self.scrape_interval_ms,
            "scrapes": self.scrapes_taken,
            "slo": {
                "default_target": self.slo.default_target,
                "burn_windows": [
                    {"long_s": w.long_s, "short_s": w.short_s, "threshold": w.threshold}
                    for w in self.slo.windows
                ],
                "targets": {name: self.slo.target_for(name) for name in self.controller.tenants},
                "alerts": [asdict(event) for event in self.slo.alerts],
                "active_alerts": self.slo.active_alerts(),
                "budgets": self.slo.budgets(),
            },
            "metrics": self.collect().to_dict(),
        }
        faults = self.controller.faults
        if faults is not None:
            # So reports can line alerts up with the faults that caused them.
            document["faults"] = [dict(record) for record in faults.injected]
        return document
