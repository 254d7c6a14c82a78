"""Live monitoring plane: an SLO engine on a virtual-clock tick, and exports
collected when someone asks.

:class:`MonitorService` keeps no copy of a fact, and counts none: every
per-tenant fact — TTFT / TPOT samples and their verdicts, exits by status,
launches offered, goodput — is counted once by the core into the tenant's
:class:`~repro.core.metrics.TenantMetrics`, with or without this plane.

* an :class:`~repro.core.slo.SloEngine` reads those records' verdict counts
  into per-tenant error budgets and fires multi-window burn-rate alerts;
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
is built and ``Controller.timers`` holds no scraper.  When on, the tick and
every export only *read* serving state, so tokens, metrics and virtual
timestamps stay bit-identical to a monitor-off run (asserted in
``tests/test_determinism.py``).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, List

from repro.core.metrics import EXIT_STATUSES, TenantMetrics
from repro.core.registry import MetricRegistry
from repro.core.scheduler import SchedulerStats
from repro.core.slo import SloEngine
from repro.sim.periodic import PeriodicService

__all__ = ["MonitorService"]

#: Tick period in virtual milliseconds: each tick advances the alert windows
#: (0 = no ticks; the records still count).  Read when a monitor is built.
SCRAPE_INTERVAL_MS = 50.0
#: ``DeviceShard.readings()`` keys, exported beside the shard's counters.
SHARD_READINGS = {
    "queue_depth": "Pending commands in the shard scheduler",
    "kv_occupancy": "Fraction of GPU KV pages in use",
    "embed_occupancy": "Fraction of embed slots in use",
    "busy_seconds": "Cumulative device busy time",
}
#: ``TenantMetrics`` counts exported under a family of their own — the
#: request families of :meth:`MonitorService.collect` and
#: ``pie_slo_events_total`` — and so not again as ``pie_tenant_<field>``.
_TENANT_FAMILIES = EXIT_STATUSES + (
    "offered", "good", "ttft_met", "ttft_missed", "tpot_met", "tpot_missed",
)


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


class MonitorService:
    """Owns the SLO engine and the scrape tick; exports on demand."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.slo = SloEngine(
            controller.tenants, controller.metrics.tenants, trace=controller.trace
        )
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
        live counter records and the SLO engine's state (pure inspection;
        the result is the caller's to discard)."""
        export = MetricRegistry()

        def publish(prefix: str, helps: Dict[str, str], rows, labelnames=()) -> None:
            # One gauge per name — so a family exists before its first
            # row — and one sample per (labels, values) row.
            for name, help_ in helps.items():
                gauge = export.gauge(f"pie_{prefix}_{name}", help_, labelnames)
                for labels, values in rows:
                    gauge.labels(**labels).set(values[name])

        system = self.controller.metrics
        publish("system", _field_help(system), [({}, _scalars(system))])
        tenant_help = _field_help(TenantMetrics(tenant=""))
        publish(
            "tenant",
            {name: help_ for name, help_ in tenant_help.items() if name not in _TENANT_FAMILIES},
            [({"tenant": name}, _scalars(record)) for name, record in system.tenants.items()],
            labelnames=("tenant",),
        )
        # The request families, one sample per tenant (and status) that
        # has something counted.
        ttft = export.histogram("pie_ttft_seconds", "Time to first token per tenant", ("tenant",))
        tpot = export.histogram("pie_tpot_seconds", "Time per output token per tenant", ("tenant",))
        offered = export.counter(
            "pie_offered_total", "Launches asked for per tenant (refused ones included)", ("tenant",)
        )
        good = export.counter(
            "pie_good_total",
            "Inferlets that finished inside their TTFT and TPOT SLO (goodput)",
            ("tenant",),
        )
        requests = export.counter(
            "pie_requests_total",
            "Inferlets that left, by tenant and terminal status (rejected = refused at admission)",
            ("tenant", "status"),
        )
        for name, record in system.tenants.items():
            for family, histogram in ((ttft, record.ttft), (tpot, record.tpot)):
                if histogram.total:
                    family.labels(tenant=name).merge(histogram)
            for family, count in ((offered, record.offered), (good, record.good)):
                if count:
                    family.labels(tenant=name).inc(count)
            for status in EXIT_STATUSES:
                if getattr(record, status):
                    requests.labels(tenant=name, status=status).inc(getattr(record, status))
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
