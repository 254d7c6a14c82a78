"""Live monitoring plane: virtual-clock scraper, SLO engine, exporters.

:class:`MonitorService` is the glue between the serving loop and the
observability surfaces this repo grew elsewhere:

* a :class:`~repro.core.registry.MetricRegistry` of labeled counters,
  gauges and log-bucketed histograms that the controller's collector and
  the load harness publish into;
* an :class:`~repro.core.slo.SloEngine` judging per-tenant TTFT/TPOT
  against :class:`~repro.core.qos.TenantSpec` targets and firing
  multi-window burn-rate alerts (objective and windows are the constants
  of :mod:`repro.core.slo`);
* a periodic *scraper* on the virtual clock, every
  :data:`SCRAPE_INTERVAL_MS` — a
  :class:`~repro.sim.periodic.PeriodicService`, so it only re-arms while
  inferlets are live, the event queue stays drainable and the simulation
  never runs longer because monitoring is on — that publishes the serving
  state as gauges, advances the alert windows and appends bounded registry
  snapshots.

The whole plane is off by default (``ControlLayerConfig.monitoring``);
when off, no ``MonitorService`` is constructed and
``Controller.observers`` does not hold one — the structural-inertness
contract shared with the QoS/tracing/chunking switches.  When on, every hook only *reads*
serving state and writes to monitor-private buffers, so tokens, metrics
and virtual timestamps stay bit-identical to a monitor-off run (asserted
in ``tests/test_determinism.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from typing import Callable, Deque, Dict, List

from repro.core.inferlet import LifecycleObserver
from repro.core.metrics import TenantMetrics
from repro.core.registry import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricRegistry,
)
from repro.core.scheduler import SchedulerStats
from repro.core.slo import SloEngine
from repro.core.qos import TenantSpec
from repro.sim.periodic import PeriodicService

__all__ = ["MonitorService"]

#: Scrape period in virtual milliseconds: each tick advances the alert
#: windows and appends one registry snapshot (0 = no scraper; request-path
#: counters and histograms still accumulate).  Read when a monitor is built.
SCRAPE_INTERVAL_MS = 50.0
#: Retention cap for time-series snapshots (one per scrape tick).
MAX_SNAPSHOTS = 20_000


class MonitorService(LifecycleObserver):
    """Owns the metric registry, the SLO engine, and the scrape timer."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.metrics = controller.metrics
        self.trace = controller.trace
        self.registry = MetricRegistry()
        self.slo = SloEngine(trace=self.trace)
        for spec in controller.config.control.tenants:
            self.slo.register(spec)
        self.scrape_interval_ms = SCRAPE_INTERVAL_MS
        self.scraper = PeriodicService(
            self.sim,
            self.scrape_interval_ms / 1e3,
            self._scrape,
            controller.has_live_inferlets,
        )
        #: Bounded time-series: one scalar snapshot of the registry per tick.
        self.snapshots: Deque[dict] = deque(maxlen=MAX_SNAPSHOTS)
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
            "Finished inferlets by tenant and terminal status",
            labelnames=("tenant", "status"),
        )
        self._slo_events: CounterFamily = self.registry.counter(
            "pie_slo_events_total",
            "SLO-judged latency samples by tenant, signal, and outcome",
            labelnames=("tenant", "signal", "outcome"),
        )
        self._alerts_total: CounterFamily = self.registry.counter(
            "pie_slo_alerts_total",
            "Burn-rate alert transitions by tenant, signal, and kind",
            labelnames=("tenant", "signal", "kind"),
        )
        self._alert_active: GaugeFamily = self.registry.gauge(
            "pie_slo_alert_active",
            "1 while a burn-rate alert window is firing",
            labelnames=("tenant", "signal", "window"),
        )
        self._budget_remaining: GaugeFamily = self.registry.gauge(
            "pie_slo_budget_remaining",
            "Fraction of the cumulative error budget left",
            labelnames=("tenant", "signal"),
        )
        # Serving-state gauges published at every scrape: one per numeric
        # field, discovered once from a probe instance (not per tick via
        # ``asdict``, which would deep-copy the histograms at every scrape).
        def gauges_for(prefix: str, probe, labelnames=()) -> Dict[str, GaugeFamily]:
            return {
                name: self.registry.gauge(
                    f"pie_{prefix}_{name}",
                    f"{type(probe).__name__}.{name}",
                    labelnames=labelnames,
                )
                for name, value in vars(probe).items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }

        self._system_gauges = gauges_for("system", self.metrics)
        self._tenant_gauges = gauges_for(
            "tenant", TenantMetrics(tenant="_probe"), labelnames=("tenant",)
        )
        self._shard_gauges = gauges_for(
            "shard", SchedulerStats(), labelnames=("model", "shard")
        )
        self._reading_gauges: Dict[str, GaugeFamily] = {
            name: self.registry.gauge(
                f"pie_shard_{name}", help_, labelnames=("model", "shard")
            )
            for name, help_ in (
                ("queue_depth", "Pending commands in the shard scheduler"),
                ("kv_occupancy", "Fraction of GPU KV pages in use"),
                ("embed_occupancy", "Fraction of embed slots in use"),
                ("busy_seconds", "Cumulative device busy time"),
            )
        }

    # -- SLO spec registry --------------------------------------------------

    def register_slo(self, spec: TenantSpec) -> None:
        """Register the spec the SLO engine judges this tenant against."""
        self.slo.register(spec)

    # -- lifecycle notifications (all read-only w.r.t. simulation state) -----

    def note_output(self, instance, now: float, count: int, first: bool) -> None:
        if not first:
            return
        tenant = instance.tenant
        ttft_seconds = now - instance.metrics.launched_at
        self._ttft.labels(tenant=tenant).observe(ttft_seconds)
        met = self.slo.observe_ttft(tenant, ttft_seconds)
        outcome = "met" if met else "missed"
        self._slo_events.labels(tenant=tenant, signal="ttft", outcome=outcome).inc()

    def note_finished(self, instance) -> None:
        tenant = instance.tenant
        status = instance.metrics.status
        self._requests.labels(tenant=tenant, status=status).inc()
        if status != "finished":
            return
        tpot = instance.metrics.tpot
        if tpot is None:
            return
        self._tpot.labels(tenant=tenant).observe(tpot)
        met = self.slo.observe_tpot(tenant, tpot)
        outcome = "met" if met else "missed"
        self._slo_events.labels(tenant=tenant, signal="tpot", outcome=outcome).inc()

    # -- load-harness hooks -------------------------------------------------

    def note_offered(self, workload: str) -> None:
        self.registry.counter(
            "pie_loadgen_offered_total",
            "Requests injected by the open-loop load harness",
            labelnames=("workload",),
        ).labels(workload=workload).inc()

    def note_request_outcome(self, workload: str, good: bool) -> None:
        self.registry.counter(
            "pie_loadgen_finished_total",
            "Load-harness requests that completed",
            labelnames=("workload",),
        ).labels(workload=workload).inc()
        if good:
            self.registry.counter(
                "pie_loadgen_good_total",
                "Load-harness requests that met every SLO (goodput)",
                labelnames=("workload",),
            ).labels(workload=workload).inc()

    # -- virtual-clock scraper ----------------------------------------------

    def add_alert_listener(self, listener: Callable) -> None:
        """Subscribe to burn-rate AlertEvents surfaced by the scrape tick."""
        self._alert_listeners.append(listener)

    @property
    def scrapes_taken(self) -> int:
        return self.scraper.ticks

    def _collect(self) -> None:
        """Publish the current SystemMetrics / per-tenant / per-shard
        counters plus live load readings as gauges (pure inspection)."""
        for name, gauge in self._system_gauges.items():
            gauge.labels().set(getattr(self.metrics, name))
        for tenant, record in self.metrics.tenants.items():
            for name, gauge in self._tenant_gauges.items():
                gauge.labels(tenant=tenant).set(getattr(record, name))
        for service in self.controller.services():
            for shard in service.shards:
                labels = {"model": service.entry.name, "shard": str(shard.index)}
                for name, gauge in self._shard_gauges.items():
                    gauge.labels(**labels).set(getattr(shard.scheduler.stats, name))
                for name, value in shard.readings().items():
                    self._reading_gauges[name].labels(**labels).set(value)

    def _scrape(self) -> None:
        now = self.sim.now
        self._collect()
        for event in self.slo.tick(now):
            self._alerts_total.labels(
                tenant=event.tenant, signal=event.signal, kind=event.kind
            ).inc()
            self._alert_active.labels(
                tenant=event.tenant,
                signal=event.signal,
                window=str(event.window),
            ).set(1.0 if event.kind == "fire" else 0.0)
            for listener in self._alert_listeners:
                listener(event)
        for tenant, signals in self.slo.budgets().items():
            for signal, budget in signals.items():
                self._budget_remaining.labels(tenant=tenant, signal=signal).set(
                    budget["budget_remaining"]
                )
        self.snapshots.append({"t": now, "values": self.registry.scalar_snapshot()})

    # -- exporters ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the full registry."""
        return self.registry.to_prometheus()

    def snapshot_document(self) -> dict:
        """JSON-ready document: registry, SLO state, the time series and —
        with the chaos plane on — every fault injected so far."""
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
                "targets": {t: self.slo.target_for(t) for t in self.slo.tenants()},
                "alerts": [asdict(event) for event in self.slo.alerts],
                "active_alerts": self.slo.active_alerts(),
                "budgets": self.slo.budgets(),
            },
            "series": list(self.snapshots),
            "metrics": self.registry.to_dict(),
        }
        faults = self.controller.faults
        if faults is not None:
            # So reports can line alerts up with the faults that caused them.
            document["faults"] = [dict(record) for record in faults.injected]
        return document
