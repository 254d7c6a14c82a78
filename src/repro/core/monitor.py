"""Live monitoring plane: an SLO engine on a virtual-clock tick, and one
export collected when someone asks.

:class:`MonitorService` keeps no copy of a fact, and counts none: every
per-tenant fact — TTFT / TPOT samples and their verdicts, exits by status,
launches offered, goodput — is counted once by the core into the tenant's
:class:`~repro.core.metrics.TenantMetrics`, with or without this plane.

* an :class:`~repro.core.slo.SloEngine` reads those records' verdict counts
  into per-tenant error budgets and fires multi-window burn-rate alerts;
* the *scrape tick*, every :data:`SCRAPE_INTERVAL_MS` — a
  :class:`~repro.sim.periodic.PeriodicService`, so it only re-arms while
  inferlets are live and a run never lasts longer for it — advances the
  alert windows (each transition lands in
  ``SloEngine.alerts``), nothing else;
* :meth:`MonitorService.snapshot_document`, the one export, reads
  ``SystemMetrics``, ``TenantMetrics``, each shard's ``SchedulerStats`` and
  ``readings()`` (through :meth:`MonitorService.collect`) and the engine's
  budgets and alert history *at that instant*, so an export cannot disagree
  with the live state it names, and says each fact once.

Built with every controller.  The tick and every export only *read*
serving state, so tokens, metrics and virtual timestamps do not depend on
the scrape period (asserted in ``tests/test_determinism.py`` against a
monitor that never ticks).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

from repro.core.metrics import EXIT_STATUSES, TenantMetrics
from repro.core.scheduler import SchedulerStats
from repro.core.slo import SloEngine
from repro.sim.periodic import PeriodicService

__all__ = ["MonitorService"]

#: Tick period in virtual milliseconds: each tick advances the alert windows
#: (0 = no ticks; the records still count).  Read when a controller is built.
SCRAPE_INTERVAL_MS = 50.0
#: ``DeviceShard.readings()`` keys, exported beside the shard's counters.
SHARD_READINGS = {
    "queue_depth": "Pending commands in the shard scheduler",
    "kv_occupancy": "Fraction of GPU KV pages in use",
    "embed_occupancy": "Fraction of embed slots in use",
    "busy_seconds": "Cumulative device busy time",
}
#: ``TenantMetrics`` counts the document says elsewhere — in the request
#: families of :meth:`MonitorService.collect` or, as each signal's
#: ``events`` / ``bad``, in its ``slo`` budgets — and so not again as
#: ``pie_tenant_<field>``.
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
        self.slo = SloEngine(controller.metrics.tenants)
        self.scrape_interval_ms = SCRAPE_INTERVAL_MS
        self.scraper = PeriodicService(
            self.sim,
            self.scrape_interval_ms / 1e3,
            self._scrape,
            controller.has_live_inferlets,
        )

    # -- virtual-clock tick -------------------------------------------------

    @property
    def scrapes_taken(self) -> int:
        return self.scraper.ticks

    def _scrape(self) -> None:
        self.slo.tick(self.sim.now)

    # -- export -------------------------------------------------------------

    def collect(self) -> Dict[str, dict]:
        """The counter records as the document's ``metrics`` block, read
        from their owners at this instant (pure inspection): family name ->
        type, help and labelled samples, families by name, samples in row
        order.  The SLO engine's state is the document's ``slo`` block, not
        a family."""
        families: Dict[str, dict] = {}

        def family(name: str, kind: str, help_: str) -> list:
            families[name] = {"type": kind, "help": help_, "samples": []}
            return families[name]["samples"]

        def publish(prefix: str, helps: Dict[str, str], rows) -> None:
            # One gauge per name — so a family exists before its first
            # row — and one sample per (labels, values) row.
            for name, help_ in helps.items():
                family(f"pie_{prefix}_{name}", "gauge", help_).extend(
                    {"labels": dict(labels), "value": float(values[name])}
                    for labels, values in rows
                )

        system = self.controller.metrics
        tenants = system.tenants.items()
        publish("system", _field_help(system), [({}, _scalars(system))])
        tenant_help = _field_help(TenantMetrics(tenant=""))
        publish(
            "tenant",
            {name: help_ for name, help_ in tenant_help.items() if name not in _TENANT_FAMILIES},
            [({"tenant": name}, _scalars(record)) for name, record in tenants],
        )
        # The request families, one sample per tenant (and status) that
        # has something counted.
        for name, field, help_ in (
            ("pie_ttft_seconds", "ttft", "Time to first token per tenant"),
            ("pie_tpot_seconds", "tpot", "Time per output token per tenant"),
        ):
            family(name, "histogram", help_).extend(
                {"labels": {"tenant": tenant}, **getattr(record, field).to_dict()}
                for tenant, record in tenants
                if getattr(record, field).total
            )
        for name, field, help_ in (
            (
                "pie_offered_total",
                "offered",
                "Launches asked for per tenant (refused ones included)",
            ),
            (
                "pie_good_total",
                "good",
                "Inferlets that finished inside their TTFT and TPOT SLO (goodput)",
            ),
        ):
            family(name, "counter", help_).extend(
                {"labels": {"tenant": tenant}, "value": float(getattr(record, field))}
                for tenant, record in tenants
                if getattr(record, field)
            )
        family(
            "pie_requests_total",
            "counter",
            "Inferlets that left, by tenant and terminal status (rejected = refused at admission)",
        ).extend(
            {
                "labels": {"tenant": tenant, "status": status},
                "value": float(getattr(record, status)),
            }
            for tenant, record in tenants
            for status in EXIT_STATUSES
            if getattr(record, status)
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
        )
        return {name: families[name] for name in sorted(families)}

    def snapshot_document(self) -> dict:
        """JSON-ready document: :meth:`collect`, the SLO state with its full
        alert history and every fault injected so far (so reports can line
        alerts up with the faults that caused them)."""
        return {
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
                "alerts": [asdict(event) for event in self.slo.alerts],
                "active_alerts": self.slo.active_alerts(),
                "budgets": self.slo.budgets(),
            },
            "metrics": self.collect(),
            "faults": [dict(record) for record in self.controller.faults.injected],
        }
