"""The SLO engine (burn-rate alerting) and the live monitor plane."""

import json

import pytest

from repro.core import PieServer, TenantSpec, TenantTable, monitor, slo
from repro.core.metrics import EXIT_STATUSES, TenantMetrics
from repro.core.slo import BurnWindow, SloEngine
from repro.errors import ClientError, ReproError
from repro.sim import Simulator
from tests.test_slo_contract import stamped


def engine(windows=None, target=0.95, tenants=()):
    return SloEngine(
        TenantTable(tenants), {}, windows or (BurnWindow(2.0, 0.5, 6.0),), default_target=target
    )


def record(eng, tenant):
    """The tenant's record the engine reads (the test counts in it, as the
    core would)."""
    return eng.records.setdefault(tenant, TenantMetrics(tenant=tenant))


def drive(eng, tenant, pattern, dt=0.1, start=0.0):
    """Count (n_good, n_bad) TTFT verdicts, ticking after each; returns events."""
    events = []
    now = start
    counts = record(eng, tenant)
    for n_good, n_bad in pattern:
        now += dt
        counts.ttft_met += n_good
        counts.ttft_missed += n_bad
        events.extend(eng.tick(now))
    return events


class TestBurnWindows:
    def test_window_validation(self):
        with pytest.raises(ReproError):
            BurnWindow(0.5, 2.0, 6.0)  # long must exceed short
        with pytest.raises(ReproError):
            BurnWindow(2.0, 0.5, 0.0)  # threshold must be positive
        with pytest.raises(ReproError):
            SloEngine(TenantTable(), {}, ())
        with pytest.raises(ReproError):
            SloEngine(TenantTable(), {}, default_target=1.5)  # the objective is a share in (0, 1)

    def test_golden_fire_and_clear_sequence(self):
        # Budget 5%; threshold 6x => fire needs >30% bad in BOTH windows.
        eng = engine(windows=(BurnWindow(0.3, 0.1, 6.0),))
        events = drive(
            eng,
            "acme",
            [
                (10, 0),  # healthy
                (10, 0),
                (5, 5),  # 50% bad, but the long window is still diluted
                (5, 5),  # healthy buckets age out: burn >= 6 in BOTH -> FIRE
                (10, 0),  # short window recovers -> CLEAR
                (10, 0),
            ],
        )
        assert [(e.kind, round(e.time, 1)) for e in events] == [
            ("fire", 0.4),
            ("clear", 0.5),
        ]
        fire, clear = events
        assert fire.tenant == "acme" and fire.signal == "ttft"
        assert fire.burn_long >= 6.0 and fire.burn_short >= 6.0
        assert clear.burn_short < 6.0
        assert eng.active_alerts() == []

    def test_transient_spike_does_not_fire(self):
        # One bad bucket inside a long healthy run: the short window burns
        # but the long window stays below threshold, so no alert.
        eng = engine(windows=(BurnWindow(2.0, 0.2, 6.0),))
        events = drive(
            eng,
            "acme",
            [(10, 0)] * 10 + [(5, 5)] + [(10, 0)] * 5,
            dt=0.2,
        )
        assert events == []

    def test_sustained_burn_keeps_alert_active(self):
        eng = engine()
        events = drive(eng, "acme", [(0, 10)] * 8)
        assert [e.kind for e in events] == ["fire"]
        assert len(eng.active_alerts()) == 1

    def test_every_window_rule_fires_independently(self):
        # Under a total outage every rule trips; events carry the window
        # index so the two alerts are distinguishable streams.
        eng = engine(
            windows=(BurnWindow(0.4, 0.1, 6.0), BurnWindow(2.0, 0.5, 3.0))
        )
        events = drive(eng, "acme", [(0, 10)] * 6)
        kinds = [(e.kind, e.window) for e in events]
        assert kinds[0] == ("fire", 0)
        assert ("fire", 1) in kinds

    def test_per_tenant_targets(self):
        eng = engine(target=0.95, tenants=[TenantSpec(name="strict", slo_target=0.999)])
        assert eng.target_for("strict") == 0.999
        assert eng.target_for("lax") == 0.95  # implicit default spec

    def test_observation_judges_against_spec(self):
        # The engine reads the tenant record's count of the inferlets' own
        # verdicts; it judges and counts nothing itself.
        spec = TenantSpec(name="acme", ttft_slo_ms=100.0, tpot_slo_ms=10.0)
        eng = engine(tenants=[spec])
        hit, miss = stamped(spec, 0.05, 0.02), stamped(spec, 0.2, None)
        assert (hit.ttft_met, miss.ttft_met, hit.tpot_met, miss.tpot_met) == (
            True, False, False, None,
        )
        acme = record(eng, "acme")
        acme.observe("ttft", hit.ttft, hit.ttft_met)
        acme.observe("ttft", miss.ttft, miss.ttft_met)
        acme.observe("tpot", hit.tpot, hit.tpot_met)
        budget = eng.budget("acme", "ttft")
        assert budget["events"] == 2 and budget["bad"] == 1
        assert budget["attainment"] == 0.5

    def test_budget_consumption_math(self):
        eng = engine(target=0.9)  # budget fraction 0.1
        acme = record(eng, "acme")
        acme.ttft_met, acme.ttft_missed = 95, 5
        budget = eng.budget("acme", "ttft")
        assert budget["budget_fraction"] == pytest.approx(0.1)
        assert budget["budget_consumed"] == pytest.approx(0.5)
        assert budget["budget_remaining"] == pytest.approx(0.5)


class TestMonitorService:
    def make_server(self, **kwargs):
        sim = Simulator(seed=5)
        server = PieServer(sim, **kwargs)
        return sim, server

    def test_off_by_default(self):
        _, server = self.make_server()
        assert server.monitor is None
        with pytest.raises(ClientError):
            server.export_metrics()
        with pytest.raises(ClientError):
            server.prometheus_metrics()

    def test_monitor_knobs_imply_monitoring(self, monkeypatch):
        # The plane's own values are constants read when it is built; the
        # one shorthand left that needs the plane is ``brownout``.
        monkeypatch.setattr(monitor, "SCRAPE_INTERVAL_MS", 25.0)
        monkeypatch.setattr(slo, "DEFAULT_SLO_TARGET", 0.9)
        monkeypatch.setattr(slo, "BURN_WINDOWS", (BurnWindow(1.0, 0.1, 2.0),))
        _, server = self.make_server(brownout=True)
        assert server.monitor is not None
        assert server.config.control.monitoring is True
        assert server.monitor.scraper.period_s == pytest.approx(0.025)
        assert server.monitor.slo.default_target == 0.9
        assert server.monitor.slo.windows == (BurnWindow(1.0, 0.1, 2.0),)

    def test_config_tenants_seed_slo_specs(self):
        _, server = self.make_server(
            monitoring=True,
            tenants=(TenantSpec(name="acme", slo_target=0.99),),
        )
        assert server.monitor.slo.target_for("acme") == 0.99
        # Registering tenants also switched QoS on (existing shorthand).
        assert server.config.control.qos is True

    def test_burn_window_knob_validation(self, monkeypatch):
        # A bad value is refused when the monitor is built, by the engine
        # that reads it (BurnWindow checks its own fields, see above).
        monkeypatch.setattr(slo, "BURN_WINDOWS", ())
        with pytest.raises(ReproError):
            self.make_server(monitoring=True)
        monkeypatch.undo()
        monkeypatch.setattr(slo, "DEFAULT_SLO_TARGET", 1.5)
        with pytest.raises(ReproError):
            self.make_server(monitoring=True)

    def test_export_round_trip(self, tmp_path):
        from repro.core import InferletProgram
        from repro.support import Context, SamplingParams

        sim, server = self.make_server(monitoring=True)

        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("a tiny monitored prompt ")
            await context.generate_until(max_tokens=3)
            context.free()
            return "done"

        server.register_program(InferletProgram(name="probe", main=main))
        sim.run_until_complete(server.run_inferlet("probe", tenant="acme"))

        json_path = tmp_path / "snap.json"
        prom_path = tmp_path / "snap.prom"
        document = server.export_metrics(str(json_path))
        server.export_metrics(str(prom_path))
        assert json.loads(json_path.read_text())["scrapes"] == document["scrapes"]

        from repro.tools.slo_report import build_report, load_snapshot

        json_report = build_report(load_snapshot(str(json_path)))
        prom_report = build_report(load_snapshot(str(prom_path)))
        for report in (json_report, prom_report):
            budgets = {
                (row["tenant"], row["signal"]): row for row in report["budgets"]
            }
            assert budgets[("acme", "ttft")]["events"] == 1
            assert budgets[("acme", "ttft")]["bad"] == 0
            # Server-side goodput rides along in both formats.
            assert budgets[("acme", "ttft")]["offered"] == 1
            assert budgets[("acme", "ttft")]["good"] == 1
        # Request counters survive the Prometheus round trip too.
        parsed = load_snapshot(str(prom_path))["metrics"]
        samples = parsed["pie_requests_total"]["samples"]
        assert samples == [
            {"labels": {"tenant": "acme", "status": "finished"}, "value": 1.0}
        ]

    def test_scraper_keeps_queue_drainable(self):
        """The scrape timer must not keep the simulation alive: the run
        ends when the workload does, scraper armed or not."""
        from repro.core import InferletProgram
        from repro.support import Context, SamplingParams

        sim, server = self.make_server(monitoring=True)

        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("drainable ")
            await context.generate_until(max_tokens=2)
            context.free()
            return "ok"

        server.register_program(InferletProgram(name="probe", main=main))
        result = sim.run_until_complete(server.run_inferlet("probe"))
        assert result.status == "finished"
        # A second wave works too (the poke re-arms the scraper).
        before = server.monitor.scrapes_taken
        sim.run_until_complete(server.run_inferlet("probe"))
        assert server.monitor.scrapes_taken >= before


# What an export holds: family -> label names, all read off the live
# records by ``collect()``.  The monitor kept the five request families in a
# registry of its own, counted off lifecycle notifications beside the tenant
# records QoS kept; now the core counts one record per tenant and each of
# its facts is exported under one name: ``pie_tenant_{finished, terminated,
# rejected}`` are ``pie_requests_total{status}`` and ``pie_tenant_{ttft,
# tpot}_{met, missed}`` are ``pie_slo_events_total`` (89 families -> 82).
REQUEST_FAMILIES = {
    "pie_ttft_seconds": ("tenant",),
    "pie_tpot_seconds": ("tenant",),
    "pie_requests_total": ("tenant", "status"),
    "pie_offered_total": ("tenant",),
    "pie_good_total": ("tenant",),
}
SLO_FAMILIES = {
    "pie_slo_events_total": ("tenant", "signal", "outcome"),
    "pie_slo_alerts_total": ("tenant", "signal", "kind"),
    "pie_slo_alert_active": ("tenant", "signal", "window"),
    "pie_slo_budget_remaining": ("tenant", "signal"),
}
SYSTEM_FIELDS = """
    brownout_activations brownout_clears brownout_shed bytes_swapped_in
    bytes_swapped_out chunk_stall_saved_seconds commands_dropped
    cross_device_imports decode_rows_co_batched disagg_bytes_streamed
    disagg_handoff_failures disagg_handoff_stall_seconds disagg_handoffs
    disagg_pages_streamed disagg_pages_tail disagg_replans failover_relaunches
    failover_terminations faults_injected forward_input_tokens handoff_retries
    inferlets_failed inferlets_finished inferlets_launched inferlets_terminated
    kv_pages_swapped_in kv_pages_swapped_out link_faults
    prefill_chunks_dispatched prefix_cache_demotions prefix_cache_evictions
    prefix_cache_faultins prefix_cache_hits prefix_cache_inserted_pages
    prefix_cache_misses prefix_cache_reclaims prefix_cache_saved_tokens
    qos_admitted qos_preemption_swaps qos_preemption_terminations qos_queued
    qos_rejected reclamation_swaps reclamation_terminations retries_exhausted
    retry_backoff_seconds shard_crashes shard_slowdowns swap_ins swap_outs
    swap_stall_seconds tool_faults tool_retries total_output_tokens
""".split()
TENANT_FIELDS = """
    admitted dispatched_commands handoffs output_tokens preempted_swaps
    preempted_terminations queued virtual_tokens
""".split()
SHARD_STATS_FIELDS = """
    batches_dispatched commands_dispatched decode_rows_dispatched
    forward_holds_expired forward_tokens_dispatched forward_yields
    prefill_rows_dispatched
""".split()
SHARD_READINGS = "queue_depth kv_occupancy embed_occupancy busy_seconds".split()
EXPORT_SCHEMA = {
    **REQUEST_FAMILIES,
    **SLO_FAMILIES,
    **{f"pie_system_{name}": () for name in SYSTEM_FIELDS},
    **{f"pie_tenant_{name}": ("tenant",) for name in TENANT_FIELDS},
    **{
        f"pie_shard_{name}": ("model", "shard")
        for name in SHARD_STATS_FIELDS + SHARD_READINGS
    },
}


class TestPullExport:
    """The monitor exports; it keeps no copy of a fact with another owner."""

    def fleet(self, n=4, max_tokens=3):
        """Two tenants on two devices; returns (sim, server, launch-all task)."""
        from repro.core import InferletProgram
        from repro.support import Context, SamplingParams

        sim = Simulator(seed=5)
        server = PieServer(
            sim,
            monitoring=True,
            num_devices=2,
            tenants=(TenantSpec(name="acme"), TenantSpec(name="zeta")),
        )

        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("a monitored prompt ")
            await context.generate_until(max_tokens=max_tokens)
            context.free()
            return "done"

        server.register_program(InferletProgram(name="probe", main=main))

        async def one(index):
            await sim.sleep(0.03 * index)
            return await server.run_inferlet(
                "probe", tenant="acme" if index % 2 else "zeta"
            )

        return sim, server, sim.gather([sim.create_task(one(i)) for i in range(n)])

    @staticmethod
    def both_exports(server):
        from repro.tools.slo_report import parse_prometheus

        return (
            server.export_metrics()["metrics"],
            parse_prometheus(server.prometheus_metrics()),
        )

    def test_every_sample_equals_the_live_field_it_names(self):
        sim, server, fleet = self.fleet()
        sim.run_until_complete(fleet)  # not drained: the last tick is still armed
        system = server.metrics
        assert system.inferlets_finished == 4 and set(system.tenants) == {"acme", "zeta"}
        for metrics in self.both_exports(server):
            for name in SYSTEM_FIELDS:
                [sample] = metrics[f"pie_system_{name}"]["samples"]
                assert sample["value"] == getattr(system, name), name
            for name in TENANT_FIELDS:
                samples = metrics[f"pie_tenant_{name}"]["samples"]
                assert {s["labels"]["tenant"]: s["value"] for s in samples} == {
                    tenant: getattr(record, name)
                    for tenant, record in system.tenants.items()
                }, name
            # The request families are the records' counts, sample for sample.
            for family, field in (("pie_offered_total", "offered"), ("pie_good_total", "good")):
                samples = metrics[family]["samples"]
                assert {s["labels"]["tenant"]: s["value"] for s in samples} == {
                    tenant: getattr(record, field)
                    for tenant, record in system.tenants.items()
                    if getattr(record, field)
                }, family
            samples = metrics["pie_requests_total"]["samples"]
            assert {
                (s["labels"]["tenant"], s["labels"]["status"]): s["value"] for s in samples
            } == {
                (tenant, status): getattr(record, status)
                for tenant, record in system.tenants.items()
                for status in EXIT_STATUSES
                if getattr(record, status)
            }
            for family, field in (("pie_ttft_seconds", "ttft"), ("pie_tpot_seconds", "tpot")):
                samples = metrics[family]["samples"]
                assert {s["labels"]["tenant"]: (s["count"], s["sum"]) for s in samples} == {
                    tenant: (getattr(record, field).total, getattr(record, field).sum)
                    for tenant, record in system.tenants.items()
                }, family
        # Bucket for bucket: the export merges the record's own histogram.
        document = server.export_metrics()["metrics"]
        for family, field in (("pie_ttft_seconds", "ttft"), ("pie_tpot_seconds", "tpot")):
            assert document[family]["samples"] == [
                {"labels": {"tenant": tenant}, **getattr(record, field).to_dict()}
                for tenant, record in system.tenants.items()
            ], family
            shards = server.service().shards
            for name in SHARD_STATS_FIELDS:
                samples = metrics[f"pie_shard_{name}"]["samples"]
                assert [s["value"] for s in samples] == [
                    getattr(shard.scheduler.stats, name) for shard in shards
                ], name
            # A per-tick mirror reads one short here, until the next tick.
            finished = sum(
                s["value"]
                for s in metrics["pie_requests_total"]["samples"]
                if s["labels"]["status"] == "finished"
            )
            assert finished == metrics["pie_system_inferlets_finished"]["samples"][0]["value"]
            budgets = server.monitor.slo.budgets()
            assert {
                (s["labels"]["tenant"], s["labels"]["signal"]): s["value"]
                for s in metrics["pie_slo_budget_remaining"]["samples"]
            } == {
                (tenant, signal): budget["budget_remaining"]
                for tenant, signals in budgets.items()
                for signal, budget in signals.items()
            }

    def test_export_schema(self):
        sim, server, fleet = self.fleet()
        sim.run_until_complete(fleet)
        exported = {f.name: f.labelnames for f in server.monitor.collect().families()}
        assert exported == EXPORT_SCHEMA
        assert len(exported) == 82
        # The monitor keeps no registry, and no fact is exported twice.
        assert not hasattr(server.monitor, "registry")
        document = server.export_metrics()
        assert "series" not in document
        for name, family in document["metrics"].items():
            for sample in family["samples"]:
                assert tuple(sample["labels"]) == EXPORT_SCHEMA[name], name

    def test_a_tick_writes_no_metric(self, monkeypatch):
        """Between two exports the plane does SloEngine.tick and listeners
        only: no registry child is touched while no request starts its
        output or leaves."""
        from repro.core import registry

        sim, server, fleet = self.fleet(n=1, max_tokens=64)
        sim.run(until=0.1)
        [instance] = server.controller.instances()
        assert instance.metrics.first_token_at is not None
        before = server.export_metrics()
        ticks = server.monitor.scrapes_taken

        touched = []
        labels = registry._Family.labels
        monkeypatch.setattr(
            registry._Family,
            "labels",
            lambda family, **kw: touched.append(family.name) or labels(family, **kw),
        )
        heard = []
        server.monitor.add_alert_listener(heard.append)
        sim.run(until=0.4)
        monkeypatch.undo()

        assert server.monitor.scrapes_taken >= ticks + 5
        assert not instance.finished
        assert touched == []
        assert heard == server.monitor.slo.alerts[len(before["slo"]["alerts"]):]
        after = server.export_metrics()
        assert after["metrics"]["pie_system_total_output_tokens"] != (
            before["metrics"]["pie_system_total_output_tokens"]
        )
        sim.run_until_complete(fleet)
