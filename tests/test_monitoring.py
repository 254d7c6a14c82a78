"""The SLO engine (burn-rate alerting) and the live monitor plane."""

import json
from dataclasses import asdict

import pytest

from repro.core import PieServer, TenantSpec, monitor, slo
from repro.core.metrics import EXIT_STATUSES, TenantMetrics
from repro.core.slo import BurnWindow, SloEngine
from repro.errors import ReproError
from repro.sim import Simulator
from tests.test_slo_contract import stamped


def engine(windows=None, target=0.95):
    """An engine under ``windows`` (one 6x rule unless given) and the
    objective ``target``: it reads both off :mod:`repro.core.slo` when built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slo, "BURN_WINDOWS", windows or (BurnWindow(2.0, 0.5, 6.0),))
        patch.setattr(slo, "DEFAULT_SLO_TARGET", target)
        return SloEngine({})


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
    def test_window_validation(self, monkeypatch):
        with pytest.raises(ReproError):
            BurnWindow(0.5, 2.0, 6.0)  # long must exceed short
        with pytest.raises(ReproError):
            BurnWindow(2.0, 0.5, 0.0)  # threshold must be positive
        with pytest.raises(ReproError):
            engine(target=1.5)  # the objective is a share in (0, 1)
        monkeypatch.setattr(slo, "BURN_WINDOWS", ())
        with pytest.raises(ReproError):
            SloEngine({})

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

    def test_observation_judges_against_spec(self):
        # The engine reads the tenant record's count of the inferlets' own
        # verdicts; it judges and counts nothing itself.
        spec = TenantSpec(name="acme", ttft_slo_ms=100.0, tpot_slo_ms=10.0)
        eng = engine()
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

    def test_monitor_knobs_imply_monitoring(self, monkeypatch):
        # The plane's own values are constants read when it is built, and
        # every server builds it.
        monkeypatch.setattr(monitor, "SCRAPE_INTERVAL_MS", 25.0)
        monkeypatch.setattr(slo, "DEFAULT_SLO_TARGET", 0.9)
        monkeypatch.setattr(slo, "BURN_WINDOWS", (BurnWindow(1.0, 0.1, 2.0),))
        _, server = self.make_server()
        assert server.monitor.scraper.period_s == pytest.approx(0.025)
        assert server.monitor.slo.default_target == 0.9
        assert server.monitor.slo.windows == (BurnWindow(1.0, 0.1, 2.0),)

    def test_config_tenants_seed_slo_specs(self):
        acme = TenantSpec(name="acme", ttft_slo_ms=100.0)
        _, server = self.make_server(tenants=(acme,))
        assert server.controller.tenants["acme"] is acme
        assert not hasattr(server.monitor.slo, "tenants")
        # Every tenant burns its budget against the one objective.
        assert server.monitor.slo.budget("acme", "ttft")["target"] == slo.DEFAULT_SLO_TARGET
        # Registering tenants switches no plane on: there is no QoS knob.
        assert not hasattr(server.config.control, "qos")

    def test_burn_window_knob_validation(self, monkeypatch):
        # A bad value is refused when the monitor is built, by the engine
        # that reads it (BurnWindow checks its own fields, see above).
        monkeypatch.setattr(slo, "BURN_WINDOWS", ())
        with pytest.raises(ReproError):
            self.make_server()
        monkeypatch.undo()
        monkeypatch.setattr(slo, "DEFAULT_SLO_TARGET", 1.5)
        with pytest.raises(ReproError):
            self.make_server()

    def probed(self):
        """A monitored server after one inferlet of tenant ``acme``."""
        from repro.core import InferletProgram
        from repro.support import Context, SamplingParams

        sim, server = self.make_server()

        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("a tiny monitored prompt ")
            await context.generate_until(max_tokens=3)
            context.free()
            return "done"

        server.register_program(InferletProgram(name="probe", main=main))
        sim.run_until_complete(server.run_inferlet("probe", tenant="acme"))
        return server

    def test_export_round_trip(self, tmp_path):
        server = self.probed()
        json_path = tmp_path / "snap.json"
        document = server.export_metrics(str(json_path))
        assert json.loads(json_path.read_text())["scrapes"] == document["scrapes"]

        from repro.tools.slo_report import build_report, load_snapshot

        report = build_report(load_snapshot(str(json_path)))
        budgets = {(row["tenant"], row["signal"]): row for row in report["budgets"]}
        assert budgets[("acme", "ttft")]["events"] == 1
        assert budgets[("acme", "ttft")]["bad"] == 0
        # Server-side goodput rides along.
        assert budgets[("acme", "ttft")]["offered"] == 1
        assert budgets[("acme", "ttft")]["good"] == 1

    def test_the_document_is_the_only_export(self, tmp_path):
        # Whatever the path's suffix, the file is the JSON document the
        # call returns; there is no second format to ask for.
        server = self.probed()
        path = tmp_path / "snap.prom"
        document = server.export_metrics(path)
        assert json.loads(path.read_text()) == document
        assert not hasattr(PieServer, "prometheus_metrics")

    def test_slo_report_refuses_what_is_not_a_snapshot(self, tmp_path, capsys):
        # A headline file is JSON without an ``slo`` block; an old text
        # exposition is not JSON at all.  Both exit through the parser
        # (status 2) naming the file, not as an empty report or a traceback.
        from repro.tools.slo_report import main

        headline = tmp_path / "BENCH_slo_monitor.json"
        headline.write_text(json.dumps({"alerts_fired": 2, "scrapes": 59}))
        exposition = tmp_path / "slo_snapshot.prom"
        exposition.write_text(
            "# TYPE pie_good_total counter\n"
            'pie_good_total{tenant="acme"} 1\n'
        )
        for path in (headline, exposition):
            with pytest.raises(SystemExit) as exit_:
                main([str(path)])
            assert exit_.value.code == 2
            assert str(path) in capsys.readouterr().err

    def test_scraper_keeps_queue_drainable(self):
        """The scrape timer must not keep the simulation alive: the run
        ends when the workload does, scraper armed or not."""
        from repro.core import InferletProgram
        from repro.support import Context, SamplingParams

        sim, server = self.make_server()

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
# tpot}_{met, missed}`` are ``pie_slo_events_total`` (89 families -> 82), and
# the three ``pie_system_brownout_*`` counters went with their plane (-> 79).
# ``pie_system_qos_preemption_{swaps, terminations}`` were counted at the
# same reclamation as ``reclamation_{swaps, terminations}``, so they are
# gone; the victim order is the core's, with QoS or without (-> 77).
# ``pie_system_qos_{admitted, queued, rejected}`` were the sums of the
# tenants' ``admitted`` / ``queued`` / ``rejected``, written at the same
# launch-gate site, so they are gone too (-> 74).  The four ``pie_slo_*``
# families (events, budget remaining, alert transitions, alert windows
# active) repeated the document's own ``slo`` block, budgets and alerts,
# for a text exposition nothing outside the tests read; the exposition went
# and they went with it (64 -> 60).
REQUEST_FAMILIES = {
    "pie_ttft_seconds": ("tenant",),
    "pie_tpot_seconds": ("tenant",),
    "pie_requests_total": ("tenant", "status"),
    "pie_offered_total": ("tenant",),
    "pie_good_total": ("tenant",),
}
SYSTEM_FIELDS = """
    bytes_swapped_in bytes_swapped_out chunk_stall_saved_seconds commands_dropped
    cross_device_imports decode_rows_co_batched disagg_bytes_streamed
    disagg_handoff_failures disagg_handoff_stall_seconds disagg_handoffs
    disagg_pages_streamed disagg_pages_tail disagg_replans failover_relaunches
    failover_terminations faults_injected forward_input_tokens
    inferlets_failed inferlets_finished inferlets_launched inferlets_terminated
    kv_pages_swapped_in kv_pages_swapped_out
    prefill_chunks_dispatched prefix_cache_demotions prefix_cache_evictions
    prefix_cache_faultins prefix_cache_hits prefix_cache_inserted_pages
    prefix_cache_misses prefix_cache_reclaims prefix_cache_saved_tokens
    reclamation_swaps reclamation_terminations
    shard_crashes swap_ins swap_outs
    swap_stall_seconds total_output_tokens
""".split()
TENANT_FIELDS = """
    admitted output_tokens preempted_swaps preempted_terminations queued
""".split()
SHARD_STATS_FIELDS = """
    batches_dispatched commands_dispatched decode_rows_dispatched
    forward_holds_expired forward_tokens_dispatched forward_yields
    prefill_rows_dispatched
""".split()
SHARD_READINGS = "queue_depth kv_occupancy embed_occupancy busy_seconds".split()
EXPORT_SCHEMA = {
    **REQUEST_FAMILIES,
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

    def test_every_sample_equals_the_live_field_it_names(self):
        sim, server, fleet = self.fleet()
        sim.run_until_complete(fleet)  # not drained: the last tick is still armed
        system = server.metrics
        assert system.inferlets_finished == 4 and set(system.tenants) == {"acme", "zeta"}
        document = server.export_metrics()
        metrics = document["metrics"]
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
        # Bucket for bucket: the export merges the record's own histogram.
        for family, field in (("pie_ttft_seconds", "ttft"), ("pie_tpot_seconds", "tpot")):
            assert metrics[family]["samples"] == [
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
        assert document["slo"]["budgets"] == server.monitor.slo.budgets()

    def test_export_schema(self):
        sim, server, fleet = self.fleet()
        sim.run_until_complete(fleet)
        document = server.export_metrics()
        exported = document["metrics"]
        assert list(exported) == sorted(EXPORT_SCHEMA)
        # The qos_* twins of tenant counts went (77 -> 74), then the three
        # counters only the QoS plane wrote (74 -> 71), then the seven only
        # the test-only fault kinds and the retry policy wrote (71 -> 64),
        # then the four pie_slo_* twins of the document's slo block (64 -> 60).
        assert len(exported) == 60
        assert not any(name.startswith("pie_slo_") for name in exported)
        # The monitor keeps no registry, and no fact is exported twice.
        assert not hasattr(server.monitor, "registry")
        assert "series" not in document
        for name, family in exported.items():
            for sample in family["samples"]:
                assert tuple(sample["labels"]) == EXPORT_SCHEMA[name], name

    def test_a_tick_writes_no_metric(self, monkeypatch):
        """Between two exports the plane does SloEngine.tick only: its
        transitions are appended to ``slo.alerts`` and nothing is collected
        while no request starts its output or leaves."""
        sim, server, fleet = self.fleet(n=1, max_tokens=64)
        sim.run(until=0.1)
        [instance] = server.controller.instances()
        assert instance.metrics.first_token_at is not None
        before = server.export_metrics()
        ticks = server.monitor.scrapes_taken

        touched = []
        collect = monitor.MonitorService.collect
        monkeypatch.setattr(
            monitor.MonitorService,
            "collect",
            lambda service: touched.append(service.sim.now) or collect(service),
        )
        sim.run(until=0.4)
        monkeypatch.undo()

        assert server.monitor.scrapes_taken >= ticks + 5
        assert not instance.finished
        assert touched == []
        after = server.export_metrics()
        # The alert history only grows, and the export reads it as it is.
        assert after["slo"]["alerts"][: len(before["slo"]["alerts"])] == before["slo"]["alerts"]
        assert after["slo"]["alerts"] == [asdict(event) for event in server.monitor.slo.alerts]
        assert after["metrics"]["pie_system_total_output_tokens"] != (
            before["metrics"]["pie_system_total_output_tokens"]
        )
        sim.run_until_complete(fleet)
