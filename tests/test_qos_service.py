"""Unit tests for the tenant classes (repro.core.qos) and the launch gate.

Covers tenant-spec validation, the launch gate's
decisions (admit / park with backpressure / typed refusal) and its pump —
the core's, in ``InferletLifecycleManager`` — class-then-age candidate
selection and class-first batch merging, preemption victim ordering, and
that no QoS service, knob or hook is left.  (The dispatch order's oracle,
property and mutants are in ``tests/test_dispatch_order.py``.)
"""

import pytest

from repro.core import InferletProgram, InferletInstance, PieServer, TenantSpec
from repro.core.batching import CandidateBatch, form_candidate_batches, select_batch
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.metrics import TenantMetrics, percentile
from repro.core.qos import (
    CLASS_RANK,
    CLASS_TPOT_SLO_MS,
    CLASS_TTFT_SLO_MS,
    QOS_CLASSES,
)
from repro.errors import AdmissionRejectedError, InferletTerminated, ReproError
from repro.sim import Simulator
from tests.test_batch_formation import DEFAULT_BUDGET


async def _noop(ctx):
    return None


def make_instance(name="prog", tenant="acme", seed=0):
    program = InferletProgram(name=name, main=_noop)
    return InferletInstance(program, tenant=tenant, seed=seed)


class GatedServer:
    """A server whose launch gate applies ``specs``: every launch runs
    ``held``, which returns once :meth:`finish` says so."""

    def __init__(self, *specs, tracing=False):
        self.sim = Simulator(seed=0)
        self.server = PieServer(
            self.sim,
            config=PieConfig(control=ControlLayerConfig(tenants=specs, tracing=tracing)),
        )
        self.lifecycle = self.server.lifecycle
        self.done = {}

        async def held(ctx):
            await self.done[ctx.instance_id]

        self.server.register_program(InferletProgram(name="held", main=held))

    def launch(self, tenant="acme"):
        instance, ready = self.server.launch("held", tenant=tenant)
        self.done[instance.instance_id] = self.sim.create_future()
        return instance

    def finish(self, instance):
        self.done[instance.instance_id].set_result(None)
        self.run(0.0)

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def record(self, tenant="acme"):
        return self.server.metrics.tenants[tenant]

    def admitted(self, instance):
        return instance.instance_id in self.lifecycle.gates[instance.tenant].running

    def drain(self):
        for done in self.done.values():
            if not done.done():
                done.set_result(None)
        self.sim.run()


class TestTenantSpec:
    def test_class_validation(self):
        with pytest.raises(ReproError):
            TenantSpec(name="x", priority_class="platinum")

    def test_rate_and_bounds_validation(self):
        with pytest.raises(ReproError):
            TenantSpec(name="x", max_concurrent=-1)
        with pytest.raises(ReproError):
            TenantSpec(name="", priority_class="standard")

    def test_slo_targets_must_be_positive(self):
        """A target of zero or below would count every sample a miss."""
        with pytest.raises(ReproError, match="ttft_slo_ms"):
            TenantSpec(name="x", ttft_slo_ms=-1.0)
        with pytest.raises(ReproError, match="tpot_slo_ms"):
            TenantSpec(name="y", tpot_slo_ms=0.0)
        # None is the class default, not a target.
        default = TenantSpec(name="z", ttft_slo_ms=None)
        assert default.ttft_slo_s == CLASS_TTFT_SLO_MS["standard"] / 1e3

    def test_per_class_slo_defaults(self):
        interactive = TenantSpec(name="a", priority_class="interactive")
        batch = TenantSpec(name="b", priority_class="batch")
        assert interactive.ttft_slo_s < batch.ttft_slo_s
        assert interactive.tpot_slo_s < batch.tpot_slo_s
        custom = TenantSpec(name="c", priority_class="batch", ttft_slo_ms=42.0)
        assert custom.ttft_slo_s == pytest.approx(0.042)

    def test_duplicate_tenant_rejected_by_config(self):
        specs = (TenantSpec(name="a"), TenantSpec(name="a"))
        with pytest.raises(ReproError):
            PieConfig(control=ControlLayerConfig(tenants=specs))


class TestAdmission:
    """The launch gate (``InferletLifecycleManager``), driven through
    ``launch()``: the tenant's limits are the core's."""

    def test_admit_within_budget(self):
        gated = GatedServer(TenantSpec(name="acme", max_concurrent=2))
        instance = gated.launch()
        # Admitted synchronously, on to the launch executor.
        assert gated.admitted(instance)
        assert (gated.record().admitted, gated.record().queued) == (1, 0)
        gated.drain()

    def test_queue_then_pump_on_finish(self):
        gated = GatedServer(TenantSpec(name="acme", max_concurrent=1))
        first = gated.launch()
        second = gated.launch()
        assert gated.record().queued == 1
        assert not gated.admitted(second)
        gated.run(0.05)
        gated.finish(first)
        assert gated.admitted(second)
        # The gate writes admissions; the exit is counted where it retires.
        record = gated.record()
        assert record.admitted == 2
        assert record.finished == 1
        gated.drain()

    def test_note_finished_is_idempotent(self):
        """A second retirement of one exit frees no second slot, counts no
        second exit on the tenant's record and tells no observer twice: the
        traced inferlet has one lifecycle span and one span per segment of
        its closed timeline."""
        gated = GatedServer(TenantSpec(name="acme", max_concurrent=1), tracing=True)
        instance = gated.launch()
        parked = [gated.launch() for _ in range(2)]
        gated.run(0.05)
        gated.finish(instance)
        gated.lifecycle._retire(instance, "finished")
        assert [gated.admitted(p) for p in parked] == [True, False]
        assert gated.record().finished == 1
        spans = [
            event
            for event in gated.server.trace.events()
            if event["ph"] == "X" and event["inferlet"] == instance.instance_id
        ]
        assert [span["cat"] for span in spans].count("lifecycle") == 1
        assert len(spans) == 1 + len(instance.timeline.closed)
        gated.drain()

    def test_reject_when_queue_full(self):
        gated = GatedServer(TenantSpec(name="acme", max_concurrent=1, max_queued=1))
        gated.launch()
        gated.launch()
        with pytest.raises(AdmissionRejectedError) as excinfo:
            gated.launch()
        assert excinfo.value.tenant == "acme"
        assert excinfo.value.reason == "queue_full"
        # The refusal is counted per tenant where the launch retires it.
        assert (gated.record().offered, gated.record().rejected) == (3, 1)
        gated.drain()

    def test_unregistered_tenant_gets_default_spec(self):
        gated = GatedServer()
        assert gated.admitted(gated.launch(tenant="guest"))
        assert gated.server.controller.tenants["guest"].priority_class == "standard"
        assert gated.lifecycle.gates["guest"].spec is gated.server.controller.tenants["guest"]
        gated.drain()

    def test_reporting_reads_never_register_tenants(self):
        """Reporting reads the core's table and records, which nothing
        mirrors: an unknown name is in neither, and reading the record of
        one raises instead of silently inserting a TenantMetrics record."""
        gated = GatedServer(TenantSpec(name="acme"))
        assert "typo" not in gated.server.controller.tenants
        with pytest.raises(KeyError):
            gated.server.metrics.tenants["typo"]
        assert sorted(gated.server.controller.tenants) == ["acme"]
        assert set(gated.server.metrics.tenants) == {"acme"}

    def test_fifo_order_within_tenant_queue(self):
        gated = GatedServer(TenantSpec(name="acme", max_concurrent=1))
        first = gated.launch()
        a, b = gated.launch(), gated.launch()
        gated.run(0.05)
        gated.finish(first)
        # One slot freed, head of the backlog only.
        assert (gated.admitted(a), gated.admitted(b)) == (True, False)
        gated.drain()


def stamp(qos, instance):
    """Stamp ``instance`` the way ``launch()`` does: its launch time and its
    tenant's two SLOs, which its deadline is read off.  ``qos`` is anything
    holding ``sim`` and the tenant table (the controller)."""
    spec = qos.tenants[instance.tenant]
    instance.metrics.launched_at = qos.sim.now
    instance.metrics.ttft_slo_s, instance.metrics.tpot_slo_s = spec.ttft_slo_s, spec.tpot_slo_s
    return instance


def _command(sim, priority_class, issue_time=0.0, kind="forward"):
    return Command(
        kind=kind,
        inferlet_id=priority_class,
        payload={},
        future=sim.create_future(),
        issue_time=issue_time,
        rank=CLASS_RANK[priority_class],
    )


def _push(queue, command):
    """Number ``command`` on ``queue``, then make it pending: what the
    controller does at issue and at delivery."""
    queue.issue(command)
    queue.push(command)


class TestSlackDispatch:
    """What replaced slack scoring: the core's one dispatch order (best
    class present, oldest command first, aged work first) and class-first
    batch merging, read off the class rank each queue carries."""

    def test_interactive_deadline_beats_batch(self):
        sim = Simulator()
        # Batch issued earlier: pure longest-waiting would pick it.
        candidates = {
            "forward": CandidateBatch("forward", [_command(sim, "batch", 0.0)]),
            "sample": CandidateBatch("sample", [_command(sim, "interactive", 0.01, "sample")]),
        }
        chosen = select_batch(candidates, now=0.02)
        assert chosen.commands[0].inferlet_id == "interactive"

    def test_aging_bounds_starvation(self, monkeypatch):
        monkeypatch.setattr("repro.core.batching.AGING_MS", 100.0)
        sim = Simulator()
        # The batch command has waited past the aging bound: it is served
        # FCFS ahead of the fresher interactive command.
        candidates = {
            "forward": CandidateBatch("forward", [_command(sim, "batch", 0.0)]),
            "sample": CandidateBatch("sample", [_command(sim, "interactive", 0.2, "sample")]),
        }
        chosen = select_batch(candidates, now=0.2)
        assert chosen.commands[0].inferlet_id == "batch"

    def test_queue_priority_stride_orders_classes(self):
        """Class dominates the merge: even a large in-class priority cannot
        outrank a better class; in-class, the queue priority still orders."""
        sim = Simulator()
        jobs = CommandQueue(key="jq", model="m", owner="j", priority=500, rank=CLASS_RANK["batch"])
        chat = CommandQueue(key="cq", model="m", owner="c", rank=CLASS_RANK["interactive"])
        boosted = CommandQueue(
            key="cq2", model="m", owner="c", priority=3, rank=CLASS_RANK["interactive"]
        )
        for queue in (jobs, chat, boosted):
            _push(queue, _command(sim, "standard"))
        merged = form_candidate_batches([jobs, chat, boosted], 8, *DEFAULT_BUDGET)["forward"]
        assert [command.queue_key for command in merged.commands] == ["cq2", "cq", "jq"]
        # In-class, the raw queue priorities compare: no stride is added.
        chat.priority = 4
        merged = form_candidate_batches([jobs, chat, boosted], 8, *DEFAULT_BUDGET)["forward"]
        assert [command.queue_key for command in merged.commands] == ["cq", "cq2", "jq"]

    def test_user_priority_cannot_cross_class_stride(self):
        """No user-supplied queue priority — however extreme — lets a worse
        class go ahead of a better one, here when the row cap truncates."""
        sim = Simulator()
        sandbagged = CommandQueue(
            key="cq", model="m", owner="c", priority=-(10**9), rank=CLASS_RANK["interactive"]
        )
        boosted = CommandQueue(
            key="jq", model="m", owner="j", priority=10**9, rank=CLASS_RANK["batch"]
        )
        _push(boosted, _command(sim, "standard", 0.0))
        _push(sandbagged, _command(sim, "standard", 1.0))
        merged = form_candidate_batches([boosted, sandbagged], 1, *DEFAULT_BUDGET)["forward"]
        assert [command.queue_key for command in merged.commands] == ["cq"]


class TestVictimOrdering:
    """The victim order is the core's (``Controller.victim_key``), read off
    the controller's tenant table with every plane off; these are the
    assertions QoS's own key was held to."""

    def specs(self):
        return (
            TenantSpec(name="chat", priority_class="interactive"),
            TenantSpec(name="std", priority_class="standard"),
            TenantSpec(name="jobs", priority_class="batch"),
        )

    def controller(self, sim):
        controller = PieServer(sim).controller
        for spec in self.specs():
            controller.tenants.register(spec)
        return controller

    def test_lowest_class_preempted_first(self):
        sim = Simulator()
        controller = self.controller(sim)
        instances = [
            stamp(controller, make_instance(name=n, tenant=t))
            for n, t in (("c", "chat"), ("s", "std"), ("j", "jobs"))
        ]
        ordered = sorted(instances, key=controller.victim_key)
        assert [i.tenant for i in ordered] == ["jobs", "std", "chat"]

    def test_most_slack_first_within_class(self):
        sim = Simulator()
        controller = self.controller(sim)
        near = stamp(controller, make_instance(name="near", tenant="jobs"))
        far = stamp(controller, make_instance(name="far", tenant="jobs"))

        async def advance():
            await sim.sleep(1.0)

        sim.run_until_complete(advance())
        # ``near`` produced a token long ago: its TPOT deadline is closer
        # than ``far``'s fresh one, so ``far`` has more slack and goes first.
        near.metrics.note_output(0.1)
        far.metrics.note_output(sim.now)
        ordered = sorted([near, far], key=controller.victim_key)
        assert ordered[0] is far

    def test_page_yield_breaks_ties(self):
        sim = Simulator()
        controller = self.controller(sim)
        a = stamp(controller, make_instance(name="a", tenant="jobs"))
        b = stamp(controller, make_instance(name="b", tenant="jobs"))
        assert controller.victim_key(a, n_pages=8) < controller.victim_key(a, n_pages=2)
        # Same slack/pages: deterministic instance-id tie-break.
        assert controller.victim_key(a, 4) != controller.victim_key(b, 4)


class TestAbortWhileParked:
    def test_abort_in_admission_queue_sticks(self):
        """Aborting an inferlet parked at its tenant's gate must not be
        undone when the gate later pumps: the inferlet never runs."""
        from repro.core.config import ControlLayerConfig, PieConfig
        from repro.sim import Simulator as Sim

        sim = Sim(seed=0)
        server = PieServer(
            sim,
            config=PieConfig(
                control=ControlLayerConfig(
                    tenants=(TenantSpec(name="jobs", max_concurrent=1),),
                )
            ),
        )
        ran = []

        async def job(ctx):
            ran.append(ctx.instance_id)
            await ctx._sim.sleep(0.05)
            return "done"

        server.register_program(InferletProgram(name="job", main=job))
        first, _ready1 = server.launch("job", tenant="jobs")
        parked, ready2 = server.launch("job", tenant="jobs")

        async def abort_then_drain():
            await sim.sleep(0.001)  # parked is still waiting for the slot
            server.lifecycle.abort(parked, reason="client abort")
            # The abort resolves the parked launch's ready future at once:
            # an awaiting client sees the termination instead of hanging.
            assert isinstance(ready2.exception(), InferletTerminated)
            await first.done
            await sim.sleep(0.2)  # give the pump every chance to resurrect it

        sim.run_until_complete(abort_then_drain())
        assert parked.status == "terminated"
        assert len(ran) == 1  # only the first job ever executed
        assert server.metrics.tenants["jobs"].admitted == 1

    def test_aborted_parked_launch_frees_its_max_queued_slot(self):
        """A corpse in the gate's backlog must not cause spurious
        max_queued rejections for live launches."""
        from repro.core.config import ControlLayerConfig, PieConfig
        from repro.sim import Simulator as Sim

        sim = Sim(seed=0)
        server = PieServer(
            sim,
            config=PieConfig(
                control=ControlLayerConfig(
                    tenants=(
                        TenantSpec(name="jobs", max_concurrent=1, max_queued=1),
                    ),
                )
            ),
        )

        async def job(ctx):
            await ctx._sim.sleep(0.05)
            return "done"

        server.register_program(InferletProgram(name="job", main=job))
        server.launch("job", tenant="jobs")
        parked, _ready = server.launch("job", tenant="jobs")  # fills the queue
        server.lifecycle.abort(parked, reason="client abort")
        # The queue slot is free again immediately: this must not raise.
        replacement, _ready2 = server.launch("job", tenant="jobs")

        async def drain():
            await sim.sleep(0.5)

        sim.run_until_complete(drain())
        assert replacement.status == "finished"

    def test_abort_in_launch_queue_fails_ready_future(self):
        """An abort between admission and instantiation resolves the ready
        future with InferletTerminated instead of running the program."""
        from repro.sim import Simulator as Sim

        sim = Sim(seed=0)
        server = PieServer(sim)  # no tenants: the pre-existing launch queue path
        ran = []

        async def job(ctx):
            ran.append(1)
            return "done"

        server.register_program(InferletProgram(name="job", main=job))
        # Two launches: the second sits in the serialized launch queue.
        server.launch("job")
        parked, ready = server.launch("job")
        server.controller.terminate_inferlet(parked, reason="client abort")

        async def drain():
            await sim.sleep(0.5)

        sim.run_until_complete(drain())
        assert parked.status == "terminated"
        assert len(ran) == 1
        assert isinstance(ready.exception(), InferletTerminated)


class TestSloAttainment:
    def test_attainment_fraction(self):
        record = TenantMetrics(tenant="acme")
        # The verdicts are the inferlets' own (InferletMetrics.ttft_met /
        # tpot_met); the tenant record only counts them.
        record.observe("ttft", 0.05, True)
        record.observe("ttft", 0.2, False)
        record.observe("tpot", 0.01, True)
        record.observe("tpot", 0.04, True)
        record.observe("tpot", 0.04, None)  # unjudged: histogram only
        assert record.tpot.total == 3
        assert record.slo_attainment == 3 / 4

    def test_no_samples_counts_as_full_attainment(self):
        assert TenantMetrics(tenant="acme").slo_attainment == 1.0


class TestQosOffInertness:
    def test_no_service_and_no_hooks_when_off(self):
        """There is no QoS plane to switch on: no knob, no service, no hook
        in the router, scheduler or swap manager, no counter only it wrote."""
        sim = Simulator()
        server = PieServer(sim)
        assert not hasattr(server.config.control, "qos")
        assert not hasattr(server.controller, "qos")
        service = server.service()
        assert not hasattr(service.swap, "qos")
        assert not hasattr(service.router, "placement_weight")
        assert not hasattr(service.shards[0].scheduler, "_qos")
        # The core's tenant records are there, the launch gate's admission
        # included.
        server.register_program(InferletProgram(name="noop", main=_noop))
        sim.run_until_complete(server.run_inferlet("noop"))
        [record] = server.metrics.tenants.values()
        assert (record.tenant, record.offered, record.finished) == ("default", 1, 1)
        assert (record.admitted, record.queued) == (1, 0)
        for gone in ("dispatched_commands", "virtual_tokens", "handoffs"):
            assert not hasattr(record, gone)

    def test_tenants_shorthand_enables_service(self):
        """The ``tenants`` shorthand is all it takes: it implies no other
        knob, and every queue an inferlet creates carries its class rank."""
        sim = Simulator()
        server = PieServer(sim, tenants=[TenantSpec(name="acme", priority_class="interactive")])
        assert server.config.control.tenants == (TenantSpec(name="acme", priority_class="interactive"),)
        assert sorted(server.controller.tenants) == ["acme"]
        ranks = []

        async def probe(ctx):
            queue = ctx.create_queue()
            scheduler = ctx._instance.placements[queue.model].scheduler
            ranks.append(scheduler.get_queue((queue.owner, queue.qid)).rank)
            ctx.destroy_queue(queue)

        server.register_program(InferletProgram(name="probe", main=probe))
        sim.run_until_complete(server.run_inferlet("probe", tenant="acme"))
        sim.run_until_complete(server.run_inferlet("probe", tenant="guest"))
        assert ranks == [CLASS_RANK["interactive"], CLASS_RANK["standard"]]

    def test_qos_classes_cover_rank_and_slo_tables(self):
        assert set(QOS_CLASSES) == set(CLASS_RANK) == set(CLASS_TTFT_SLO_MS) == set(CLASS_TPOT_SLO_MS)


class TestPercentile:
    def test_nearest_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        assert percentile(samples, 50) == 0.2
        assert percentile(samples, 99) == 0.4
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 50) == 7.0


class TestTpotSamples:
    def test_bulk_recorded_stream_yields_no_tpot_sample(self):
        """A program that records all its output tokens at once carries no
        decode-timing information: tpot must be None, not a 0.0 sample
        that would trivially satisfy any TPOT SLO."""
        from repro.core.metrics import InferletMetrics

        bulk = InferletMetrics(inferlet_id="bulk")
        bulk.note_output(now=1.0, count=8)
        assert bulk.tpot is None

        streamed = InferletMetrics(inferlet_id="stream")
        for step in range(4):
            streamed.note_output(now=0.01 * step, count=1)
        assert streamed.tpot == pytest.approx(0.01)

    def test_note_finished_skips_bulk_streams(self):
        """The tenant record's exit count takes no TPOT sample from a bulk
        stream (and, like goodput, none from an unfinished one)."""
        from repro.core.metrics import TenantMetrics

        record = TenantMetrics(tenant="acme")
        instance = make_instance(tenant="acme")
        instance.metrics.note_output(now=0.5, count=8)
        instance.metrics.status = "finished"
        record.note_exit(instance.metrics)
        assert (record.finished, record.tpot.total) == (1, 0)
        streamed = make_instance(tenant="acme")
        streamed.metrics.note_output(now=0.5)
        streamed.metrics.note_output(now=0.6)
        streamed.metrics.status = "terminated"
        record.note_exit(streamed.metrics)
        assert (record.terminated, record.tpot.total) == (1, 0)
