"""Unit tests for the QoS subsystem (repro.core.qos).

Covers the token bucket, tenant-spec validation, admission decisions
(admit / queue-with-backpressure / typed rejection), the admission pump,
SLO slack scoring and candidate-batch selection, preemption victim
ordering, fair-share accounting, and the structural inertness of the
``qos=off`` configuration.
"""

import pytest

from repro.core import InferletProgram, InferletInstance, PieServer, TenantSpec
from repro.core.batching import CandidateBatch
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import ControlLayerConfig, PieConfig
from repro.core.metrics import SystemMetrics, percentile
from repro.core.qos import (
    CLASS_RANK,
    CLASS_WEIGHT,
    QOS_CLASSES,
    QosService,
    TenantTable,
    TokenBucket,
)
from repro.errors import AdmissionRejectedError, InferletTerminated, ReproError
from repro.sim import Simulator


async def _noop(ctx):
    return None


def make_instance(name="prog", tenant="acme", seed=0):
    program = InferletProgram(name=name, main=_noop)
    return InferletInstance(program, tenant=tenant, seed=seed)


def make_service(sim, *specs, metrics=None):
    return QosService(sim, metrics or SystemMetrics(), tenants=TenantTable(specs))


class TestTokenBucket:
    def test_unlimited_when_rate_zero(self):
        bucket = TokenBucket(0.0, burst=1)
        assert all(bucket.try_take(now=0.0) for _ in range(100))
        assert bucket.seconds_until_available(0.0) == 0.0

    def test_burst_then_refill(self):
        bucket = TokenBucket(10.0, burst=2, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # One token refills after 0.1 s at 10/s.
        assert bucket.seconds_until_available(0.0) == pytest.approx(0.1)
        assert not bucket.try_take(0.05)
        assert bucket.try_take(0.1)

    def test_level_capped_at_burst(self):
        bucket = TokenBucket(100.0, burst=3, now=0.0)
        for _ in range(3):
            assert bucket.try_take(0.0)
        # A long idle period refills to the cap, not beyond.
        for _ in range(3):
            assert bucket.try_take(10.0)
        assert not bucket.try_take(10.0)


class TestTenantSpec:
    def test_class_validation(self):
        with pytest.raises(ReproError):
            TenantSpec(name="x", priority_class="platinum")

    def test_rate_and_bounds_validation(self):
        with pytest.raises(ReproError):
            TenantSpec(name="x", rate_per_s=-1)
        with pytest.raises(ReproError):
            TenantSpec(name="x", burst=0)
        with pytest.raises(ReproError):
            TenantSpec(name="x", max_concurrent=-1)
        with pytest.raises(ReproError):
            TenantSpec(name="", priority_class="standard")
        with pytest.raises(ReproError):
            TenantSpec(name="x", weight=0.0)

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
            PieConfig(control=ControlLayerConfig(qos=True, tenants=specs))


class TestAdmission:
    def test_admit_within_budget(self):
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme", max_concurrent=2))
        launched = []
        decision = qos.request_admission(
            make_instance(tenant="acme"), proceed=lambda: launched.append(1)
        )
        assert decision == "admit"
        assert launched == []  # caller proceeds synchronously on admit
        assert qos.metrics.qos_admitted == 1

    def test_queue_then_pump_on_finish(self):
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme", max_concurrent=1))
        first = make_instance(tenant="acme")
        second = make_instance(tenant="acme")
        assert qos.request_admission(first, proceed=lambda: None) == "admit"
        resumed = []
        assert (
            qos.request_admission(second, proceed=lambda: resumed.append(second))
            == "queued"
        )
        assert qos.metrics.qos_queued == 1
        assert not resumed
        first.metrics.status = "finished"
        qos.note_finished(first)
        assert resumed == [second]
        # QoS writes what only it knows; the exit is the core's to count.
        record = qos.metrics.tenants["acme"]
        assert record.admitted == 2
        assert record.finished == 0

    def test_note_finished_is_idempotent(self):
        """A second notice of one exit frees no second slot."""
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme", max_concurrent=1))
        instance = make_instance(tenant="acme")
        qos.request_admission(instance, proceed=lambda: None)
        resumed = []
        for _ in range(2):
            parked = make_instance(tenant="acme")
            qos.request_admission(parked, proceed=lambda parked=parked: resumed.append(parked))
        instance.metrics.status = "finished"
        qos.note_finished(instance)
        qos.note_finished(instance)
        assert len(resumed) == 1

    def test_reject_when_queue_full(self):
        sim = Simulator()
        qos = make_service(
            sim, TenantSpec(name="acme", max_concurrent=1, max_queued=1)
        )
        qos.request_admission(make_instance(tenant="acme"), proceed=lambda: None)
        qos.request_admission(make_instance(tenant="acme"), proceed=lambda: None)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            qos.request_admission(make_instance(tenant="acme"), proceed=lambda: None)
        assert excinfo.value.tenant == "acme"
        assert qos.metrics.qos_rejected == 1
        # The refusal is counted per tenant where the launch retires it.
        assert qos.metrics.tenants["acme"].rejected == 0

    def test_rate_limit_queues_until_bucket_refills(self):
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme", rate_per_s=10.0, burst=1))
        admitted_at = []
        assert (
            qos.request_admission(
                make_instance(tenant="acme"), proceed=lambda: None
            )
            == "admit"
        )
        assert (
            qos.request_admission(
                make_instance(tenant="acme"),
                proceed=lambda: admitted_at.append(sim.now),
            )
            == "queued"
        )

        async def wait():
            await sim.sleep(0.5)

        sim.run_until_complete(wait())
        # The refill timer admits the parked launch once a token is back.
        assert admitted_at == [pytest.approx(0.1)]

    def test_unregistered_tenant_gets_default_spec(self):
        sim = Simulator()
        qos = make_service(sim)
        assert (
            qos.request_admission(make_instance(tenant="guest"), proceed=lambda: None)
            == "admit"
        )
        assert qos.tenant_spec("guest").priority_class == "standard"

    def test_reporting_reads_never_register_tenants(self):
        """tenant_spec/slo_attainment are read-only: unknown names raise
        instead of silently inserting a TenantMetrics record."""
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme"))
        with pytest.raises(ReproError):
            qos.tenant_spec("typo")
        with pytest.raises(ReproError):
            qos.slo_attainment("typo")
        assert qos.tenant_names() == ["acme"]
        assert set(qos.metrics.tenants) == {"acme"}

    def test_fifo_order_within_tenant_queue(self):
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme", max_concurrent=1))
        first = make_instance(tenant="acme")
        qos.request_admission(first, proceed=lambda: None)
        order = []
        for tag in ("a", "b"):
            qos.request_admission(
                make_instance(tenant="acme"),
                proceed=lambda tag=tag: order.append(tag),
            )
        first.metrics.status = "finished"
        qos.note_finished(first)
        assert order == ["a"]  # one slot freed, head of the queue only


def stamp(qos, instance):
    """Stamp ``instance`` the way ``launch()`` does: its launch time and its
    tenant's two SLOs, which its deadline is read off.  ``qos`` is anything
    holding ``sim`` and the tenant table: the service or the controller."""
    spec = qos.tenants[instance.tenant]
    instance.metrics.launched_at = qos.sim.now
    instance.metrics.ttft_slo_s, instance.metrics.tpot_slo_s = spec.ttft_slo_s, spec.tpot_slo_s
    return instance


def _admit(qos, instance):
    qos.request_admission(stamp(qos, instance), proceed=lambda: None)
    return instance


def _forward(sim, instance, issue_time=0.0):
    return Command(
        kind="forward",
        inferlet_id=instance.instance_id,
        payload={},
        future=sim.create_future(),
        issue_time=issue_time,
    )


class TestSlackDispatch:
    def specs(self):
        return (
            TenantSpec(name="chat", priority_class="interactive"),
            TenantSpec(name="jobs", priority_class="batch"),
        )

    def test_interactive_deadline_beats_batch(self):
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        chat = _admit(qos, make_instance(name="c", tenant="chat"))
        jobs = _admit(qos, make_instance(name="j", tenant="jobs"))
        # Batch issued earlier: pure longest-waiting would pick it.
        candidates = {
            "forward": CandidateBatch("forward", [_forward(sim, jobs, 0.0)]),
            "sample": CandidateBatch("sample", [_forward(sim, chat, 0.01)]),
        }
        chosen = qos.select_batch(candidates)
        assert chosen.commands[0].inferlet_id == chat.instance_id

    def test_edf_within_class(self):
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        early = _admit(qos, make_instance(name="e", tenant="chat"))
        late = _admit(qos, make_instance(name="l", tenant="chat"))
        early.metrics.launched_at = 0.0
        late.metrics.launched_at = 0.05  # later deadline
        candidates = {
            "forward": CandidateBatch("forward", [_forward(sim, late, 0.01)]),
            "sample": CandidateBatch("sample", [_forward(sim, early, 0.01)]),
        }
        chosen = qos.select_batch(candidates)
        assert chosen.commands[0].inferlet_id == early.instance_id

    def test_aging_bounds_starvation(self, monkeypatch):
        monkeypatch.setattr("repro.core.qos.AGING_MS", 100.0)
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        chat = _admit(qos, make_instance(name="c", tenant="chat"))
        jobs = _admit(qos, make_instance(name="j", tenant="jobs"))

        async def advance():
            await sim.sleep(0.2)

        sim.run_until_complete(advance())
        # The batch command has waited past the aging bound: it is served
        # FCFS ahead of the fresher interactive command.
        candidates = {
            "forward": CandidateBatch("forward", [_forward(sim, jobs, 0.0)]),
            "sample": CandidateBatch("sample", [_forward(sim, chat, sim.now)]),
        }
        chosen = qos.select_batch(candidates)
        assert chosen.commands[0].inferlet_id == jobs.instance_id

    def test_queue_priority_stride_orders_classes(self):
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        chat = _admit(qos, make_instance(name="c", tenant="chat"))
        jobs = _admit(qos, make_instance(name="j", tenant="jobs"))
        chat_queue = CommandQueue(key="cq", model="m", owner=chat.instance_id)
        jobs_queue = CommandQueue(
            key="jq", model="m", owner=jobs.instance_id, priority=500
        )
        # Class dominates: even a large in-class priority cannot outrank a
        # better class; in-class, the queue priority still breaks ties.
        assert qos.queue_priority(chat_queue) > qos.queue_priority(jobs_queue)
        boosted = CommandQueue(
            key="cq2", model="m", owner=chat.instance_id, priority=3
        )
        assert qos.queue_priority(boosted) == qos.queue_priority(chat_queue) + 3

    def test_user_priority_cannot_cross_class_stride(self):
        """No user-supplied queue priority — however extreme — may let a
        worse class outrank a better one (the in-class bias is clamped)."""
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        chat = _admit(qos, make_instance(name="c", tenant="chat"))
        jobs = _admit(qos, make_instance(name="j", tenant="jobs"))
        chat_sandbagged = CommandQueue(
            key="cq", model="m", owner=chat.instance_id, priority=-(10**9)
        )
        jobs_boosted = CommandQueue(
            key="jq", model="m", owner=jobs.instance_id, priority=10**9
        )
        assert qos.queue_priority(chat_sandbagged) > qos.queue_priority(jobs_boosted)

    def test_fair_share_vtime_charges_by_weight(self):
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        chat = _admit(qos, make_instance(name="c", tenant="chat"))
        jobs = _admit(qos, make_instance(name="j", tenant="jobs"))
        qos.note_dispatched([_forward(sim, chat), _forward(sim, jobs)])
        record = qos.metrics.tenants
        # Same work, but the batch class's smaller weight accrues virtual
        # time faster (it consumes its fair share sooner).
        assert record["jobs"].virtual_tokens > record["chat"].virtual_tokens > 0
        assert record["chat"].dispatched_commands == 1

    def test_placement_weight_follows_class(self):
        sim = Simulator()
        qos = make_service(sim, *self.specs())
        chat = _admit(qos, make_instance(name="c", tenant="chat"))
        jobs = _admit(qos, make_instance(name="j", tenant="jobs"))
        assert qos.placement_weight(chat.instance_id) == CLASS_WEIGHT["interactive"]
        assert qos.placement_weight(jobs.instance_id) == CLASS_WEIGHT["batch"]
        assert qos.placement_weight("never-admitted") == 1.0


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
        assert controller.qos is None
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
        """Aborting an inferlet parked in the QoS admission queue must not
        be undone when the queue later pumps: the inferlet never runs."""
        from repro.core.config import ControlLayerConfig, PieConfig
        from repro.sim import Simulator as Sim

        sim = Sim(seed=0)
        server = PieServer(
            sim,
            config=PieConfig(
                control=ControlLayerConfig(
                    qos=True,
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
            await server.lifecycle.wait_for_completion(first)
            await sim.sleep(0.2)  # give the pump every chance to resurrect it

        sim.run_until_complete(abort_then_drain())
        assert parked.status == "terminated"
        assert len(ran) == 1  # only the first job ever executed
        assert server.metrics.tenants["jobs"].admitted == 1

    def test_aborted_parked_launch_frees_its_max_queued_slot(self):
        """A corpse in the admission queue must not cause spurious
        max_queued rejections for live launches."""
        from repro.core.config import ControlLayerConfig, PieConfig
        from repro.sim import Simulator as Sim

        sim = Sim(seed=0)
        server = PieServer(
            sim,
            config=PieConfig(
                control=ControlLayerConfig(
                    qos=True,
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
        server = PieServer(sim)  # qos off: the pre-existing launch queue path
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
        sim = Simulator()
        qos = make_service(
            sim, TenantSpec(name="acme", ttft_slo_ms=100.0, tpot_slo_ms=50.0)
        )
        record = qos.metrics.tenants["acme"]
        # The verdicts are the inferlets' own (InferletMetrics.ttft_met /
        # tpot_met); the tenant record only counts them.
        record.observe("ttft", 0.05, True)
        record.observe("ttft", 0.2, False)
        record.observe("tpot", 0.01, True)
        record.observe("tpot", 0.04, True)
        record.observe("tpot", 0.04, None)  # unjudged: histogram only
        assert record.tpot.total == 3
        assert qos.slo_attainment("acme") == 3 / 4

    def test_no_samples_counts_as_full_attainment(self):
        sim = Simulator()
        qos = make_service(sim, TenantSpec(name="acme"))
        assert qos.slo_attainment("acme") == 1.0


class TestQosOffInertness:
    def test_no_service_and_no_hooks_when_off(self):
        sim = Simulator()
        server = PieServer(sim)
        assert server.controller.qos is None
        service = server.service()
        # The swap manager never holds QoS: the victim order is the core's.
        assert not hasattr(service.swap, "qos")
        assert service.router.placement_weight is None
        assert service.scheduler._qos is None
        # The core's tenant records are there; nothing QoS writes is.
        server.register_program(InferletProgram(name="noop", main=_noop))
        sim.run_until_complete(server.run_inferlet("noop"))
        [record] = server.metrics.tenants.values()
        assert (record.tenant, record.offered, record.finished) == ("default", 1, 1)
        assert (record.admitted, record.queued, record.dispatched_commands) == (0, 0, 0)

    def test_tenants_shorthand_enables_service(self):
        sim = Simulator()
        server = PieServer(sim, tenants=[TenantSpec(name="acme")])
        assert server.controller.qos is not None
        assert server.config.control.qos is True
        assert server.controller.qos.tenant_names() == ["acme"]

    def test_qos_classes_cover_rank_and_weight_tables(self):
        assert set(QOS_CLASSES) == set(CLASS_RANK) == set(CLASS_WEIGHT)


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
