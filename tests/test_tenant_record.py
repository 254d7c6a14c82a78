"""A tenant's record is kept once.

QoS used to count each first token's TTFT, each exit and each TPOT sample
into ``TenantMetrics`` off lifecycle notifications, and the monitor counted
the same samples again — into registry families of its own and into the SLO
engine's trackers.  Neither copy existed with its plane off, and on a shard
kill they disagreed: QoS also judged *terminated* streams' TPOT, the monitor
did not (177 against 174 TPOT samples for ``agent`` on the run below, under
QoS's dispatch order).  Now
the core keeps one ``TenantMetrics`` per tenant with every plane off —
``offered`` at launch, the TTFT sample at the first output token, the exit
(status, ``good``, a *finished* stream's TPOT) at retirement — and the SLO
engine and the monitor read it.

In the repo's oracle pattern:

* the parent's QoS counting, monitor counting and ``SloEngine.observe`` are
  kept **verbatim** below (but for where they look up their state); a
  hypothesis state machine drives launches, first tokens, finishes,
  terminations, refusals and time across three tenants on a live server,
  tells the oracle every fact the parent told it, and after every step
  holds the record's histograms and counts, the exported request families,
  the budgets and the alert history, tick by tick, equal to the oracle's —
  except where the rule changed on purpose: a terminated stream's TPOT is
  no longer judged, and ``finished`` / ``terminated`` count every exit, not
  only those of admitted inferlets.  One thing may differ and is compared
  as a set: the *order* of the alerts of one tick.  The parent tracked a
  stream from its first sample; the engine tracks it from the first tick
  whose record holds a verdict, and streams first seen at the same tick
  tick in record order (configured tenants, then by first launch) —
  signals TTFT before TPOT — not in first-sample order;
* the shard kill: the record's TPOT count is the SLO engine's budget
  ``events`` and the harness's own sample count;
* a mutant that judges terminated streams' TPOT again is killed by the
  shard-kill test.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.bench import loadgen, runners
from repro.bench.loadgen import run_open_loop
from repro.core import InferletProgram, PieServer, TenantSpec, monitor, slo
from repro.core.inferlet import LifecycleObserver
from repro.core.metrics import TenantMetrics
from repro.core.registry import LogHistogram, MetricRegistry, latency_histogram
from repro.core.slo import AlertEvent, BurnWindow
from repro.errors import AdmissionRejectedError
from repro.sim import Simulator
from tests.test_slo_contract import MIX_TENANTS

# -- the oracle: the parent's three counters ------------------------------------


@dataclass
class _OldRecord:
    """What QoS counted per tenant (``TenantMetrics`` at the parent, its
    counting fields only)."""

    rejected: int = 0
    finished: int = 0
    terminated: int = 0
    output_tokens: int = 0
    ttft: LogHistogram = field(default_factory=latency_histogram)
    tpot: LogHistogram = field(default_factory=latency_histogram)
    ttft_met: int = 0
    ttft_missed: int = 0
    tpot_met: int = 0
    tpot_missed: int = 0

    def observe(self, signal: str, seconds: float, verdict: Optional[bool]) -> None:
        getattr(self, signal).observe(seconds)
        if verdict is not None:
            counter = f"{signal}_{'met' if verdict else 'missed'}"
            setattr(self, counter, getattr(self, counter) + 1)


class _OldQosCounting(LifecycleObserver):
    """``QosService.note_output``, the counting half of ``note_finished``
    and the ``rejected += 1`` of ``request_admission`` at the parent.  Who
    was admitted is recorded off the live launch gate's ``_admit`` (the
    parent kept every admitted instance for the whole run, the gate forgets
    one when it leaves); a refusal is counted when it retires, in the same
    instant the parent counted it."""

    def __init__(self, lifecycle) -> None:
        self.records: Dict[str, _OldRecord] = {}
        self._running_counted: set = set()
        #: instance id -> tenant, for every instance the gate admitted.
        self.admitted: Dict[str, str] = {}
        admit = lifecycle._admit

        def recorded(gate, instance, ready) -> None:
            self.admitted[instance.instance_id] = gate.spec.name
            admit(gate, instance, ready)

        lifecycle._admit = recorded

    def _state_of(self, instance_id: str) -> Optional[_OldRecord]:
        tenant = self.admitted.get(instance_id)
        if tenant is None:
            return None
        return self.records.setdefault(tenant, _OldRecord())

    def note_output(self, instance, now: float, count: int, first: bool) -> None:
        state = self._state_of(instance.instance_id)
        if state is None:
            return
        state.output_tokens += count
        if first:
            state.observe("ttft", instance.metrics.ttft, instance.metrics.ttft_met)

    def note_finished(self, instance) -> None:
        if instance.status == "rejected":
            self.records.setdefault(instance.tenant, _OldRecord()).rejected += 1
            return
        state = self._state_of(instance.instance_id)
        if state is None or instance.instance_id in self._running_counted:
            return
        self._running_counted.add(instance.instance_id)
        metrics = instance.metrics
        if metrics.status == "finished":
            state.finished += 1
        elif metrics.status == "terminated":
            state.terminated += 1
        # Terminated streams are judged too: a tenant whose decode was cut
        # short still had its TPOT promise kept or broken up to that point.
        tpot = metrics.tpot
        if tpot is not None:
            state.observe("tpot", tpot, metrics.tpot_met)


class _OldSignalTracker:
    """``slo._SignalTracker`` at the parent."""

    def __init__(self, windows: Sequence[BurnWindow]) -> None:
        self.windows = tuple(windows)
        self.good = 0
        self.bad = 0
        self._cur_good = 0
        self._cur_bad = 0
        self._buckets: Deque[Tuple[float, int, int]] = deque()
        self.active: List[bool] = [False] * len(self.windows)

    def observe(self, met: bool) -> None:
        if met:
            self.good += 1
            self._cur_good += 1
        else:
            self.bad += 1
            self._cur_bad += 1

    def _window_counts(self, now: float, window_s: float) -> Tuple[int, int]:
        good = self._cur_good
        bad = self._cur_bad
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

    def tick(self, now: float, budget: float) -> List[Tuple[int, str, float, float]]:
        if self._cur_good or self._cur_bad:
            self._buckets.append((now, self._cur_good, self._cur_bad))
            self._cur_good = 0
            self._cur_bad = 0
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


class _OldSloEngine:
    """``SloEngine`` at the parent: ``observe``, ``tick`` and ``budget``."""

    def __init__(self, tenants, windows, default_target) -> None:
        self.tenants = tenants
        self.windows = tuple(windows)
        self.default_target = default_target
        self._trackers: Dict[Tuple[str, str], _OldSignalTracker] = {}
        self.alerts: List[AlertEvent] = []

    def target_for(self, tenant: str) -> float:
        return self.default_target

    def _tracker(self, tenant: str, signal: str) -> _OldSignalTracker:
        key = (tenant, signal)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = _OldSignalTracker(self.windows)
            self._trackers[key] = tracker
        return tracker

    def observe(self, tenant: str, signal: str, met: bool) -> None:
        self._tracker(tenant, signal).observe(met)

    def tick(self, now: float) -> List[AlertEvent]:
        events: List[AlertEvent] = []
        for (tenant, signal), tracker in self._trackers.items():
            budget = 1.0 - self.target_for(tenant)
            for index, kind, burn_long, burn_short in tracker.tick(now, budget):
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
        return events

    def budget(self, tenant: str, signal: str) -> dict:
        tracker = self._trackers.get((tenant, signal))
        good = tracker.good if tracker is not None else 0
        bad = tracker.bad if tracker is not None else 0
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
        report: Dict[str, Dict[str, dict]] = {}
        for tenant, signal in sorted(self._trackers):
            report.setdefault(tenant, {})[signal] = self.budget(tenant, signal)
        return report


class _OldMonitorCounting(LifecycleObserver):
    """``MonitorService``'s registry families and notifications at the
    parent."""

    def __init__(self, tenants, windows, default_target) -> None:
        self.registry = MetricRegistry()
        self.slo = _OldSloEngine(tenants, windows, default_target)
        self._ttft = self.registry.histogram(
            "pie_ttft_seconds", "Time to first token per tenant", labelnames=("tenant",)
        )
        self._tpot = self.registry.histogram(
            "pie_tpot_seconds", "Time per output token per tenant", labelnames=("tenant",)
        )
        self._requests = self.registry.counter(
            "pie_requests_total",
            "Inferlets that left, by tenant and terminal status (rejected = refused at admission)",
            labelnames=("tenant", "status"),
        )
        self._offered = self.registry.counter(
            "pie_offered_total",
            "Launches asked for per tenant (refused ones included)",
            labelnames=("tenant",),
        )
        self._good = self.registry.counter(
            "pie_good_total",
            "Inferlets that finished inside their TTFT and TPOT SLO (goodput)",
            labelnames=("tenant",),
        )

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


def in_tick_order(alerts: List[AlertEvent]) -> List[AlertEvent]:
    """Alerts by tick, and within one tick by stream and window."""
    return sorted(alerts, key=lambda e: (e.time, e.tenant, e.signal, e.window))


def samples(registry: MetricRegistry, name: str) -> dict:
    """A family's samples by label values (order of first sample aside)."""
    [family] = [f for f in registry.families() if f.name == name]
    return {
        labels: child.to_dict() if family.kind == "histogram" else child.value
        for labels, child in family.samples()
    }


# -- the machine ------------------------------------------------------------------

TENANTS = (
    TenantSpec(name="chat", priority_class="interactive", ttft_slo_ms=11.0, tpot_slo_ms=4.0),
    TenantSpec(name="agent", ttft_slo_ms=25.0, tpot_slo_ms=8.0),
    TenantSpec(
        name="jobs", priority_class="batch", max_concurrent=1, max_queued=1, ttft_slo_ms=30.0
    ),
)
#: Windows short enough for a few steps of the machine to fire and clear.
WINDOWS = (BurnWindow(0.03, 0.01, 2.0), BurnWindow(0.08, 0.02, 1.5))
PICK = st.integers(0, 1_000)


class RecordAgainstOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        with mock.patch.object(monitor, "SCRAPE_INTERVAL_MS", 5.0), mock.patch.object(
            slo, "BURN_WINDOWS", WINDOWS
        ):
            self.sim = Simulator(seed=0)
            self.server = PieServer(self.sim, tenants=TENANTS, monitoring=True)
        controller = self.server.controller
        self.gates: Dict[str, object] = {}

        async def gated(ctx):
            await self.gates[ctx.instance_id]

        self.server.register_program(InferletProgram(name="gated", main=gated))
        self.instances: List = []
        self.qos_old = _OldQosCounting(self.server.lifecycle)
        self.monitor_old = _OldMonitorCounting(controller.tenants, WINDOWS, slo.DEFAULT_SLO_TARGET)
        # Told what the parent's planes were told, through the same sites.
        controller.observers = controller.observers + (self.qos_old, self.monitor_old)
        engine = self.server.monitor.slo
        tick = engine.tick
        self.ticks: List[Tuple[list, list]] = []

        def both_ticks(now):
            events = tick(now)
            self.ticks.append((events, self.monitor_old.slo.tick(now)))
            return events

        engine.tick = both_ticks

    def teardown(self) -> None:
        # Let every launch run out, so no coroutine is left unstarted.
        for gate in self.gates.values():
            if not gate.done():
                gate.set_result(None)
        self.sim.run()

    def pick(self, pick: int, instances: list):
        return instances[pick % len(instances)]

    def running(self) -> list:
        return [i for i in self.instances if i.status == "running"]

    def live(self) -> list:
        return [i for i in self.instances if not i.finished]

    def settle(self) -> None:
        self.sim.run(until=self.sim.now)

    @rule(tenant=st.sampled_from([spec.name for spec in TENANTS]), ms=st.sampled_from([0.0, 11.0]))
    def launch(self, tenant, ms=0.0):
        """Launch, then wait ``ms`` (11 ms sees an admitted launch running)."""
        try:
            instance, _ = self.server.launch("gated", tenant=tenant)
        except AdmissionRejectedError:
            return
        self.gates[instance.instance_id] = self.sim.create_future()
        self.instances.append(instance)
        self.wait(ms)

    @precondition(lambda self: self.running())
    @rule(pick=PICK, count=st.integers(1, 3), ms=st.sampled_from([0.0, 1.0, 3.0, 6.0]))
    def emit(self, pick, count, ms=0.0):
        """Wait ``ms``, then a running inferlet emits ``count`` tokens."""
        self.wait(ms)
        if not self.running():
            return
        instance = self.pick(pick, self.running())
        first = instance.metrics.first_token_at is None
        self.server.controller.record_output_tokens(instance, count)
        for old in (self.qos_old, self.monitor_old):
            old.note_output(instance, self.sim.now, count, first)

    @precondition(lambda self: self.running())
    @rule(pick=PICK)
    def finish(self, pick):
        self.gates[self.pick(pick, self.running()).instance_id].set_result(None)
        self.settle()

    @precondition(lambda self: len(self.live()) > 2)
    @rule(pick=PICK)
    def terminate(self, pick):
        self.server.controller.terminate_inferlet(self.pick(pick, self.live()), "test")
        self.settle()

    @rule(ms=st.sampled_from([1.0, 3.0, 7.0, 12.0, 30.0]))
    def wait(self, ms):
        self.sim.run(until=self.sim.now + ms / 1e3)

    @invariant()
    def the_record_is_what_qos_counted(self):
        admitted = self.qos_old.admitted
        for name, record in self.server.metrics.tenants.items():
            old = self.qos_old.records.get(name, _OldRecord())
            assert (record.ttft, record.ttft_met, record.ttft_missed) == (
                old.ttft, old.ttft_met, old.ttft_missed,
            ), name
            assert (record.output_tokens, record.rejected, record.finished) == (
                old.output_tokens, old.rejected, old.finished,
            ), name
            # The rule that changed: QoS also judged a terminated stream's
            # TPOT and counted only admitted inferlets' exits.
            mine = [i for i in self.instances if i.tenant == name]
            judged = [
                i for i in mine
                if i.status == "terminated" and i.metrics.tpot is not None
                and i.instance_id in admitted
            ]
            assert old.tpot.total == record.tpot.total + len(judged), name
            assert old.tpot_met + old.tpot_missed == (
                record.tpot_met + record.tpot_missed + len(judged)
            ), name
            never_admitted = [
                i for i in mine
                if i.status == "terminated" and i.instance_id not in admitted
            ]
            assert record.terminated == old.terminated + len(never_admitted), name

    @invariant()
    def the_exports_are_what_the_monitor_counted(self):
        export = self.server.monitor.collect()
        for name in (
            "pie_ttft_seconds",
            "pie_tpot_seconds",
            "pie_requests_total",
            "pie_offered_total",
            "pie_good_total",
        ):
            assert samples(export, name) == samples(self.monitor_old.registry, name), name

    @invariant()
    def the_budgets_and_alerts_are_the_old_engines(self):
        engine = self.server.monitor.slo
        assert engine.budgets() == self.monitor_old.slo.budgets()
        for events, expected in self.ticks:
            assert in_tick_order(events) == in_tick_order(expected)
        assert in_tick_order(engine.alerts) == in_tick_order(self.monitor_old.slo.alerts)


RecordAgainstOracle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
TestRecordAgainstOracle = RecordAgainstOracle.TestCase


def test_the_machine_reaches_the_interesting_states():
    """A scripted walk through what the machine must be able to reach: a
    refusal, a parked launch aborted, a judged terminated stream, fired and
    cleared alerts."""
    machine = RecordAgainstOracle()
    for _ in range(3):
        machine.launch("jobs")  # one runs, one parks, one is refused
    machine.launch("chat")
    machine.launch("chat")
    machine.wait(12.0)
    [job, parked] = [i for i in machine.instances if i.tenant == "jobs"]
    machine.terminate(machine.instances.index(parked) + 10 * len(machine.live()))
    chats = [i for i in machine.instances if i.tenant == "chat"]
    for _ in range(2):
        for chat in chats:
            machine.emit(machine.running().index(chat), 1)
        machine.wait(7.0)
    machine.terminate(machine.live().index(chats[0]))
    machine.finish(machine.running().index(chats[1]))
    for _ in range(12):
        machine.wait(12.0)
    machine.the_record_is_what_qos_counted()
    machine.the_exports_are_what_the_monitor_counted()
    machine.the_budgets_and_alerts_are_the_old_engines()
    jobs, chat = (machine.server.metrics.tenants[name] for name in ("jobs", "chat"))
    assert (jobs.offered, jobs.rejected, jobs.terminated) == (3, 1, 1)
    assert (chat.terminated, chat.finished, chat.tpot.total) == (1, 1, 1)
    assert machine.qos_old.records["chat"].tpot.total == 2
    kinds = [event.kind for event in machine.server.monitor.slo.alerts]
    assert "fire" in kinds and "clear" in kinds


# -- a shard kill -----------------------------------------------------------------


def shard_kill():
    """``run_open_loop`` with one of eight shards killed mid-sweep, the three
    mix classes registered and monitoring on; returns its row and its
    server."""
    servers = []

    def setup(**kwargs):
        sim, server = runners.make_pie_setup(**kwargs)
        servers.append(server)
        return sim, server

    with mock.patch.object(loadgen, "make_pie_setup", setup):
        row = run_open_loop(
            600,
            900.0,
            seed=11,
            num_devices=8,
            tenants=MIX_TENANTS,
            monitoring=True,
            faults=True,
            fault_plan=(("shard_crash", 0.3, 5),),
        )
    return row, servers[0]


def check_a_shard_kill_judges_each_tpot_once():
    row, server = shard_kill()
    assert row["chaos"]["failover_terminations"] > 0
    budgets = server.monitor.slo.budgets()
    for name, record in server.metrics.tenants.items():
        events = budgets[name]["tpot"]["events"]
        assert record.tpot.total == record.tpot_met + record.tpot_missed == events, name
        assert events == row["per_class"][name]["tpot"]["samples"], name
    # 175 finished ``agent`` streams under the core's class-then-age dispatch
    # order (174 under QoS's slack order, where QoS itself held 177 samples).
    assert server.metrics.tenants["agent"].tpot.total == 175


def test_a_shard_kill_judges_each_tpot_once():
    check_a_shard_kill_judges_each_tpot_once()


def test_mutant_that_judges_terminated_tpot_is_killed(monkeypatch):
    note_exit = TenantMetrics.note_exit

    def judges_terminated_too(self, record):
        note_exit(self, record)
        if record.status == "terminated" and record.tpot is not None:
            self.observe("tpot", record.tpot, record.tpot_met)

    monkeypatch.setattr(TenantMetrics, "note_exit", judges_terminated_too)
    with pytest.raises(AssertionError):
        check_a_shard_kill_judges_each_tpot_once()
