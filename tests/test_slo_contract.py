"""What a tenant was promised is written once, and whether a request got
it is decided once.

The SLO a request is judged against used to live in three places
(``QosService._tenants[...].spec``, ``SloEngine._specs``,
``loadgen.WorkloadClass``), and "did this sample meet it" was compared in
three modules.  Now the controller owns one ``TenantTable``, the lifecycle
manager stamps the tenant's two SLO seconds on the inferlet's record at
launch, and ``repro.core.metrics.met`` is the only comparison; QoS, the
monitor and the load harness read ``InferletMetrics.ttft_met`` / ``tpot_met``
/ ``good`` and count.

The tests, in the repo's oracle pattern:

* the three old definitions are kept **verbatim** below and a hypothesis
  property holds the one verdict equal to each of them on random
  ``(seconds, spec)`` — ``seconds == slo`` and missing samples included.
  The millisecond copy (``_is_good``) disagreed with the two second-based
  ones at the boundary for targets whose ``ms / 1e3 * 1e3`` does not round
  trip (2007 ms is one): that case is pinned, not papered over;
* *brownout reaches the harness*: the load harness used to replace the
  engine's copy of a configured interactive tenant by a default-class one,
  so ``BrownoutController.on_alert`` never saw an interactive alert —
  0 activations at the parent on the very run below;
* the mix never overwrites a tenant the caller configured;
* a refused launch is *shed*, not a crash, and leaves no observer
  half-told (no open span, one ``rejected`` count);
* an AST scan holds ``metrics.met`` the only ordering comparison of a
  latency with an SLO under ``src/``.

Two hand-made mutants and the test that kills each: *verdict compared with
``<``* → ``test_a_sample_on_the_target_meets_it``; *harness mix allowed to
overwrite a configured tenant* → ``test_brownout_reaches_the_harness``
(both automated in ``test_mutants_are_killed``).
"""

import ast
import pathlib
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.loadgen import DEFAULT_MIX, WorkloadClass, run_open_loop
from repro.bench.runners import Launch, launch_fleet, make_pie_setup
from repro.core import InferletProgram, PieServer, TenantSpec, TenantTable
from repro.core import metrics as metrics_module
from repro.core.metrics import InferletMetrics
from repro.core.qos import CLASS_TPOT_SLO_MS, CLASS_TTFT_SLO_MS, QOS_CLASSES
from repro.core.registry import LogHistogram, latency_histogram
from repro.core.trace import LifecycleTracer
from repro.errors import AdmissionRejectedError, ReproError
from repro.sim import Simulator
from repro.tools.trace_report import attribute_stalls

# -- the three old definitions, verbatim --------------------------------------


class _OldTenantMetrics:
    """``TenantMetrics.observe_ttft`` / ``observe_tpot`` at the parent."""

    def __init__(self) -> None:
        self.ttft: LogHistogram = latency_histogram()
        self.tpot: LogHistogram = latency_histogram()
        self.ttft_met = 0
        self.ttft_missed = 0
        self.tpot_met = 0
        self.tpot_missed = 0

    def observe_ttft(self, seconds: float, slo_s: Optional[float] = None) -> None:
        self.ttft.observe(seconds)
        if slo_s is not None:
            if seconds <= slo_s:
                self.ttft_met += 1
            else:
                self.ttft_missed += 1

    def observe_tpot(self, seconds: float, slo_s: Optional[float] = None) -> None:
        self.tpot.observe(seconds)
        if slo_s is not None:
            if seconds <= slo_s:
                self.tpot_met += 1
            else:
                self.tpot_missed += 1


def _old_engine_observe_ttft(spec: TenantSpec, seconds: float) -> bool:
    """``SloEngine.observe_ttft`` at the parent, minus the tracker."""
    met = seconds <= spec.ttft_slo_s
    return met


def _old_engine_observe_tpot(spec: TenantSpec, seconds: float) -> bool:
    met = seconds <= spec.tpot_slo_s
    return met


def _is_good(cls: WorkloadClass, ttft: Optional[float], tpot: Optional[float]) -> bool:
    """``loadgen._is_good`` at the parent (milliseconds)."""
    if ttft is None or ttft * 1e3 > cls.ttft_slo_ms:
        return False
    if tpot is not None and tpot * 1e3 > cls.tpot_slo_ms:
        return False
    return True


# -- the property ---------------------------------------------------------------


def stamped(spec: TenantSpec, ttft: Optional[float], tpot: Optional[float]) -> InferletMetrics:
    """A finished record launched under ``spec`` whose ``ttft`` / ``tpot``
    are *exactly* the given seconds (no subtraction error: the clock is laid
    out so that each is ``x - 0.0``)."""
    record = InferletMetrics(
        "probe", status="finished", ttft_slo_s=spec.ttft_slo_s, tpot_slo_s=spec.tpot_slo_s
    )
    if ttft is not None:
        record.launched_at, record.first_token_at, record.last_token_at = -ttft, 0.0, 0.0
        record.output_tokens = 1
        if tpot is not None:
            record.last_token_at, record.output_tokens = tpot, 2
    assert (record.ttft, record.tpot) == (ttft, tpot if ttft is not None else None)
    return record


def round_trips(ms: float) -> bool:
    """Does the millisecond copy agree with the second-based ones on a
    sample exactly at this target?"""
    return ms / 1e3 * 1e3 <= ms


def check_verdicts(spec: TenantSpec, ttft: Optional[float], tpot: Optional[float]) -> None:
    record = stamped(spec, ttft, tpot)
    ttft_met, tpot_met = record.ttft_met, record.tpot_met

    # TenantMetrics: what QoS counted.
    old = _OldTenantMetrics()
    if ttft is not None:
        old.observe_ttft(ttft, slo_s=spec.ttft_slo_s)
    if record.tpot is not None:
        old.observe_tpot(record.tpot, slo_s=spec.tpot_slo_s)
    assert (old.ttft_met, old.ttft_missed) == (ttft_met is True, ttft_met is False)
    assert (old.tpot_met, old.tpot_missed) == (tpot_met is True, tpot_met is False)

    # SloEngine: what the monitor counted.
    if ttft is None:
        assert ttft_met is None
    else:
        assert ttft_met is _old_engine_observe_ttft(spec, ttft)
    if record.tpot is None:
        assert tpot_met is None
    else:
        assert tpot_met is _old_engine_observe_tpot(spec, record.tpot)

    # loadgen: goodput, where its millisecond arithmetic is exact.
    on_a_lossy_boundary = (ttft == spec.ttft_slo_s and not round_trips(spec.ttft_slo_ms)) or (
        record.tpot == spec.tpot_slo_s and not round_trips(spec.tpot_slo_ms)
    )
    if not on_a_lossy_boundary:
        cls = WorkloadClass("x", 1.0, 1, 1, spec.ttft_slo_ms, spec.tpot_slo_ms)
        assert record.good is _is_good(cls, ttft, record.tpot)


slo_ms = st.integers(1, 20_000).map(float)


@st.composite
def cases(draw):
    spec = TenantSpec(
        name="acme",
        priority_class=draw(st.sampled_from(QOS_CLASSES)),
        ttft_slo_ms=draw(slo_ms),
        tpot_slo_ms=draw(slo_ms),
    )

    def sample(target_s: float):
        return draw(
            st.one_of(
                st.none(),
                st.just(target_s),
                st.integers(1, 30_000_000).map(lambda us: us / 1e6),
            )
        )

    return spec, sample(spec.ttft_slo_s), sample(spec.tpot_slo_s)


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_the_one_verdict_equals_each_old_definition(case):
    check_verdicts(*case)


@pytest.mark.parametrize("priority_class", QOS_CLASSES)
def test_a_sample_on_the_target_meets_it(priority_class):
    """The boundary case, on each class's default targets."""
    spec = TenantSpec(
        name="acme",
        priority_class=priority_class,
        ttft_slo_ms=CLASS_TTFT_SLO_MS[priority_class],
        tpot_slo_ms=CLASS_TPOT_SLO_MS[priority_class],
    )
    assert spec.ttft_slo_s == TenantSpec(name="acme", priority_class=priority_class).ttft_slo_s
    check_verdicts(spec, spec.ttft_slo_s, spec.tpot_slo_s)
    record = stamped(spec, spec.ttft_slo_s, spec.tpot_slo_s)
    assert (record.ttft_met, record.tpot_met, record.good) == (True, True, True)


def test_the_millisecond_copy_disagreed_at_the_boundary():
    """Why there is one definition: 2.007 s against a 2007 ms target was met
    for QoS and the monitor and *not good* for the harness."""
    spec = TenantSpec(name="acme", ttft_slo_ms=2007.0)
    ttft = spec.ttft_slo_s
    assert _old_engine_observe_ttft(spec, ttft) is True
    assert _is_good(WorkloadClass("x", 1.0, 1, 1, 2007.0, 1e9), ttft, None) is False
    assert stamped(spec, ttft, None).good is True


def test_no_sample_or_no_stamp_is_no_verdict():
    spec = TenantSpec(name="acme")
    empty = stamped(spec, None, None)
    assert (empty.ttft_met, empty.tpot_met, empty.good) == (None, None, False)
    # A bulk-recorded stream has a TTFT but no TPOT sample: still good.
    assert stamped(spec, 0.01, None).good is True
    # A record that never went through launch() carries no contract.
    unstamped = InferletMetrics("probe", first_token_at=0.5)
    assert unstamped.ttft == 0.5 and unstamped.ttft_met is None
    # Not finished is not good, whatever it met.
    terminated = stamped(spec, 0.01, 0.01)
    terminated.status = "terminated"
    assert terminated.ttft_met is True and terminated.good is False


# -- one table ------------------------------------------------------------------


def test_table_is_write_once_and_defaults_in_one_place():
    table = TenantTable([TenantSpec(name="acme", priority_class="interactive")])
    assert "acme" in table and "guest" not in table
    with pytest.raises(ReproError):
        table.register(TenantSpec(name="acme"))
    guest = table["guest"]
    assert guest.priority_class == "standard" and table["guest"] is guest
    assert list(table) == ["acme", "guest"]


def test_every_reader_reads_the_controllers_table():
    sim = Simulator(seed=0)
    acme = TenantSpec(name="acme", priority_class="interactive", slo_target=0.99)
    server = PieServer(sim, tenants=[acme], monitoring=True, brownout=True)
    controller = server.controller
    assert controller.qos.tenants is controller.tenants
    assert controller.monitor.slo.tenants is controller.tenants
    assert controller.qos.tenant_spec("acme") is controller.tenants["acme"] is acme
    late = TenantSpec(name="late", priority_class="batch", ttft_slo_ms=7.0)
    controller.tenants.register(late)

    async def main(ctx):
        return None

    server.register_program(InferletProgram(name="noop", main=main))
    instance, _ = server.launch("noop", tenant="late")
    # Stamped at launch, admitted under the same object, targeted from it.
    assert (instance.metrics.ttft_slo_s, instance.metrics.tpot_slo_s) == (0.007, 1.0)
    assert controller.qos.tenant_spec("late") is late
    assert controller.monitor.slo.target_for("acme") == 0.99
    sim.run()


def test_the_stamp_is_there_with_every_plane_off():
    sim = Simulator(seed=0)
    server = PieServer(sim)
    assert server.controller.observers == ()

    async def main(ctx):
        return None

    server.register_program(InferletProgram(name="noop", main=main))
    instance, _ = server.launch("noop")
    assert instance.metrics.ttft_slo_s == 1.0 and instance.metrics.tpot_slo_s == 0.15
    sim.run()


# -- brownout reaches the harness ------------------------------------------------

MIX_CLASSES = {"interactive": "interactive", "agent": "standard", "batch": "batch"}
MIX_TENANTS = tuple(
    TenantSpec(
        name=cls.name,
        priority_class=MIX_CLASSES[cls.name],
        ttft_slo_ms=cls.ttft_slo_ms,
        tpot_slo_ms=cls.tpot_slo_ms,
    )
    for cls in DEFAULT_MIX
)


def check_brownout_reaches_the_harness():
    row = run_open_loop(
        800, 1800.0, seed=11, tenants=MIX_TENANTS, monitoring=True, brownout=True
    )
    assert row["per_class"]["interactive"]["good"] < row["per_class"]["interactive"]["requests"]
    assert row["monitor"]["alerts_fired"] >= 1
    system = row["monitor"]["snapshot"]["metrics"]
    assert system["pie_system_brownout_activations"]["samples"][0]["value"] >= 1
    assert row["n_requests"] == 800 == row["finished"] + row["shed"]


def test_brownout_reaches_the_harness():
    check_brownout_reaches_the_harness()


def test_the_mix_never_overwrites_a_configured_tenant():
    strict = TenantSpec(
        name="interactive", priority_class="interactive", ttft_slo_ms=1.0, tpot_slo_ms=1.0
    )
    row = run_open_loop(30, 200.0, seed=3, num_devices=2, tenants=(strict,), monitoring=True)
    mine, theirs = row["per_class"]["interactive"], row["per_class"]["agent"]
    # Judged against the caller's contract (nothing meets 1 ms) ...
    assert (mine["ttft_slo_ms"], mine["tpot_slo_ms"]) == (1.0, 1.0)
    assert mine["requests"] > 0 and mine["good"] == 0
    # ... and the class nobody configured against the mix's own.
    assert theirs["ttft_slo_ms"] == 800.0 and theirs["good"] == theirs["requests"] > 0
    # The monitor's verdicts are the same ones.
    budgets = row["monitor"]["budgets"]
    assert budgets["interactive"]["ttft"]["bad"] == mine["requests"]
    assert budgets["agent"]["ttft"]["bad"] == 0


# -- shed, not a crash ------------------------------------------------------------


def napper() -> InferletProgram:
    async def main(ctx):
        await ctx._sim.sleep(0.05)
        return "done"

    return InferletProgram(name="napper", main=main)


ONE_AT_A_TIME = TenantSpec(name="jobs", max_concurrent=1, max_queued=0)


def test_a_refused_launch_is_that_entrys_result():
    _, server = make_pie_setup(seed=5, with_tools=False, tenants=[ONE_AT_A_TIME])
    program = napper()
    run = launch_fleet(
        server, [Launch(program, delay, {"tenant": "jobs"}) for delay in (None, 0.01, 0.2)]
    )
    assert [result.status for result in run.results] == ["finished", "rejected", "finished"]
    refused = run.results[1]
    assert (refused.instance_id, refused.result, refused.reason) == ("", None, "")
    assert run.finished == 2 and server.metrics.qos_rejected == 1


def test_shed_is_reported_and_stays_in_the_denominators():
    tenants = (TenantSpec(name="batch", priority_class="batch", max_concurrent=1, max_queued=0),)
    row = run_open_loop(60, 400.0, seed=3, num_devices=2, tenants=tenants, monitoring=True)
    batch = row["per_class"]["batch"]
    assert row["shed"] == batch["shed"] > 0
    assert all(row["per_class"][name]["shed"] == 0 for name in ("interactive", "agent"))
    assert row["finished"] + row["shed"] == row["n_requests"] == 60
    assert sum(cls["requests"] for cls in row["per_class"].values()) == 60
    assert row["slo_attainment"] == row["goodput_count"] / 60
    # Server-side, the same account: offered counts the refused launches too.
    metrics = row["monitor"]["snapshot"]["metrics"]
    by_tenant = lambda name: {  # noqa: E731
        s["labels"]["tenant"]: s["value"] for s in metrics[name]["samples"]
    }
    assert by_tenant("pie_offered_total") == {
        name: cls["requests"] for name, cls in row["per_class"].items()
    }
    assert by_tenant("pie_good_total") == {
        name: cls["good"] for name, cls in row["per_class"].items() if cls["good"]
    }
    rejected = [
        s["value"]
        for s in metrics["pie_requests_total"]["samples"]
        if s["labels"]["status"] == "rejected"
    ]
    assert rejected == [row["shed"]]


def test_a_refused_launch_leaves_no_observer_half_told():
    sim = Simulator(seed=0)
    server = PieServer(sim, tenants=[ONE_AT_A_TIME], tracing=True, monitoring=True)
    server.register_program(napper())
    server.launch("napper", tenant="jobs")
    with pytest.raises(AdmissionRejectedError):
        server.launch("napper", tenant="jobs")
    [tracer] = [o for o in server.controller.observers if isinstance(o, LifecycleTracer)]
    # Only the admitted launch is still open; nothing of the refused one.
    assert len(tracer._spans) == 1
    assert {span["name"] for span in server.trace.open_spans()} == {"inferlet", "launch"}
    assert len(server.trace.open_spans()) == 2
    sim.run()
    assert tracer._spans == {} and server.trace.open_spans() == []
    # Counted once, as a rejected request that was offered.
    metrics = server.export_metrics()["metrics"]
    assert {
        s["labels"]["status"]: s["value"] for s in metrics["pie_requests_total"]["samples"]
    } == {"finished": 1.0, "rejected": 1.0}
    assert metrics["pie_offered_total"]["samples"][0]["value"] == 2.0
    assert server.metrics.qos_rejected == 1 and server.metrics.inferlets_launched == 1
    # The trace shows a refusal at an instant, not an inferlet aborted after
    # a whole run.
    rows = attribute_stalls(server.trace.events())
    [refused] = [row for row in rows.values() if row["status"] == "rejected"]
    assert refused["latency"] == 0.0 and not refused["aborted"]
    assert sum(1 for row in rows.values() if row["aborted"]) == 0


# -- one comparison ----------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
#: An operand naming a latency SLO: ``ttft_slo_s``, ``CLASS_TPOT_SLO_MS``,
#: ``slo_s`` ... (``slo_target``, an availability objective, is not one).
SLO_NAME = re.compile(r"(^|_)slo_(s|ms)$", re.IGNORECASE)
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def slo_comparisons(source: str, exempt: str = "") -> list:
    """Line numbers of the ordering comparisons in ``source`` with an
    operand that names a latency SLO, outside the function ``exempt``."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == exempt
        for node in ast.walk(function)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in allowed:
            continue
        if not any(isinstance(op, ORDERINGS) for op in node.ops):
            continue
        names = [
            name.id if isinstance(name, ast.Name) else name.attr
            for operand in (node.left, *node.comparators)
            for name in ast.walk(operand)
            if isinstance(name, (ast.Name, ast.Attribute))
        ]
        if any(SLO_NAME.search(name) for name in names):
            lines.append(node.lineno)
    return lines


def test_the_scan_sees_a_comparison_with_an_slo():
    assert slo_comparisons("good = [t for t in ttfts if t <= ttft_slo_s]") == [1]
    assert slo_comparisons("late = spec.tpot_slo_s < tpot") == [1]
    assert slo_comparisons("x = CLASS_TTFT_SLO_MS['batch'] / 1e3 >= t") == [1]
    assert slo_comparisons("ok = 0.0 < slo_target < 1.0 and slots <= 4") == []
    source = "def met(sample, slo_s):\n    return sample <= slo_s\n"
    assert slo_comparisons(source) == [2] and slo_comparisons(source, exempt="met") == []


def test_met_is_the_only_latency_slo_comparison_under_src():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in slo_comparisons(
            path.read_text(encoding="utf-8"),
            exempt="met" if path == SRC / "repro" / "core" / "metrics.py" else "",
        )
    ]
    assert found == []


# -- the mutants --------------------------------------------------------------------


def mutant_strictly_less(monkeypatch):
    def met(sample, slo_s):
        if sample is None or slo_s is None:
            return None
        return sample < slo_s

    monkeypatch.setattr(metrics_module, "met", met)
    return lambda: test_a_sample_on_the_target_meets_it("standard")


def mutant_mix_overwrites(monkeypatch):
    monkeypatch.setattr(TenantTable, "__contains__", lambda table, name: False)
    monkeypatch.setattr(
        TenantTable, "register", lambda table, spec: table.__setitem__(spec.name, spec)
    )
    return check_brownout_reaches_the_harness


@pytest.mark.parametrize("mutant", [mutant_strictly_less, mutant_mix_overwrites])
def test_mutants_are_killed(mutant, monkeypatch):
    killer = mutant(monkeypatch)
    with pytest.raises(AssertionError):
        killer()
