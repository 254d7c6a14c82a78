"""When an inferlet is due and what a forward costs are each written once.

The deadline used to exist only as ``QosService.deadline``, with QoS on,
re-reading the tenant's spec; now it is ``InferletMetrics.deadline``, a read
off the SLO seconds ``launch()`` stamps, there with every plane off.  The
forward formula used to be read past ``KernelCostModel``'s API at three core
sites (the scheduler's hold bound and chunk accounting, the swap manager's
recompute side) and rebuilt row by row by the handlers; now
``KernelCostModel.forward_seconds`` is the one formula and everything that
charges or predicts a forward asks it.

The tests, in the repo's oracle pattern:

* the parent's ``QosService.deadline`` and ``forward_batch_cost`` (and the
  handler's row building) are kept **verbatim** below, and two hypothesis
  properties hold the new reads equal to them with ``==`` — random stamps
  and token times, a token at ``t = 0.0`` included; random rows on every
  model size;
* on a real QoS run every slack QoS scores reads the old deadline;
* QoS forgets an inferlet when it leaves (the parent kept every admitted
  instance alive until the run ended);
* an AST scan keeps the decision behind one module: nothing under
  ``src/repro/core/`` reads a ``CostParams`` field or names ``ForwardRow``.

Two hand-made mutants and the test that kills each: *deadline off the first
token* → ``test_deadline_equals_the_old_one``; *each term converted to
seconds on its own* → ``test_forward_seconds_equals_the_old_charge``
(both automated in ``test_mutants_are_killed``).
"""

import ast
import dataclasses
import gc
import pathlib
import weakref
from types import SimpleNamespace
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferletProgram, PieServer, TenantSpec
from repro.core.handlers import ApiHandlers
from repro.core.metrics import InferletMetrics, SystemMetrics
from repro.core.qos import QOS_CLASSES, QosService, TenantTable
from repro.gpu.kernels import ForwardRow, KernelCostModel
from repro.model import CostParams, get_model_config
from repro.sim import Simulator
from repro.sim.latency import milliseconds
from repro.support import Context, SamplingParams
from tests.test_qos_service import make_instance, stamp

MODELS = ("llama-sim-1b", "llama-sim-3b", "llama-sim-8b")

# -- the parent's definitions, verbatim ----------------------------------------


def _old_deadline(self, instance) -> float:
    """``QosService.deadline`` at the parent."""
    state = self._state_of(instance.instance_id)
    # Never admitted here (unit-test instances): its tenant's contract.
    spec = state.spec if state is not None else self.tenants[instance.tenant]
    metrics = instance.metrics
    if metrics.first_token_at is None:
        return metrics.launched_at + spec.ttft_slo_s
    return (metrics.last_token_at or metrics.first_token_at) + spec.tpot_slo_s


def _old_forward_batch_cost(self, rows: Sequence[ForwardRow]) -> float:
    """``KernelCostModel.forward_batch_cost`` at the parent."""
    if not rows:
        return 0.0
    cost = self.cost
    decode_rows = sum(1 for row in rows if row.n_input_tokens <= 1)
    prefill_tokens = sum(
        row.n_input_tokens for row in rows if row.n_input_tokens > 1
    )
    context_tokens = sum(row.context_tokens for row in rows)
    total_ms = cost.decode_ms_base
    if decode_rows > 1:
        total_ms += cost.decode_ms_per_extra_row * (decode_rows - 1)
    total_ms += cost.prefill_ms_per_token * prefill_tokens
    total_ms += cost.attn_ms_per_kilotoken * (context_tokens / 1024.0)
    return milliseconds(total_ms)


def _old_forward_rows(commands) -> list:
    """The forward branch of ``ApiHandlers.batch_cost_seconds`` at the parent."""
    return [
        ForwardRow(
            n_input_tokens=max(1, command.input_tokens),
            context_tokens=command.context_tokens,
        )
        for command in commands
    ]


# -- property 1: the deadline ----------------------------------------------------


times = st.one_of(st.just(0.0), st.integers(0, 30_000_000).map(lambda us: us / 1e6))


@st.composite
def timelines(draw):
    spec = TenantSpec(
        name="acme",
        priority_class=draw(st.sampled_from(QOS_CLASSES)),
        ttft_slo_ms=draw(st.none() | st.integers(1, 20_000).map(float)),
        tpot_slo_ms=draw(st.none() | st.integers(1, 20_000).map(float)),
    )
    launched_at = draw(times)
    tokens = sorted(draw(st.lists(st.tuples(times, st.integers(1, 3)), max_size=6)))
    return spec, launched_at, [(max(at, launched_at), count) for at, count in tokens]


@settings(max_examples=300, deadline=None)
@given(timeline=timelines(), admitted=st.booleans())
def test_deadline_equals_the_old_one(timeline, admitted):
    spec, launched_at, tokens = timeline
    qos = QosService(Simulator(), SystemMetrics(), tenants=TenantTable([spec]))
    instance = stamp(qos, make_instance(tenant="acme"))
    instance.metrics.launched_at = launched_at
    if admitted:
        qos.request_admission(instance, proceed=lambda: None)
    assert instance.metrics.deadline == _old_deadline(qos, instance)
    for at, count in tokens:
        instance.metrics.note_output(at, count)
        assert instance.metrics.deadline == _old_deadline(qos, instance)


def test_a_first_token_at_zero_is_a_token():
    """``last_token_at or first_token_at`` fell through on a 0.0 stamp; both
    are 0.0 then, so the one read need not."""
    metrics = InferletMetrics("probe", ttft_slo_s=0.25, tpot_slo_s=0.05)
    assert metrics.deadline == 0.25
    metrics.note_output(0.0)
    assert metrics.deadline == 0.05


def test_an_unstamped_record_has_no_deadline():
    assert InferletMetrics("probe").deadline is None
    assert InferletMetrics("probe", first_token_at=0.5, last_token_at=0.5).deadline is None


def test_every_slack_qos_scores_reads_the_old_deadline(monkeypatch):
    """On a real QoS run (three classes, queued admission) the slack QoS
    scores — dispatch and preemption — is the one the parent scored."""
    seen = []
    weighted_slack = QosService._weighted_slack

    def checked(self, instance, now):
        seen.append((instance.metrics.deadline, _old_deadline(self, instance)))
        return weighted_slack(self, instance, now)

    monkeypatch.setattr(QosService, "_weighted_slack", checked)
    sim = Simulator(seed=3)
    server = PieServer(
        sim,
        tenants=[
            TenantSpec(name="chat", priority_class="interactive", max_concurrent=2),
            TenantSpec(name="std", priority_class="standard", ttft_slo_ms=37.0),
            TenantSpec(name="jobs", priority_class="batch", max_concurrent=1),
        ],
    )
    server.register_program(chatter())
    for index in range(9):
        server.launch("chatter", tenant=("chat", "std", "jobs")[index % 3])
    sim.run()
    assert len(seen) > 50
    assert all(new == old for new, old in seen)


# -- property 2: the forward cost ------------------------------------------------

rows = st.lists(
    st.builds(ForwardRow, st.integers(0, 2_000), st.integers(0, 20_000)), max_size=70
)


@settings(max_examples=300, deadline=None)
@given(model_name=st.sampled_from(MODELS), batch=rows)
def test_forward_seconds_equals_the_old_charge(model_name, batch):
    model = KernelCostModel(get_model_config(model_name))
    old = _old_forward_batch_cost(model, batch)
    assert model.forward_batch_cost(batch) == old
    if batch:
        commands = [
            SimpleNamespace(input_tokens=row.n_input_tokens, context_tokens=row.context_tokens)
            for row in batch
        ]
        handlers = SimpleNamespace(cost_model=model)
        charged = ApiHandlers.batch_cost_seconds(handlers, "forward", commands)
        assert charged == _old_forward_batch_cost(model, _old_forward_rows(commands))
        decode_rows = sum(1 for row in batch if row.n_input_tokens <= 1)
        prefill_tokens = sum(row.n_input_tokens for row in batch if row.n_input_tokens > 1)
        context_tokens = sum(row.context_tokens for row in batch)
        assert model.forward_seconds(decode_rows, prefill_tokens, context_tokens) == old


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("tokens", [2, 16, 97, 1024, 4096])
def test_the_three_core_reads_equal_the_parent_arithmetic(model_name, tokens):
    """The scheduler's hold bound, chunk accounting's per-token term and the
    swap manager's recompute side, each as the parent spelled it."""
    model = KernelCostModel(get_model_config(model_name))
    cost = model.cost
    assert model.forward_seconds(decode_rows=1) == milliseconds(cost.decode_ms_base)
    assert model.prefill_token_seconds(tokens) == milliseconds(cost.prefill_ms_per_token * tokens)
    assert model.forward_seconds(prefill_tokens=tokens) == _old_forward_batch_cost(
        model, [ForwardRow(n_input_tokens=tokens)]
    )


# -- QoS forgets who left ----------------------------------------------------------


def chatter() -> InferletProgram:
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("hello ")
        await context.generate_until(max_tokens=3)
        context.free()

    return InferletProgram(name="chatter", main=main)


def test_qos_holds_no_finished_inferlet():
    """Fails at the parent: ``_instances`` was written at admission and never
    popped, so every admitted instance lived until the service did."""
    sim = Simulator(seed=0)
    server = PieServer(
        sim, tenants=[TenantSpec(name="chat", priority_class="interactive", max_concurrent=2)]
    )
    server.register_program(chatter())
    instances = [server.launch("chatter", tenant="chat")[0] for _ in range(4)]
    sim.run()
    assert [instance.status for instance in instances] == ["finished"] * 4
    assert server.controller.qos._instances == {}
    refs = [weakref.ref(instance) for instance in instances]
    del instances
    gc.collect()
    assert all(ref() is None for ref in refs)


# -- one module decides --------------------------------------------------------------

CORE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
COST_FIELDS = frozenset(field.name for field in dataclasses.fields(CostParams))


def cost_model_bypasses(source: str) -> list:
    """Line numbers in ``source`` that read a ``CostParams`` field or name
    ``ForwardRow`` (a use or an import)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in COST_FIELDS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "ForwardRow":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "ForwardRow" for alias in node.names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_a_bypass():
    assert cost_model_bypasses("bound = model.cost.decode_ms_base") == [1]
    assert cost_model_bypasses("from repro.gpu.kernels import ForwardRow") == [1]
    assert cost_model_bypasses("x = 1\nrow = ForwardRow(n_input_tokens=4)") == [2]
    assert cost_model_bypasses("bound = model.forward_seconds(decode_rows=1)") == []


def test_no_core_module_reads_past_the_cost_model():
    found = [
        f"{path.relative_to(CORE)}:{line}"
        for path in sorted(CORE.rglob("*.py"))
        for line in cost_model_bypasses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# -- the mutants ------------------------------------------------------------------------


def mutant_deadline_off_the_first_token(monkeypatch):
    def deadline(self):
        if self.ttft_slo_s is None:
            return None
        if self.first_token_at is None:
            return self.launched_at + self.ttft_slo_s
        return self.first_token_at + self.tpot_slo_s

    monkeypatch.setattr(InferletMetrics, "deadline", property(deadline))
    return test_deadline_equals_the_old_one


def mutant_terms_converted_one_by_one(monkeypatch):
    def forward_seconds(self, decode_rows=0, prefill_tokens=0, context_tokens=0):
        cost = self.cost
        total = milliseconds(cost.decode_ms_base)
        if decode_rows > 1:
            total += milliseconds(cost.decode_ms_per_extra_row * (decode_rows - 1))
        total += milliseconds(cost.prefill_ms_per_token * prefill_tokens)
        return total + milliseconds(cost.attn_ms_per_kilotoken * (context_tokens / 1024.0))

    monkeypatch.setattr(KernelCostModel, "forward_seconds", forward_seconds)
    return test_forward_seconds_equals_the_old_charge


@pytest.mark.parametrize(
    "mutant", [mutant_deadline_off_the_first_token, mutant_terms_converted_one_by_one]
)
def test_mutants_are_killed(mutant, monkeypatch):
    killer = mutant(monkeypatch)
    with pytest.raises(AssertionError):
        killer()
