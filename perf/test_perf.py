"""Tests of the benchmark itself: ``python -m pytest perf -q``.

Outside tier-1's ``testpaths`` by design: the smoke runs start
subprocesses and take about a minute.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perf import compare, metrics, run, spans, workloads  # noqa: E402
from perf.spec import LAYERS, clock_of, end_to_end, load_spec  # noqa: E402
from repro.core.config import PieConfig, WasmRuntimeConfig  # noqa: E402
from repro.core import PieServer  # noqa: E402
from repro.sim import Simulator  # noqa: E402

SPEC = load_spec()


# -- tail-percentile rule ---------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert metrics.samples_beyond(2000, 99) == 20
    assert metrics.tail_percentile(2000) == 99
    assert metrics.tail_percentile(1000) == 99
    assert metrics.tail_percentile(999) == 95
    assert metrics.tail_percentile(200) == 95
    assert metrics.tail_percentile(120) == 90
    assert metrics.tail_percentile(99) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=lambda w: w.name)
def test_each_workload_reports_the_tail_its_size_supports(workload):
    assert metrics.tail_percentile(workload.size) == workload.request_tail


# -- SLO verdict ------------------------------------------------------------


def _request(**limits):
    return workloads.Request(
        index=0, program="perf_chat", due=1.0, prompt=(1,), out_tokens=3,
        ttft_limit_ms=limits.get("ttft", 100.0), itl_limit_ms=limits.get("itl", 50.0),
    )  # fmt: skip


def _outcome(state="succeeded", segments=((1.05, 1.09, 1.13),)):
    return workloads.Outcome(
        state=state, t0=1.0, finished_at=1.2, token_ids=[1, 2, 3],
        segments=[list(s) for s in segments],
    )  # fmt: skip


def test_slo_verdict():
    assert metrics.meets_limits(_request(), _outcome())
    assert not metrics.meets_limits(_request(ttft=40.0), _outcome())
    assert not metrics.meets_limits(_request(itl=30.0), _outcome())
    # A refused or failed request misses every limit, whatever it recorded.
    assert not metrics.meets_limits(_request(), _outcome(state="refused", segments=()))
    assert not metrics.meets_limits(_request(), _outcome(state="failed"))


def test_itl_leaves_out_gaps_across_segments():
    split = _outcome(segments=((1.05, 1.09), (2.00, 2.04)))
    assert metrics.itl_gaps_ms(split) == pytest.approx([40.0, 40.0])
    assert metrics.ttft_ms(split) == pytest.approx(50.0)


def test_refused_launches_are_counted_not_raised():
    """Per-request error containment: an exhausted Wasm pool refuses
    launches; the run completes and accounts for every request."""
    workload = workloads.WORKLOADS["chat_overload"]
    requests = workload.build(5, 60)
    sim = Simulator(seed=5)
    server = PieServer(sim, config=PieConfig(wasm=WasmRuntimeConfig(pool_size=8)), num_devices=4)
    run_all, outcomes = workloads.drive(sim, server, workload, requests)
    sim.run_until_complete(run_all())
    sim.run()
    result = metrics.end_to_end(workload, requests, outcomes, sim.now)
    counts = result["counts"]
    assert counts["refused"] > 0
    assert counts["succeeded"] + counts["failed"] + counts["refused"] == counts["sent"] == 60
    assert result["metrics"]["failed_share"] == counts["refused"] / 60
    assert result["metrics"]["slo_attainment"] <= 1.0 - result["metrics"]["failed_share"]
    assert "pool exhausted" in next(o.error for o in outcomes if o.state == "refused")


@pytest.mark.xfail(
    reason="defect found by this benchmark: branches forked onto their own queues "
    "decode from a wrong context when the prefix cache is on and requests overlap",
    strict=False,
)
def test_forked_queues_with_prefix_cache_match_oracle():
    """Why shared_prefix_fork keeps its branches on the root's queue.  The
    same requests with ``support.fork_join`` (a queue per branch) should
    produce the tokens of their solo replays; today a few of them do not."""
    from repro.core import InferletProgram
    from repro.support import Context, fork_join

    requests = workloads.WORKLOADS["shared_prefix_fork"].build(3, 150)

    def install(server):
        async def main(ctx):
            request = requests[int(ctx.get_arg()[0])]
            root = Context(ctx)
            await root.fill(list(request.prefix + request.prompt))

            async def branch(child, _index):
                return [await child.generate_once() for _ in range(3)]

            tokens = await fork_join(ctx, root, branch, 2)
            root.free()
            return tokens

        for name in sorted({request.program for request in requests}):
            server.register_program(InferletProgram(name=name, main=main))

    sim = Simulator(seed=3)
    server = PieServer(sim, prefix_cache=True)
    install(server)
    served = {}

    async def arrival(request):
        await sim.sleep(request.index * 0.02)  # 50 req/s: requests overlap
        result = await server.run_inferlet(request.program, args=[str(request.index)])
        served[request.index] = result.result

    sim.run_until_complete(sim.gather([sim.create_task(arrival(r)) for r in requests]))
    solo_sim = Simulator(seed=3)
    solo = PieServer(solo_sim)
    install(solo)
    wrong = [
        r.index
        for r in requests
        if solo_sim.run_until_complete(solo.run_inferlet(r.program, args=[str(r.index)])).result
        != served[r.index]
    ]
    assert server.metrics.prefix_cache_hits > 100
    assert wrong == []


# -- spans ------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    leaf = recorder.wrap("leaf", "model", lambda: None)  # 1 tick each

    def middle():
        leaf()
        leaf()

    middle = recorder.wrap("middle", "handlers", middle)
    root = recorder.wrap("root", lambda args: "sim", lambda: middle())
    root()  # clock: root 0, middle 1, leaf 2-3, leaf 4-5, middle 6, root 7
    assert recorder.self_s == {"model": 2.0, "handlers": 3.0, "sim": 2.0}
    assert sum(recorder.self_s.values()) == 7.0  # the root span's duration
    assert recorder.calls == {"leaf": 2, "middle": 1, "root": 1}
    by_name = {record[2]: record for record in recorder.records}
    assert by_name["middle"][1] == by_name["root"][0]  # parent id
    assert by_name["root"][1] is None


def test_span_cap_drops_records_but_keeps_self_time():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)), cap=2)
    call = recorder.wrap("call", "sim", lambda: None)
    for _ in range(5):
        call()
    assert len(recorder.records) == 2 and recorder.dropped == 3
    assert recorder.self_s["sim"] == 5.0


def test_install_restores_every_target():
    from repro.sim.simulator import Simulator as Sim

    before = Sim.step
    with spans.installed(spans.SpanRecorder()):
        assert Sim.step is not before
    assert Sim.step is before


# -- compare ----------------------------------------------------------------


def test_compare_bounds():
    assert compare.judge([10.0] * 3, [10.0] * 3, "lower", 0.1)[0] == "identical"
    assert compare.judge([10.0, 10.1, 9.9], [10.5, 10.6, 10.4], "lower", 0.1)[0] == "within bound"
    assert compare.judge([10.0, 10.1, 9.9], [11.5, 11.6, 11.4], "lower", 0.1)[0] == "worse"
    assert compare.judge([10.0, 10.1, 9.9], [8.5, 8.6, 8.4], "higher", 0.1)[0] == "worse"
    # The base's own quartiles are 40% apart: a 5% move says nothing.
    assert compare.judge([8.0, 10.0, 12.0, 14.0], [10.5] * 4, "lower", 0.1)[0] == "unresolved"
    # Three pairs are too few to claim a gain, ten consistent ones are enough.
    assert compare.judge([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", 0.1)[0] == "within bound"
    base = [10.0 + 0.01 * i for i in range(10)]
    assert compare.judge(base, [v - 2.0 for v in base], "lower", 0.1)[0] == "better"
    # ... unless the win is inside the base's own spread.
    noisy = [10.0 + i for i in range(10)]
    assert compare.judge(noisy, [v - 0.5 for v in noisy], "lower", 0.5)[0] == "within bound"


def _verdicts(base, new):
    def document(cpu, goodput, failed_share):
        host = {"setup_s": 1.0, "host_cpu_s": cpu, "peak_rss_mb": 50.0}
        virtual = {"goodput_rps": goodput, "failed_share": failed_share}
        run_ = {"host": host, "virtual": virtual, "layers": {"sim.events_per_request": 75.0}}
        return {"workloads": {w["name"]: {"untraced": run_} for w in SPEC["workloads"]}}

    rows, regressed = compare.compare(SPEC, [document(*base)], [document(*new)])
    return {(row[0], row[1]): row[-1] for row in rows}, regressed


def test_compare_gates_one_seed_at_the_same_seed_bounds():
    """The same seed on both sides: 1 % for virtual metrics (not the
    cross-seed bounds of BENCHMARK.json), 10 % for host CPU, no rise at all
    of failed_share."""
    verdicts, regressed = _verdicts((10.0, 200.0, 0.0), (10.2, 200.0, 0.0))
    assert not regressed
    assert verdicts[("chat_steady", "goodput_rps")] == "identical"
    assert verdicts[("chat_steady", "sim.events_per_request")] == "identical"
    assert verdicts[("chat_steady", "host_cpu_s")] == "within bound"
    verdicts, regressed = _verdicts((10.0, 200.0, 0.0), (10.0, 190.0, 0.0))  # 5 % fewer good
    assert regressed and verdicts[("chat_overload", "goodput_rps")] == "worse"
    verdicts, regressed = _verdicts((10.0, 200.0, 0.0), (10.0, 199.0, 0.0))
    assert not regressed and verdicts[("chat_overload", "goodput_rps")] == "within bound"
    verdicts, regressed = _verdicts((10.0, 200.0, 0.0), (11.5, 200.0, 0.0))
    assert regressed and verdicts[("agent_fleet", "host_cpu_s")] == "worse"
    verdicts, regressed = _verdicts((10.0, 200.0, 0.0), (10.0, 200.0, 0.001))
    assert regressed and verdicts[("chat_overload", "failed_share")] == "worse"


# -- the contract and the workloads ----------------------------------------


def test_spec_names_every_layer_and_clock():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"].split(".")[0] for m in SPEC["per_layer"]} == set(LAYERS)
    assert {m["name"] for m in SPEC["end_to_end"] if clock_of(m["name"]) == "host"} == {
        "setup_s", "host_cpu_s", "peak_rss_mb",
    }  # fmt: skip


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_virtual_metrics_repeat_bit_for_bit(name):
    """50 requests of each workload, twice untraced and once traced: every
    virtual metric and count agrees exactly, outputs match the oracle, and
    the result lines carry every metric BENCHMARK.json names."""
    first = run.measure(name, 7, requests=50)
    second = run.measure(name, 7, requests=50, setup_samples=1)
    traced = run.trace(name, 7, first, None, requests=50)
    assert first["correct"] and second["correct"] and traced["correct"]
    assert first["counts"]["sent"] == 50
    assert first["virtual"] == second["virtual"] == traced["virtual"]
    assert first["counts"] == second["counts"] == traced["counts"]
    for key, value in first["layers"].items():
        if clock_of(key) == "virtual":
            assert second["layers"][key] == traced["layers"][key] == value, key
    line = run.contract_line(SPEC, first, traced=False)
    assert all(f'"{m["name"]}"' in line for m in SPEC["end_to_end"])
    assert set(first["virtual"]) | set(first["host"]) == {m["name"] for m in end_to_end(SPEC)}
    line = run.contract_line(SPEC, traced, traced=True)
    assert all(f'"{m["name"]}"' in line for m in SPEC["per_layer"])
    hit_share = traced["layers"]["prefix_cache.hit_share"]
    assert hit_share > 0 if name == "shared_prefix_fork" else hit_share == 0
