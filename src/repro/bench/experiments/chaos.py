"""Chaos plane under load: kill one of eight shards at the knee rate.

Robustness is measured the way availability engineers measure it: offered
load held constant, a fault injected mid-run, and the question is how much
goodput the cluster *keeps*.  This experiment drives the open-loop harness
at the reference knee rate (900 req/s, from ``BENCH_load_sweep.json``) on
an eight-device deployment three times:

* **baseline** — chaos plane off entirely;
* **faults_inert** — chaos plane on with an *empty* plan, which must be
  bit-identical to the baseline (virtual duration, goodput and every
  generated token) — the armed-but-idle injector observes nothing and
  perturbs nothing;
* **shard_kill** — one shard fail-stops mid-sweep.  Victims resident on
  the dead shard terminate (or relaunch, when fully swapped), the health
  service stops placement within a heartbeat, and the seven survivors
  absorb the remaining arrivals.  The figure of merit is **goodput
  retained**: killing 1/8 of the capacity must keep >= 80% of the
  baseline's goodput, and the survivors' p99 TTFT rides along.

A separate **rescue probe** demonstrates the relaunch path the open-loop
sweep's tool-free requests never exercise: an agent blocked on a 500 ms
tool call is proactively swapped to the host tier, its shard crashes, and
failover re-materializes it on the healthy shard with output tokens
identical to a crash-free run.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.bench.compare import compare_arms
from repro.bench.loadgen import run_open_loop
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import make_pie_setup, run_pie_single

#: Offered rate: the measured knee of the PR-8 reference sweep
#: (BENCH_load_sweep.json: knee_offered_rate=900 on 4 devices); the
#: 8-device deployment runs it with the headroom a kill then consumes.
RATE = 900.0
NUM_DEVICES = 8
#: The kill: one shard fail-stops mid-arrival-sweep.
CRASH_SHARD = 5
CRASH_AT = 0.3
SEED = 11

KILL_PLAN = (("shard_crash", CRASH_AT, CRASH_SHARD),)

#: Server overrides of the three arms (see the module docstring).
ARMS = {
    "baseline": {},
    "faults_inert": dict(faults=True),
    "shard_kill": dict(faults=True, fault_plan=KILL_PLAN),
}


def run_rescue_probe() -> Dict:
    """Crash the shard of a tool-blocked, fully swapped agent; it must be
    relaunched on the survivor and finish with identical tokens."""
    from repro.core import InferletProgram
    from repro.sim.latency import ConstantLatency
    from repro.support import Context, SamplingParams

    tool_url = "http://tools/archive"

    def make_program():
        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill("A long analysis prompt. " * 12)
            await context.generate_until(max_tokens=3)
            observation = await ctx.http_get(tool_url)
            await context.fill(f"obs:{observation} ")
            out = await context.generate_until(max_tokens=3)
            context.free()
            return out

        return InferletProgram(name="mover", main=main)

    def run_once(crash: bool):
        _, server = make_pie_setup(
            seed=3,
            with_tools=False,
            num_kv_pages=64,
            num_devices=2,
            host_kv_pages=64,
            swap_policy="proactive",
            faults=True,
            fault_plan=(("shard_crash", 0.45, 0),) if crash else (),
        )
        server.register_external(tool_url, lambda payload: "rows", ConstantLatency(0.5))
        return server, run_pie_single(server, make_program())

    _, clean = run_once(crash=False)
    server, crashed = run_once(crash=True)
    return {
        "clean_status": clean.status,
        "crashed_status": crashed.status,
        "identical_tokens": crashed.result == clean.result,
        "relaunches": server.metrics.failover_relaunches,
        "terminations": server.metrics.failover_terminations,
        "swap_outs": server.metrics.swap_outs,
    }


def run(quick: bool = True) -> ExperimentResult:
    n_requests = 600 if quick else 1200
    result = ExperimentResult(
        name="Chaos: shard kill at the knee",
        description=(
            f"open-loop {RATE:.0f} req/s on {NUM_DEVICES} devices; one shard "
            f"fail-stops at t={CRASH_AT}s mid-sweep; goodput retained vs the "
            "fault-free baseline, plus an inert-plan bit-identity arm and a "
            "swap-then-relaunch rescue probe"
        ),
    )
    # The three open-loop arms at the knee rate on eight devices.
    arms = compare_arms(
        partial(
            run_open_loop,
            n_requests=n_requests,
            offered_rate=RATE,
            seed=SEED,
            num_devices=NUM_DEVICES,
            collect_outputs=True,
        ),
        ARMS,
    )
    for label, row in arms.raw.items():
        chaos = row.get("chaos", {})
        result.add_row(
            config=label,
            virtual_duration_s=row["duration_s"],
            finished=row["finished"],
            goodput_count=row["goodput_count"],
            goodput_retained=arms.ratio("goodput_count", label, "baseline"),
            interactive_ttft_p99_ms=row["per_class"]["interactive"]["ttft"]["p99_ms"],
            terminations=chaos.get("failover_terminations", 0),
            relaunches=chaos.get("failover_relaunches", 0),
        )
    rescue = run_rescue_probe()
    baseline = arms.raw["baseline"]
    kill = arms.raw["shard_kill"]
    result.raw = {
        "goodput_retained": arms.ratio("goodput_count", "shard_kill", "baseline"),
        "inert_identical_tokens": arms.identical("baseline", "faults_inert", "outputs"),
        "inert_identical_elapsed": arms.identical("baseline", "faults_inert", "duration_s"),
        "kill_chaos": kill["chaos"],
        "survivor_ttft_p99_ms": {
            name: kill["per_class"][name]["ttft"]["p99_ms"]
            for name in kill["per_class"]
        },
        "baseline_ttft_p99_ms": {
            name: baseline["per_class"][name]["ttft"]["p99_ms"]
            for name in baseline["per_class"]
        },
        "rescue": rescue,
    }
    result.add_note(
        f"killing shard {CRASH_SHARD} of {NUM_DEVICES} at t={CRASH_AT}s retains "
        f"{result.raw['goodput_retained']:.1%} of baseline goodput "
        f"({kill['goodput_count']}/{baseline['goodput_count']}); "
        f"{kill['chaos']['failover_terminations']} victims terminated, "
        f"{kill['chaos']['failover_relaunches']} relaunched, shard states "
        f"{kill['chaos']['shard_states']}."
    )
    result.add_note(
        "armed-but-idle chaos plane is inert: tokens "
        f"{'identical' if result.raw['inert_identical_tokens'] else 'DIVERGED'}, "
        "virtual duration "
        f"{'identical' if result.raw['inert_identical_elapsed'] else 'DIVERGED'}."
    )
    result.add_note(
        f"rescue probe: swapped agent relaunched {rescue['relaunches']}x "
        f"after its shard crashed mid-tool-call and finished with "
        f"{'identical' if rescue['identical_tokens'] else 'DIVERGED'} tokens "
        f"({rescue['swap_outs']} swap-outs, {rescue['terminations']} terminations)."
    )
    return result
