"""Figure 9: average latency to launch an inferlet, cold vs warm start."""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.bench.runners import make_pie_setup
from repro.core import InferletProgram, PieClient
from repro.core.wasm import JIT_COMPILE_MS, JIT_COMPILE_MS_PER_MB, UPLOAD_MS


def _make_ack_probe() -> InferletProgram:
    """The paper's probe: acknowledge the launch, then exit."""

    async def main(ctx):
        ctx.send("ack")
        return "ack"

    return InferletProgram(name="launch_probe", main=main, binary_size=129 * 1024)


def _launch_many(n_inferlets: int, cold: bool) -> float:
    """Mean time from launch request to acknowledgement over a burst."""
    sim, server = make_pie_setup(seed=7, with_tools=False)
    client = PieClient(sim, server, rtt_ms=0.0)  # isolate server-side launch cost
    program = _make_ack_probe()
    if cold:
        sim.run_until_complete(client.upload_program(program))
    else:
        server.register_program(program, precompiled=True)

    async def launch_burst():
        instances = []
        for _ in range(n_inferlets):
            instance, ready = server.lifecycle.launch(program.name)
            instances.append((instance, ready))
        for _, ready in instances:
            await ready
        # The JIT / upload cost of a cold start is charged once per client
        # upload; amortise it over the burst like the paper's measurement.
        return instances

    sim.run_until_complete(launch_burst())
    # Fresh server per burst: the histogram holds exactly these launches.
    mean_launch = server.metrics.launch_latency.mean
    if cold:
        upload_cost = (
            UPLOAD_MS + JIT_COMPILE_MS + JIT_COMPILE_MS_PER_MB * (program.binary_size / 2**20)
        ) / 1e3
        mean_launch += upload_cost
    return mean_launch


def run(quick: bool = True) -> ExperimentResult:
    counts = (1, 64, 256) if quick else (1, 64, 256, 512, 896)
    result = ExperimentResult(
        name="Figure 9",
        description="Average inferlet launch latency (ms), cold start vs cached binary",
    )
    for count in counts:
        warm = _launch_many(count, cold=False) * 1e3
        cold = _launch_many(count, cold=True) * 1e3
        result.add_row(concurrent_launches=count, warm_ms=warm, cold_ms=cold)
    result.add_note(
        "Paper: 10-50 ms warm and 35-81 ms cold for up to 896 simultaneous launches; "
        "both remain below typical per-token generation latency."
    )
    return result
