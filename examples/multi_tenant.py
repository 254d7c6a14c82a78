"""Multi-tenant QoS: two tenants with different SLO classes share one device.

An *interactive* tenant's chat turns and a *batch* tenant's background
summarisation jobs are served concurrently.  The QoS subsystem
(``repro.core.qos``) admits launches per tenant (token-bucket rate +
concurrency caps), dispatches by class-weighted slack-to-deadline, and
preempts lowest-class-first under memory pressure.

Run with:  python examples/multi_tenant.py
"""

from repro.core import InferletProgram, PieClient, PieServer, TenantSpec
from repro.errors import AdmissionRejectedError
from repro.sim import Simulator
from repro.support import Context, SamplingParams


def make_chat_turn(index: int) -> InferletProgram:
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(f"User: question {index}? ")
        answer = await context.generate_until(max_tokens=6)
        context.free()
        return answer

    return InferletProgram(name=f"chat_{index}", main=main)


def make_summary_job(index: int) -> InferletProgram:
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(f"Summarise report {index}: lorem ipsum dolor sit amet. ")
        summary = await context.generate_until(max_tokens=16)
        context.free()
        return summary

    return InferletProgram(name=f"job_{index}", main=main)


def main() -> None:
    sim = Simulator(seed=0)
    # Registering tenants enables the QoS service (qos=True is implied).
    server = PieServer(
        sim,
        tenants=[
            TenantSpec(name="support-chat", priority_class="interactive"),
            TenantSpec(
                name="report-pipeline",
                priority_class="batch",
                max_concurrent=2,   # at most 2 jobs on the device at once
                rate_per_s=20.0,    # token-bucket launch rate
                burst=2,
                max_queued=4,       # backpressure: with 4 already waiting,
                                    # further launches are rejected
            ),
        ],
    )
    n_jobs = 8  # 2 admit, 4 queue, 2 are rejected
    for i in range(3):
        server.register_program(make_chat_turn(i))
    for i in range(n_jobs):
        server.register_program(make_summary_job(i))

    client = PieClient(sim, server, rtt_ms=5.0)

    # The typed rejection is raised from the launch call itself, so a
    # client that fires requests concurrently catches it per task.
    async def submit_job(i):
        try:
            return await client.launch_and_wait(f"job_{i}", tenant="report-pipeline")
        except AdmissionRejectedError:
            return None  # shed load: the pipeline retries later

    async def run_all():
        tasks = [sim.create_task(submit_job(i)) for i in range(n_jobs)]
        tasks += [
            sim.create_task(
                client.launch_and_wait(f"chat_{i}", tenant="support-chat")
            )
            for i in range(3)
        ]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    served = [r for r in results if r is not None]
    rejected = sum(1 for r in results if r is None)
    print(f"served {len(served)} inferlets, {rejected} rejected by admission")

    qos = server.controller.qos
    for name in qos.tenant_names():
        record = server.metrics.tenants[name]
        spec = qos.tenant_spec(name)
        print(
            f"tenant {name:16s} [{record.priority_class:11s}] "
            f"admitted={record.admitted} queued={record.queued} "
            f"rejected={record.rejected} "
            f"ttft_p99={record.ttft.percentile(99) * 1e3:6.1f} ms "
            f"(slo {spec.ttft_slo_s * 1e3:.0f} ms) "
            f"slo_attainment={qos.slo_attainment(name):.2f}"
        )


if __name__ == "__main__":
    main()
