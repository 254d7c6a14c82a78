"""Flight recorder: trace a small fleet and attribute its stalls.

Runs a mixed fleet (one long-document summarizer over a few interactive
chats) with the control-plane flight recorder on, exports the trace in
both formats, and prints the per-inferlet stall attribution — where each
inferlet's launch-to-finish latency went (admission / queue / prefill /
decode / swap / transfer / decode-gap).

Run with:  PYTHONPATH=src python examples/trace_flight_recorder.py

Open trace_example.json at https://ui.perfetto.dev to see the timeline:
shards are processes, inferlets are threads, and the telemetry sampler's
per-shard series (queue depth, busy fraction, KV occupancy) are counter
tracks.
"""

from repro.core import InferletProgram, PieServer
from repro.sim import Simulator
from repro.support import Context, SamplingParams
from repro.tools.trace_report import build_report, load_events, render_report


def make_summarizer():
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill("Summarize: " + "the quick brown fox. " * 40)
        summary = await context.generate_until(max_tokens=6)
        context.free()
        return summary

    return InferletProgram(name="summarizer", main=main)


def make_chat(index):
    async def main(ctx):
        context = Context(ctx, sampling=SamplingParams())
        await context.fill(f"User: quick question number {index}? ")
        answer = await context.generate_until(max_tokens=12)
        context.free()
        return answer

    return InferletProgram(name=f"chat_{index}", main=main)


def main() -> None:
    sim = Simulator(seed=0)
    # tracing=True constructs the recorder; trace_sample_ms drives the
    # per-shard telemetry sampler on the virtual clock.  Tracing is
    # guaranteed non-perturbing: this run's tokens and timestamps are
    # bit-identical to the same run with tracing off.
    server = PieServer(
        sim,
        num_devices=2,
        prefill_chunk_tokens=32,
        max_batch_tokens=48,
        tracing=True,
        trace_sample_ms=2.0,
    )
    programs = [make_summarizer()] + [make_chat(i) for i in range(3)]
    for program in programs:
        server.register_program(program)

    async def one(name, delay):
        await sim.sleep(delay)
        return await server.run_inferlet(name)

    async def run_all():
        tasks = [
            sim.create_task(one(p.name, 0.01 * i)) for i, p in enumerate(programs)
        ]
        return await sim.gather(tasks)

    results = sim.run_until_complete(run_all())
    print(f"{len(results)} inferlets finished at t={sim.now * 1e3:.1f} ms (virtual)")

    recorder = server.trace
    print(
        f"recorded {len(recorder.events())} events "
        f"({recorder.samples_taken} telemetry samples, {recorder.dropped} evicted)"
    )
    perfetto = server.export_trace("trace_example.json")
    jsonl = server.export_trace("trace_example.jsonl")
    print(f"exported {perfetto} events to trace_example.json (Perfetto), "
          f"{jsonl} to trace_example.jsonl")

    print()
    print(render_report(build_report(load_events("trace_example.jsonl"))))


if __name__ == "__main__":
    main()
