"""Application-specific KV-cache control: prefix export/import + masking.

Shows the two R1 primitives the paper builds its agent optimizations on:
(1) exporting a shared system prompt's KV pages so later inferlets skip the
prefill, and (2) masking exhausted context at token granularity.

Run with:  python examples/custom_kv_cache.py
"""

from repro.core import InferletProgram, PieServer
from repro.sim import Simulator
from repro.support import Context

SYSTEM_PROMPT = "You are an assistant with a long, shared system prompt. " * 4


def main() -> None:
    sim = Simulator(seed=5)
    server = PieServer(sim, models=["llama-sim-1b"])

    async def publisher(ctx):
        context = Context(ctx)
        await context.fill(SYSTEM_PROMPT)
        await context.export_prefix("system-prompt")
        return context.num_cached_tokens

    async def consumer(ctx):
        queue = ctx.create_queue()
        prefix_tokens = ctx.tokenize(queue, SYSTEM_PROMPT)
        context = await Context.from_export(ctx, "system-prompt", prefix_tokens)
        await context.fill("User: summarise our deployment.")
        first = await context.generate_until(max_tokens=12)
        # Drop the first half of the system prompt once it is no longer useful.
        await context.mask_token_range(0, len(prefix_tokens) // 2)
        await context.refresh_hidden()
        second = await context.generate_until(max_tokens=12)
        context.free()
        return {"with_full_context": first, "after_masking": second}

    server.register_program(InferletProgram(name="publisher", main=publisher))
    server.register_program(InferletProgram(name="consumer", main=consumer))

    cached = sim.run_until_complete(server.run_inferlet("publisher")).result
    print(f"publisher cached {cached} tokens and exported them as 'system-prompt'")
    result = sim.run_until_complete(server.run_inferlet("consumer"))
    print(f"consumer latency {result.latency:.3f} s (no prefill of the shared prompt)")
    print(f"  continuation (full context) : {result.result['with_full_context']!r:.60}")
    print(f"  continuation (after masking): {result.result['after_masking']!r:.60}")


if __name__ == "__main__":
    main()
