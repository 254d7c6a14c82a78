"""Agentic workflow inferlets (§7.1, Figure 5 right, Figure 7).

The agents co-locate inference and I/O inside the inferlet runtime: tool
calls go straight from the inferlet to the external service (no client
round trip), and the KV cache survives across interactions (no re-prefill).
The Figure-7 function-calling agent additionally demonstrates the three
stacked application-specific optimizations (#1 export/import caching,
#2 concurrent fire-and-forget calls, #3 masking exhausted API specs).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.inferlet import InferletProgram
from repro.support import Context
from repro.workloads.tools import AgentWorkload


def make_react_agent(
    workload: AgentWorkload,
    system_prompt: str,
    name: str = "agent_react",
) -> InferletProgram:
    """ReACT: interleaved reasoning and web-API actions."""

    async def main(ctx):
        context = Context(ctx)
        await context.fill(system_prompt)
        observations: List[str] = []
        for step in range(workload.n_interactions):
            thought = await context.generate_until(max_tokens=workload.tokens_per_turn)
            observation = await ctx.http_get(workload.tool_url)
            observations.append(str(observation))
            await context.fill(f"\nObservation {step}: {observation}\n")
        answer = await context.generate_until(max_tokens=workload.tokens_per_turn)
        ctx.send(answer)
        context.free()
        return {"answer": answer, "observations": observations}

    return InferletProgram(
        name=name,
        main=main,
        description="ReACT agent with in-runtime web API calls",
        source_loc=60,
        binary_size=309 * 1024,
        requirements=("R1", "R2", "R3"),
    )


def make_codeact_agent(
    workload: AgentWorkload,
    system_prompt: str,
    name: str = "agent_codeact",
) -> InferletProgram:
    """CodeACT: the agent emits code, executes it, and folds stdout back in."""

    async def main(ctx):
        context = Context(ctx)
        await context.fill(system_prompt)
        executions = 0
        for step in range(workload.n_interactions):
            code = await context.generate_until(max_tokens=workload.tokens_per_turn)
            stdout = await ctx.http_post(workload.tool_url, payload=code)
            executions += 1
            await context.fill(f"\n# step {step} output: {stdout}\n")
        answer = await context.generate_until(max_tokens=workload.tokens_per_turn)
        ctx.send(answer)
        context.free()
        return {"answer": answer, "executions": executions}

    return InferletProgram(
        name=name,
        main=main,
        description="CodeACT agent with embedded code execution",
        source_loc=62,
        binary_size=6_700 * 1024,
        requirements=("R1", "R2", "R3"),
    )


def make_swarm_agent(
    workload: AgentWorkload,
    system_prompt: str,
    topic: str,
    name: str = "agent_swarm",
) -> InferletProgram:
    """Swarm: inter-agent message passing through broadcast/subscribe."""

    async def main(ctx):
        reply_topic = f"{topic}-replies"
        subscription = ctx.subscribe(reply_topic)
        context = Context(ctx)
        await context.fill(system_prompt)
        exchanges = 0
        for step in range(workload.n_interactions):
            message = await context.generate_until(max_tokens=workload.tokens_per_turn)
            delivered = ctx.broadcast(topic, {"step": step, "message": message})
            if delivered:
                reply = await subscription.next_message()
                payload = reply["data"]["reply"]
            else:
                # No responder present: fall back to the peer-agent endpoint.
                payload = await ctx.http_get(workload.tool_url)
            exchanges += 1
            await context.fill(f"\nPeer: {payload}\n")
        answer = await context.generate_until(max_tokens=workload.tokens_per_turn)
        ctx.unsubscribe(reply_topic)
        ctx.broadcast(topic, {"step": -1, "message": "<done>"})
        ctx.send(answer)
        context.free()
        return {"answer": answer, "exchanges": exchanges}

    return InferletProgram(
        name=name,
        main=main,
        description="Swarm agent using inter-inferlet messaging",
        source_loc=95,
        binary_size=135 * 1024,
        requirements=("R1", "R2", "R3"),
    )


def make_swarm_responder(topic: str, name: str = "swarm_responder") -> InferletProgram:
    """Companion inferlet answering a Swarm agent's broadcasts."""

    async def main(ctx):
        subscription = ctx.subscribe(topic)
        reply_topic = f"{topic}-replies"
        handled = 0
        while True:
            message = await subscription.next_message()
            if message["data"].get("step", -1) < 0:
                break
            handled += 1
            ctx.broadcast(reply_topic, {"reply": f"ack-{message['data']['step']}"})
        ctx.unsubscribe(topic)
        return {"handled": handled}

    return InferletProgram(
        name=name,
        main=main,
        description="Swarm responder peer",
        source_loc=24,
        binary_size=120 * 1024,
        requirements=("R3",),
    )


def make_function_call_agent(
    api_docs: List[str],
    n_calls: int = 4,
    tokens_per_call: int = 10,
    tool_url: str = "http://tools/web-api",
    use_doc_cache: bool = False,
    concurrent_calls: bool = False,
    mask_used_specs: bool = False,
    doc_cache_name: str = "api-docs",
    name: str = "agent_funccall",
) -> InferletProgram:
    """The Figure-7 function-calling agent with stacked optimizations.

    * ``use_doc_cache``    (#1): retain the KV of the frequently used API
      documentation via ``export_kvpage`` / ``import_kvpage``.
    * ``concurrent_calls`` (#2): issue fire-and-forget tool calls as soon as
      the callable signature appears, without waiting for each reply.
    * ``mask_used_specs``  (#3): drop the KV of an API spec once its single
      use is over (``mask_kvpage``).
    """
    api_docs = list(api_docs)

    async def main(ctx):
        queue = ctx.create_queue()
        doc_text = "\n".join(api_docs) + "\n"
        doc_tokens = ctx.tokenize(queue, doc_text)
        if use_doc_cache and doc_cache_name in ctx.list_exports():
            context = await Context.from_export(ctx, doc_cache_name, doc_tokens)
        else:
            context = Context(ctx)
            await context.fill(doc_tokens)
            if use_doc_cache:
                await context.export_prefix(doc_cache_name)
        doc_len = len(doc_tokens)
        spec_span = max(1, doc_len // max(1, len(api_docs)))

        pending_calls = []
        for call_index in range(n_calls):
            signature = await context.generate_until(max_tokens=tokens_per_call)
            if concurrent_calls:
                # Fire and forget: keep generating while the call is in flight.
                pending_calls.append(ctx.http_get(tool_url))
                await context.fill(f"\n[call {call_index} dispatched]\n")
            else:
                result = await ctx.http_get(tool_url)
                await context.fill(f"\n[call {call_index} -> {result}]\n")
            if mask_used_specs and call_index < len(api_docs):
                start = call_index * spec_span
                end = min(doc_len, start + spec_span)
                await context.mask_token_range(start, end)
        if pending_calls:
            await ctx._sim.gather(pending_calls)
        answer = await context.generate_until(max_tokens=tokens_per_call)
        ctx.send(answer)
        context.free()
        return {"answer": answer, "calls": n_calls}

    return InferletProgram(
        name=name,
        main=main,
        description="function-calling agent with workload-specific optimizations",
        source_loc=120,
        binary_size=140 * 1024,
        requirements=("R1", "R2", "R3"),
    )
