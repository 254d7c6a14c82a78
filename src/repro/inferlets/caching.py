"""Application-controlled KV caching inferlets (R1).

* Prefix caching replicates vLLM's automatic mechanism explicitly with
  ``export_kvpage`` / ``import_kvpage``: the first inferlet to see a prefix
  publishes its pages, later inferlets import them and skip the prefill.
* Modular caching follows Prompt Cache: independently cached prompt modules
  are published separately and a consumer assembles the ones it needs.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.inferlet import InferletProgram
from repro.support import Context


def make_prefix_caching(
    shared_prefix: str,
    user_suffix: str,
    max_tokens: int = 12,
    export_name: str = "prefix-cache",
    name: str = "prefix_caching",
) -> InferletProgram:
    """Replicates automatic prefix caching as an application policy."""

    async def main(ctx):
        queue = ctx.create_queue()
        prefix_tokens = ctx.tokenize(queue, shared_prefix)
        if export_name in ctx.list_exports():
            context = await Context.from_export(ctx, export_name, prefix_tokens)
            reused = True
        else:
            context = Context(ctx)
            await context.fill(shared_prefix)
            await context.export_prefix(export_name)
            reused = False
        await context.fill(user_suffix)
        text = await context.generate_until(max_tokens=max_tokens)
        ctx.send(text)
        if reused:
            context.free()
        return {"text": text, "reused_prefix": reused}

    return InferletProgram(
        name=name,
        main=main,
        description="application-controlled prefix caching",
        source_loc=45,
        binary_size=131 * 1024,
        requirements=("R1",),
    )


def make_modular_caching(
    modules: Sequence[str],
    question: str,
    max_tokens: int = 12,
    namespace: str = "module",
    name: str = "modular_caching",
) -> InferletProgram:
    """Prompt-Cache style modular reuse: each module cached independently."""
    modules = list(modules)

    async def main(ctx):
        queue = ctx.create_queue()
        exports = set(ctx.list_exports())
        reused_modules = 0
        context = Context(ctx)
        position_offset = 0
        for index, module in enumerate(modules):
            export_name = f"{namespace}-{index}"
            module_tokens = ctx.tokenize(queue, module)
            if export_name in exports and position_offset == 0:
                # The leading module can be imported wholesale.
                context.free()
                context = await Context.from_export(ctx, export_name, module_tokens)
                reused_modules += 1
            else:
                await context.fill(module_tokens)
                if export_name not in exports and position_offset == 0:
                    await context.export_prefix(export_name)
            position_offset += len(module_tokens)
        await context.fill(question)
        answer = await context.generate_until(max_tokens=max_tokens)
        ctx.send(answer)
        return {"answer": answer, "reused_modules": reused_modules}

    return InferletProgram(
        name=name,
        main=main,
        description="modular (Prompt Cache) attention reuse",
        source_loc=72,
        binary_size=139 * 1024,
        requirements=("R1",),
    )
