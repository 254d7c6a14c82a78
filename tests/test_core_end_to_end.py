"""End-to-end tests of the Pie core: server, inferlets, API, support library."""

import numpy as np
import pytest

from repro.core import InferletProgram, PieClient, PieServer
from repro.core.config import PieConfig
from repro.errors import ReproError
from repro.model import get_model_config
from repro.model.transformer import TinyTransformer
from repro.sim import Simulator
from repro.support import Context, SamplingParams


@pytest.fixture()
def sim():
    return Simulator(seed=11)


@pytest.fixture()
def server(sim):
    return PieServer(sim, models=["llama-sim-1b"])


def make_completion_program(prompt, max_tokens):
    async def main(ctx):
        context = Context(ctx)
        await context.fill(prompt)
        text = await context.generate_until(max_tokens=max_tokens)
        ctx.send(text)
        context.free()
        return text

    return InferletProgram(name="text_completion_test", main=main, source_loc=38)


def reference_greedy_completion(prompt, max_tokens, model_name="llama-sim-1b"):
    """Token-exact reference: run the raw transformer autoregressively."""
    config = get_model_config(model_name)
    model = TinyTransformer(config)
    from repro.model import ByteTokenizer
    from repro.model.sampling import top_k_dist

    tokenizer = ByteTokenizer(config.vocab_size)
    tokens = tokenizer.encode(prompt)
    import numpy as np
    from repro.model.transformer import KvContext

    keys = [np.zeros((0, config.n_kv_heads, config.d_head), np.float32) for _ in range(config.n_layers)]
    values = [np.zeros((0, config.n_kv_heads, config.d_head), np.float32) for _ in range(config.n_layers)]
    positions = np.zeros(0, dtype=np.int64)

    def run(token_ids, pos_list):
        nonlocal keys, values, positions
        ctx = KvContext(
            keys=[k.copy() for k in keys],
            values=[v.copy() for v in values],
            positions=positions.copy(),
            visible=np.ones(len(positions), dtype=bool),
        )
        emb = model.embed_tokens(token_ids, pos_list)
        res = model.forward_row(emb, pos_list, ctx)
        keys = [np.concatenate([keys[l], res.new_keys[l]]) for l in range(config.n_layers)]
        values = [np.concatenate([values[l], res.new_values[l]]) for l in range(config.n_layers)]
        positions = np.concatenate([positions, np.asarray(pos_list, dtype=np.int64)])
        return res.hidden[-1]

    hidden = run(tokens, list(range(len(tokens))))
    generated = []
    for step in range(max_tokens):
        dist = top_k_dist(model.logits(hidden)[0], k=256)
        token = dist.max_index()
        generated.append(token)
        hidden = run([token], [len(tokens) + step])
    return tokenizer.decode(generated)


class TestTextCompletionEndToEnd:
    def test_completion_runs_and_returns_text(self, sim, server):
        program = make_completion_program("Hello, ", 8)
        server.register_program(program)
        result = sim.run_until_complete(server.run_inferlet(program.name))
        assert result.status == "finished"
        assert isinstance(result.result, str)
        assert len(result.messages) == 1
        assert result.messages[0] == result.result

    def test_greedy_output_matches_raw_transformer(self, sim, server):
        """Pie's paged-KV generation must be token-exact vs a fused reference."""
        program = make_completion_program("Hi", 6)
        server.register_program(program)
        result = sim.run_until_complete(server.run_inferlet(program.name))
        assert result.result == reference_greedy_completion("Hi", 6)

    def test_latency_close_to_tpot_budget(self, sim, server):
        max_tokens = 10
        program = make_completion_program("Hello, ", max_tokens)
        server.register_program(program)
        result = sim.run_until_complete(server.run_inferlet(program.name))
        config = get_model_config("llama-sim-1b")
        # Each generated token costs roughly decode + embed + sample handler time.
        per_token_floor = config.cost.decode_ms_base / 1e3
        per_token_ceiling = (config.cost.decode_ms_base + 6.0) / 1e3
        assert result.latency > max_tokens * per_token_floor
        assert result.latency < max_tokens * per_token_ceiling + 0.2

    def test_metrics_recorded(self, sim, server):
        program = make_completion_program("Hello, ", 5)
        server.register_program(program)
        result = sim.run_until_complete(server.run_inferlet(program.name))
        metrics = server.metrics.get(result.instance_id)
        assert metrics.output_tokens == 5
        assert metrics.inference_layer_calls > 0
        assert metrics.control_layer_calls > 0
        assert metrics.status == "finished"

    def test_resources_released_after_completion(self, sim, server):
        program = make_completion_program("Hello, ", 5)
        server.register_program(program)
        sim.run_until_complete(server.run_inferlet(program.name))
        sim.run()
        service = server.service()
        assert service.memory.kv_pages.num_allocated == 0
        assert service.memory.embeds.num_allocated == 0

    def test_bad_top_k_is_rejected_at_the_call(self, sim, server):
        """``top_k`` is the inferlet's: ``None`` or a positive integer.  Anything
        else raises at the call, before a command is built (``0`` used to mean
        "the default 256", ``-3`` the bottom of the distribution)."""

        async def main(ctx):
            queue = ctx.create_queue()
            (emb,) = ctx.alloc_emb(queue, 1)
            ctx.embed_txt(queue, [65], [0], [emb])
            refused = []
            for top_k in (0, -3, 2.5):
                for call in (
                    lambda: ctx.get_next_dist(queue, emb, top_k=top_k),
                    lambda: ctx.get_dists(queue, [emb], top_k=top_k),
                ):
                    with pytest.raises(ReproError, match="top_k must be a positive integer"):
                        call()
                    refused.append(top_k)
            dist = await ctx.get_next_dist(queue, emb, top_k=3)
            default = await ctx.get_next_dist(queue, emb)
            return refused, len(dist), len(default)

        server.register_program(InferletProgram(name="bad_top_k", main=main))
        result = sim.run_until_complete(server.run_inferlet("bad_top_k"))
        assert result.status == "finished"
        assert result.result == ([0, 0, -3, -3, 2.5, 2.5], 3, 256)
        sim.run()
        kinds = server.service().pool.aggregate_stats().batches_by_kind
        assert kinds["sample"] == 2  # the six refused calls reached no device

    def test_client_launch_pays_network_rtt(self, sim, server):
        program = make_completion_program("Hello, ", 3)
        server.register_program(program)
        client = PieClient(sim, server, rtt_ms=25.0)
        result = sim.run_until_complete(client.launch_and_wait(program.name))
        assert result.status == "finished"
        # At least one full RTT is paid end to end.
        assert result.latency >= 0.025

    def test_multiple_models_hosted(self, sim):
        server = PieServer(sim, models=["llama-sim-1b", "llama-sim-3b"])

        async def main(ctx):
            return ctx.available_models()

        server.register_program(InferletProgram(name="list_models", main=main))
        result = sim.run_until_complete(server.run_inferlet("list_models"))
        assert result.result == ["llama-sim-1b", "llama-sim-3b"]


class TestConcurrentInferlets:
    def test_many_inferlets_share_the_device(self, sim, server):
        program = make_completion_program("Hello, ", 4)
        server.register_program(program)

        async def run_all():
            tasks = [
                sim.create_task(server.run_inferlet(program.name)) for _ in range(8)
            ]
            return await sim.gather(tasks)

        results = sim.run_until_complete(run_all())
        assert len(results) == 8
        assert all(r.status == "finished" for r in results)
        # Horizontal batching should have produced multi-command batches.
        assert server.service().scheduler.stats.mean_batch_size > 1.0

    def test_outputs_identical_across_concurrency(self, sim, server):
        """Batching must not change results: same prompt -> same greedy text."""
        program = make_completion_program("abc", 5)
        server.register_program(program)

        async def run_all():
            tasks = [sim.create_task(server.run_inferlet(program.name)) for _ in range(4)]
            return await sim.gather(tasks)

        results = sim.run_until_complete(run_all())
        texts = {r.result for r in results}
        assert len(texts) == 1
        assert texts.pop() == reference_greedy_completion("abc", 5)

    def test_throughput_improves_with_batching(self, sim):
        """Adaptive batching beats eager (no batching) on concurrent load."""

        def run_with_policy(policy):
            local_sim = Simulator(seed=3)
            from repro.core.config import SchedulerConfig

            config = PieConfig(scheduler=SchedulerConfig(policy=policy))
            local_server = PieServer(local_sim, models=["llama-sim-1b"], config=config)
            program = make_completion_program("Hello, ", 4)
            local_server.register_program(program)

            async def run_all():
                tasks = [
                    local_sim.create_task(local_server.run_inferlet(program.name))
                    for _ in range(8)
                ]
                return await local_sim.gather(tasks)

            local_sim.run_until_complete(run_all())
            return local_sim.now

        adaptive_time = run_with_policy("adaptive")
        eager_time = run_with_policy("eager")
        assert adaptive_time < eager_time


class TestContextFeatures:
    def test_fork_shares_prefix_and_diverges(self, sim, server):
        async def main(ctx):
            root = Context(ctx)
            await root.fill("The answer is")
            left = root.fork()
            right = root.fork()
            await left.refresh_hidden()
            await right.refresh_hidden()
            await left.append_token(65)   # 'A'
            await right.append_token(66)  # 'B'
            left_dist = await left.next_dist()
            right_dist = await right.next_dist()
            return (
                left.num_cached_tokens,
                right.num_cached_tokens,
                root.num_cached_tokens,
                left_dist.max_index() == right_dist.max_index(),
            )

        server.register_program(InferletProgram(name="fork_test", main=main))
        left_tokens, right_tokens, root_tokens, same = sim.run_until_complete(
            server.run_inferlet("fork_test")
        ).result
        assert left_tokens == right_tokens == root_tokens + 1
        assert not same  # different last tokens -> different next distributions

    def test_mask_changes_next_distribution(self, sim, server):
        async def main(ctx):
            context = Context(ctx)
            await context.fill("Hello, world")
            before = await context.next_dist()
            await context.mask_token_range(0, 5)
            await context.refresh_hidden()
            after = await context.next_dist()
            return before.max_index(), after.max_index(), before.as_dict(), after.as_dict()

        server.register_program(InferletProgram(name="mask_test", main=main))
        before_top, after_top, before_dist, after_dist = sim.run_until_complete(
            server.run_inferlet("mask_test")
        ).result
        assert before_dist != after_dist

    def test_export_import_prefix_between_inferlets(self, sim, server):
        prompt = "Shared system prompt."

        async def exporter(ctx):
            context = Context(ctx)
            await context.fill(prompt)
            context.export_prefix("shared-prefix")
            return context.token_ids

        async def importer(ctx):
            queue = ctx.create_queue()
            prefix_tokens = ctx.tokenize(queue, prompt)
            context = await Context.from_export(ctx, "shared-prefix", prefix_tokens)
            token = await context.generate_once()
            return token

        async def baseline(ctx):
            context = Context(ctx)
            await context.fill(prompt)
            return await context.generate_once()

        server.register_program(InferletProgram(name="exporter", main=exporter))
        server.register_program(InferletProgram(name="importer", main=importer))
        server.register_program(InferletProgram(name="baseline", main=baseline))

        sim.run_until_complete(server.run_inferlet("exporter"))
        imported_token = sim.run_until_complete(server.run_inferlet("importer")).result
        baseline_token = sim.run_until_complete(server.run_inferlet("baseline")).result
        assert imported_token == baseline_token

    def test_temperature_sampling_is_reproducible(self, sim, server):
        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams(temperature=1.0, top_k=16))
            await context.fill("Random: ")
            return await context.generate_until(max_tokens=5)

        server.register_program(InferletProgram(name="sample_test", main=main))
        first = sim.run_until_complete(server.run_inferlet("sample_test")).result

        sim2 = Simulator(seed=11)
        server2 = PieServer(sim2, models=["llama-sim-1b"])
        server2.register_program(InferletProgram(name="sample_test", main=main))
        second = sim2.run_until_complete(server2.run_inferlet("sample_test")).result
        assert first == second


class TestApiSurface:
    def test_trait_gating(self, sim, server):
        """Using an unsupported trait raises TraitNotSupportedError."""
        from repro.errors import TraitNotSupportedError

        async def main(ctx):
            queue = ctx.create_queue()
            embeds = ctx.alloc_emb(queue, 1)
            try:
                ctx.embed_img(queue, b"\x00" * 10, embeds)
            except TraitNotSupportedError:
                return "rejected"
            return "accepted"

        server.register_program(InferletProgram(name="trait_test", main=main))
        assert sim.run_until_complete(server.run_inferlet("trait_test")).result == "rejected"

    def test_send_receive_roundtrip_with_client(self, sim, server):
        async def main(ctx):
            question = await ctx.receive()
            ctx.send(f"echo:{question}")
            return "done"

        server.register_program(InferletProgram(name="echo", main=main))
        client = PieClient(sim, server, rtt_ms=10.0)

        async def scenario():
            instance = await client.launch("echo")
            await client.send(instance, "ping")
            reply = await client.receive(instance)
            await client.wait(instance)
            return reply

        assert sim.run_until_complete(scenario()) == "echo:ping"

    def test_http_get_uses_registered_endpoint(self, sim, server):
        server.register_external("http://tools/search", lambda payload: "search-result")

        async def main(ctx):
            return await ctx.http_get("http://tools/search")

        server.register_program(InferletProgram(name="http_test", main=main))
        result = sim.run_until_complete(server.run_inferlet("http_test"))
        assert result.result == "search-result"
        assert server.external.total_calls() == 1

    def test_broadcast_between_inferlets(self, sim, server):
        async def listener(ctx):
            sub = ctx.subscribe("news")
            message = await sub.next_message()
            return message["data"]

        async def speaker(ctx):
            await ctx.sleep(0.01)
            return ctx.broadcast("news", "hello swarm")

        server.register_program(InferletProgram(name="listener", main=listener))
        server.register_program(InferletProgram(name="speaker", main=speaker))

        async def scenario():
            listen_task = sim.create_task(server.run_inferlet("listener"))
            speak_task = sim.create_task(server.run_inferlet("speaker"))
            return await sim.gather([listen_task, speak_task])

        listener_result, speaker_result = sim.run_until_complete(scenario())
        assert listener_result.result == "hello swarm"
        assert speaker_result.result == 1

    def test_get_arg_passed_through(self, sim, server):
        async def main(ctx):
            return ctx.get_arg()

        server.register_program(InferletProgram(name="args_test", main=main))
        result = sim.run_until_complete(server.run_inferlet("args_test", args=["--n", "5"]))
        assert result.result == ["--n", "5"]

    def test_api_call_counts_by_layer(self, sim, server):
        async def main(ctx):
            queue = ctx.create_queue()          # control
            tokens = ctx.tokenize(queue, "hi")  # inference
            embeds = ctx.alloc_emb(queue, len(tokens))  # inference
            ctx.embed_txt(queue, tokens, [0, 1], embeds)  # inference
            await ctx.synchronize(queue)        # control
            return "ok"

        server.register_program(InferletProgram(name="count_test", main=main))
        result = sim.run_until_complete(server.run_inferlet("count_test"))
        metrics = server.metrics.get(result.instance_id)
        assert metrics.control_layer_calls >= 2
        assert metrics.inference_layer_calls >= 3
