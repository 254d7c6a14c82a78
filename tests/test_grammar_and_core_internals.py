"""Unit tests for the grammar package and Pie core internals
(traits, batching, resource manager, Wasm runtime, FCFS contention policy)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GrammarError, InferletError, ReproError, ResourceError
from repro.core import PieServer, InferletProgram
from repro.core.batching import form_candidate_batches, select_batch
from repro.core.command_queue import Command, CommandQueue
from repro.core.config import WasmRuntimeConfig
from repro.core.resources import ResourceManager
from repro.core.traits import (
    ALL_APIS,
    TRAITS,
    CONTROL_LAYER_APIS,
    INFERENCE_LAYER_APIS,
    api_layer,
    trait_of_api,
)
from repro.core.wasm import WasmBinary, WasmRuntime
from repro.gpu import DeviceMemory, GpuConfig
from repro.grammar import EarleyMatcher, EbnfGrammar, JsonMachine
from repro.model import get_model_config
from repro.sim import Simulator
from repro.support import Context
from tests.test_batch_formation import DEFAULT_BUDGET


class TestJsonMachine:
    @pytest.mark.parametrize(
        "text",
        ['{"a":1}', "[1,2,3]", '"hello"', "true", "false", "null", "42", '{"k":{"n":[1,"x"]}}', "{}", "[]"],
    )
    def test_accepts_valid_json(self, text):
        machine = JsonMachine()
        machine.advance_text(text)
        assert machine.is_complete()

    @pytest.mark.parametrize("text,bad", [("{", "}1"), ("[1", "}"), ('{"a"', "1"), ("tr", "x")])
    def test_rejects_invalid_next_byte(self, text, bad):
        machine = JsonMachine()
        machine.advance_text(text)
        with pytest.raises(GrammarError):
            machine.advance_text(bad)

    def test_allowed_bytes_at_start(self):
        machine = JsonMachine()
        allowed = machine.allowed_next_bytes()
        assert ord("{") in allowed and ord("[") in allowed and ord('"') in allowed
        assert ord("}") not in allowed

    def test_incomplete_value_not_complete(self):
        machine = JsonMachine()
        machine.advance_text('{"key"')
        assert not machine.is_complete()

    def test_every_prefix_only_allows_listed_bytes(self):
        machine = JsonMachine()
        for byte in '{"ab":[1,true],"c":null}'.encode():
            assert byte in machine.allowed_next_bytes()
            machine.advance(byte)
        assert machine.is_complete()


class TestEbnf:
    GRAMMAR = """
    expr := term | term "+" expr
    term := digit | digit term
    digit := [0-9]
    """

    def test_parse_and_accept(self):
        matcher = EarleyMatcher(EbnfGrammar.parse(self.GRAMMAR))
        matcher.advance_text("12+345+6")
        assert matcher.is_complete()

    def test_reject_illegal_byte(self):
        matcher = EarleyMatcher(EbnfGrammar.parse(self.GRAMMAR))
        matcher.advance_text("12")
        with pytest.raises(GrammarError):
            matcher.advance(ord("-"))

    def test_allowed_bytes(self):
        matcher = EarleyMatcher(EbnfGrammar.parse(self.GRAMMAR))
        allowed = matcher.allowed_next_bytes()
        assert all(chr(b).isdigit() for b in allowed)
        matcher.advance(ord("7"))
        assert ord("+") in matcher.allowed_next_bytes()

    def test_undefined_rule_rejected(self):
        with pytest.raises(GrammarError):
            EbnfGrammar.parse("a := b")

    def test_malformed_rule_rejected(self):
        with pytest.raises(GrammarError):
            EbnfGrammar.parse("just text without define")

    def test_literal_rule(self):
        grammar = EbnfGrammar.parse('greeting := "hi" | "hey"')
        matcher = EarleyMatcher(grammar)
        matcher.advance_text("hey")
        assert matcher.is_complete()

    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_numbers_always_accepted(self, value):
        matcher = EarleyMatcher(EbnfGrammar.parse(self.GRAMMAR))
        matcher.advance_text(str(value))
        assert matcher.is_complete()


class TestTraits:
    def test_42_api_functions(self):
        assert len(ALL_APIS) == 42
        assert len(CONTROL_LAYER_APIS) == 24
        assert len(INFERENCE_LAYER_APIS) == 18

    def test_layer_classification(self):
        assert api_layer("forward") == "inference"
        assert api_layer("send") == "control"
        with pytest.raises(ReproError):
            api_layer("not_an_api")

    def test_trait_lookup(self):
        assert trait_of_api("embed_txt") == "InputText"
        assert trait_of_api("tokenize") == "Tokenize"

    def test_trait_table_equals_the_scan_it_replaced(self):
        def scan(api_name):
            for trait, (_, functions) in TRAITS.items():
                if api_name in functions:
                    return trait

        assert [trait_of_api(name) for name in ALL_APIS] == [scan(name) for name in ALL_APIS]
        with pytest.raises(ReproError, match="unknown API function 'not_an_api'"):
            trait_of_api("not_an_api")


def _command(sim, kind, writes=frozenset(), issue_time=0.0, reads=frozenset()):
    return Command(
        kind=kind,
        inferlet_id="test",
        payload={},
        future=sim.create_future(),
        issue_time=issue_time,
        reads=reads,
        writes=writes,
    )


def _push(queue, command):
    """Number ``command`` on ``queue``, then make it pending: what the
    controller does at issue and at delivery."""
    queue.issue(command)
    queue.push(command)


class TestBatchFormation:
    def test_vertical_run_stops_at_kind_change(self):
        sim = Simulator()
        queue = CommandQueue(key="q1", model="m", owner="a")
        _push(queue, _command(sim, "forward"))
        _push(queue, _command(sim, "forward"))
        _push(queue, _command(sim, "sample", reads=frozenset({("emb", 1)})))
        _push(queue, _command(sim, "forward", writes=frozenset({("emb", 1)})))
        runs = queue.ready_runs(max_commands=10)
        # The last forward overwrites what the sample reads, so it may not
        # pass the sample: the forward run stops there.
        assert [[c.kind for c in run] for run in runs] == [["forward", "forward"], ["sample"]]

    def test_vertical_run_stops_at_write_conflict(self):
        sim = Simulator()
        queue = CommandQueue(key="q1", model="m", owner="a")
        _push(queue, _command(sim, "forward", writes=frozenset({("kv", 1)})))
        _push(queue, _command(sim, "forward", writes=frozenset({("kv", 1)})))
        assert [len(run) for run in queue.ready_runs(10)] == [1]

    def test_horizontal_merge_and_priority_order(self):
        sim = Simulator()
        low = CommandQueue(key="low", model="m", owner="a", priority=0)
        high = CommandQueue(key="high", model="m", owner="b", priority=5)
        _push(low, _command(sim, "forward", issue_time=0.0))
        _push(high, _command(sim, "forward", issue_time=1.0))
        batches = form_candidate_batches([low, high], 8, *DEFAULT_BUDGET)
        commands = batches["forward"].commands
        assert len(commands) == 2
        assert commands[0].queue_key == "high"  # higher priority placed first

    def test_truncation_to_max_rows(self):
        sim = Simulator()
        queues = []
        for index in range(5):
            queue = CommandQueue(key=f"q{index}", model="m", owner="a")
            _push(queue, _command(sim, "forward"))
            queues.append(queue)
        batches = form_candidate_batches(queues, 3, *DEFAULT_BUDGET)
        assert len(batches["forward"]) == 3

    def test_select_longest_waiting(self):
        """One class present: the dispatch order is longest-waiting."""
        sim = Simulator()
        q1 = CommandQueue(key="q1", model="m", owner="a")
        q2 = CommandQueue(key="q2", model="m", owner="a")
        _push(q1, _command(sim, "sample", issue_time=5.0))
        _push(q2, _command(sim, "forward", issue_time=1.0))
        batches = form_candidate_batches([q1, q2], 8, *DEFAULT_BUDGET)
        chosen = select_batch(batches, now=6.0)
        assert chosen.kind == "forward"

    def test_queue_synchronize_barrier(self):
        sim = Simulator()
        queue = CommandQueue(key="q", model="m", owner="a")
        command = _command(sim, "forward")
        queue.issue(command)
        queue.push(command)
        barrier = sim.create_future()
        queue.synchronize(barrier)
        assert not barrier.done()
        queue.pop_commands([command])
        queue.mark_completed(command)
        assert barrier.done()


class TestResourceManager:
    def make(self):
        config = get_model_config("llama-sim-1b")
        memory = DeviceMemory(config, GpuConfig(num_kv_pages=16, num_embed_slots=16))
        return ResourceManager(memory, model_name="llama-sim-1b")

    def test_alloc_resolve_dealloc(self):
        manager = self.make()
        manager.create_space("a")
        pages = manager.alloc_kv_pages("a", 2)
        physical = manager.resolve_kv_many("a", pages)
        assert len(set(physical)) == 2
        manager.dealloc_kv_pages("a", pages)
        with pytest.raises(ResourceError):
            manager.resolve_kv("a", pages[0])

    def test_cross_owner_access_rejected(self):
        manager = self.make()
        manager.create_space("a")
        manager.create_space("b")
        pages = manager.alloc_kv_pages("a", 1)
        with pytest.raises(ResourceError):
            manager.resolve_kv("b", pages[0])

    def test_export_survives_exporter_exit(self):
        manager = self.make()
        manager.create_space("a")
        pages = manager.alloc_kv_pages("a", 2)
        physical = manager.resolve_kv_many("a", pages)
        manager.export_kv_pages("a", pages, "shared")
        manager.destroy_space("a")
        # Pages still resident because the export holds a reference.
        manager.create_space("b")
        imported = manager.import_kv_pages("b", "shared")
        assert manager.resolve_kv_many("b", imported) == physical
        manager.release_export("shared")
        manager.destroy_space("b")
        assert manager.memory.kv_pages.num_allocated == 0

    def test_duplicate_export_name_rejected(self):
        manager = self.make()
        manager.create_space("a")
        pages = manager.alloc_kv_pages("a", 1)
        manager.export_kv_pages("a", pages, "n")
        with pytest.raises(ResourceError):
            manager.export_kv_pages("a", pages, "n")

    def test_destroy_space_frees_everything(self):
        manager = self.make()
        manager.create_space("a")
        manager.alloc_kv_pages("a", 3)
        manager.alloc_embeds("a", 4)
        manager.destroy_space("a")
        assert manager.memory.kv_pages.num_allocated == 0
        assert manager.memory.embeds.num_allocated == 0


class TestWasmRuntime:
    def test_cold_upload_then_warm_reuse(self):
        sim = Simulator()
        runtime = WasmRuntime(sim, WasmRuntimeConfig())
        binary = WasmBinary(name="prog", program=lambda ctx: None, size_bytes=256 * 1024)

        assert sim.run_until_complete(runtime.upload(binary)) > 0

    def test_instance_pool_limit(self):
        sim = Simulator()
        runtime = WasmRuntime(sim, WasmRuntimeConfig(pool_size=2))
        binary = WasmBinary(name="prog", program=lambda ctx: None)
        runtime.register_cached(binary)

        async def scenario():
            await runtime.instantiate("prog", "a")
            await runtime.instantiate("prog", "b")
            with pytest.raises(InferletError):
                await runtime.instantiate("prog", "c")
            runtime.release("a")
            await runtime.instantiate("prog", "c")
            return runtime.live_instances

        assert sim.run_until_complete(scenario()) == 2

    def test_unknown_binary_rejected(self):
        sim = Simulator()
        runtime = WasmRuntime(sim, WasmRuntimeConfig())
        with pytest.raises(InferletError):
            runtime.get_binary("missing")


class TestFcfsContention:
    def test_youngest_inferlet_terminated_on_pressure(self):
        """When KV pages run out, the most recently created inferlet is
        terminated to free resources for the earlier one (FCFS)."""
        sim = Simulator(seed=2)
        from repro.core.config import PieConfig
        from repro.gpu import GpuConfig as GC

        config = PieConfig(gpu=GC(num_kv_pages=8, num_embed_slots=64))
        server = PieServer(sim, models=["llama-sim-1b"], config=config)

        async def hog(ctx):
            queue = ctx.create_queue()
            ctx.alloc_kvpage(queue, 5)
            await ctx.sleep(2.0)  # hold the pages
            return "survived"

        server.register_program(InferletProgram(name="hog", main=hog))

        async def scenario():
            first_task = sim.create_task(server.run_inferlet("hog"))
            await sim.sleep(0.5)
            second, _ = server.launch("hog")
            first = await first_task
            await second.done
            return first, second

        first, second = sim.run_until_complete(scenario())
        assert first.status == "finished"
        assert second.status == "terminated"
        # The typed cause a client reads off ``InferletTerminated``.
        assert second.terminated_cause == "reclaimed"
        statuses = [m.status for m in server.metrics.per_inferlet.values()]
        assert "terminated" in statuses
        assert server.metrics.inferlets_terminated == 1
