"""Figure 8: latency and throughput of LLM inference techniques across
serving systems (Pie, vLLM, SGLang, LMQL, StreamingLLM).

Unsupported (technique, system) combinations are reported as ``None`` and
rendered as "x", exactly like the paper's × marks.  Values are also
normalised per technique the way the figure is.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.baselines import (
    LmqlLikeServer,
    SamplingConfig,
    SglangLikeServer,
    StreamingLlmServer,
    VllmLikeServer,
)
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import (
    make_pie_setup,
    normalize,
    ratio,
    run_concurrent_coros,
    run_pie_concurrent,
    run_pie_single,
)
from repro.grammar import JsonMachine
from repro.inferlets import (
    make_attention_sink,
    make_beam_search,
    make_graph_of_thought,
    make_json_constrained,
    make_modular_caching,
    make_prefix_caching,
    make_recursion_of_thought,
    make_skeleton_of_thought,
    make_speculative_decoding,
    make_text_completion,
    make_tree_of_thought,
)
from repro.sim import Simulator
from repro.workloads import PromptGenerator, ToolEnvironment

SYSTEMS = ("pie", "vllm", "sglang", "lmql", "streamingllm")
MAX_TOKENS = 8
PROMPT = PromptGenerator(seed=8).prompt(48)
SHARED_PREFIX = PromptGenerator(seed=9).prompt(64)
SECTIONS = [PromptGenerator(seed=10 + i).prompt(40) for i in range(3)]

Runner = Callable[[int], Tuple[float, float]]


def _pie_runner(program_factory: Callable[[int], object]) -> Runner:
    def runner(concurrency: int) -> Tuple[float, float]:
        _, server = make_pie_setup(seed=42)
        single = run_pie_single(server, program_factory(10_000))
        programs = [program_factory(index) for index in range(concurrency)]
        _, elapsed = run_pie_concurrent(server, programs)
        return single.latency, ratio(concurrency, elapsed)

    return runner


def _baseline_runner(make_server: Callable, coro_factory: Callable) -> Runner:
    def runner(concurrency: int) -> Tuple[float, float]:
        sim = Simulator(seed=43)
        ToolEnvironment(sim)
        server = make_server(sim)
        start = sim.now
        sim.run_until_complete(coro_factory(sim, server, 10_000))
        latency = sim.now - start
        _, elapsed = run_concurrent_coros(
            sim, [coro_factory(sim, server, index) for index in range(concurrency)]
        )
        return latency, ratio(concurrency, elapsed)

    return runner


def _json_mask(generated: bytes):
    machine = JsonMachine()
    try:
        for byte in generated:
            machine.advance(byte)
    except Exception:
        return set(range(256))
    allowed = machine.allowed_next_bytes()
    return allowed if allowed else set(range(256))


def _technique_matrix() -> Dict[str, Dict[str, Optional[Runner]]]:
    sampling = SamplingConfig(max_tokens=MAX_TOKENS)

    async def plain(sim, server, index):
        return await server.generate(f"[{index}] " + PROMPT, sampling)

    async def prefix_tree(sim, server, index):
        return await server.generate(SHARED_PREFIX + f" branch {index}", sampling)

    async def tot_sglang(sim, server, index):
        outputs = await server.fork_generate(
            SHARED_PREFIX + f" task {index}", [" idea A", " idea B", " idea C"], sampling
        )
        best = max(outputs, key=lambda o: len(set(o.text)))
        return await server.generate(SHARED_PREFIX + best.text + " Therefore", sampling)

    async def skot_sglang(sim, server, index):
        skeleton = await server.generate(SHARED_PREFIX + f" outline {index}", sampling)
        return await server.fork_generate(
            SHARED_PREFIX + skeleton.text, [" point 1", " point 2", " point 3"], sampling
        )

    async def ebnf(sim, server, index):
        constrained = SamplingConfig(max_tokens=24, allowed_bytes_fn=_json_mask)
        return await server.generate(f"[{index}] JSON: ", constrained)

    async def specdec(sim, server, index):
        return await server.generate("abcabcabcabc" + f"[{index}]", SamplingConfig(max_tokens=12))

    async def beam(sim, server, index):
        return await server.generate_beam(f"[{index}] " + PROMPT, beam_width=3, max_tokens=4)

    async def attnsink(sim, server, index):
        return await server.generate(f"[{index}] " + PROMPT, SamplingConfig(max_tokens=24))

    return {
        "text_completion": {
            "pie": _pie_runner(
                lambda i: make_text_completion(f"[{i}] " + PROMPT, MAX_TOKENS, name=f"tc_{i}")
            ),
            "vllm": _baseline_runner(lambda sim: VllmLikeServer(sim), plain),
            "sglang": _baseline_runner(lambda sim: SglangLikeServer(sim), plain),
            "lmql": _baseline_runner(lambda sim: LmqlLikeServer(sim), plain),
            "streamingllm": None,
        },
        "prefix_tree": {
            "pie": _pie_runner(
                lambda i: make_prefix_caching(
                    SHARED_PREFIX, f" branch {i}", MAX_TOKENS, name=f"ptree_{i}"
                )
            ),
            "vllm": _baseline_runner(lambda sim: VllmLikeServer(sim, enable_prefix_caching=True), prefix_tree),
            "sglang": _baseline_runner(lambda sim: SglangLikeServer(sim), prefix_tree),
            "lmql": None,
            "streamingllm": None,
        },
        "tot": {
            "pie": _pie_runner(
                lambda i: make_tree_of_thought(
                    SHARED_PREFIX + f" task {i}", n_branches=3, thought_tokens=6,
                    answer_tokens=6, name=f"tot_{i}"
                )
            ),
            "vllm": None,
            "sglang": _baseline_runner(lambda sim: SglangLikeServer(sim), tot_sglang),
            "lmql": None,
            "streamingllm": None,
        },
        "rot": {
            "pie": _pie_runner(
                lambda i: make_recursion_of_thought(
                    SHARED_PREFIX + f" problem {i}", max_depth=2, tokens_per_step=5, name=f"rot_{i}"
                )
            ),
            "vllm": None,
            "sglang": None,
            "lmql": None,
            "streamingllm": None,
        },
        "got": {
            "pie": _pie_runner(
                lambda i: make_graph_of_thought(
                    SECTIONS, tokens_per_summary=5, final_tokens=6, name=f"got_{i}"
                )
            ),
            "vllm": None,
            "sglang": None,
            "lmql": None,
            "streamingllm": None,
        },
        "skot": {
            "pie": _pie_runner(
                lambda i: make_skeleton_of_thought(
                    SHARED_PREFIX + f" topic {i}", n_points=3, skeleton_tokens=5,
                    expansion_tokens=5, name=f"skot_{i}"
                )
            ),
            "vllm": None,
            "sglang": _baseline_runner(lambda sim: SglangLikeServer(sim), skot_sglang),
            "lmql": None,
            "streamingllm": None,
        },
        "modular_cache": {
            "pie": _pie_runner(
                lambda i: make_modular_caching(
                    [SHARED_PREFIX, f" module for {i} "], " question?", MAX_TOKENS, name=f"mcache_{i}"
                )
            ),
            "vllm": None,
            "sglang": None,
            "lmql": None,
            "streamingllm": None,
        },
        "ebnf": {
            "pie": _pie_runner(
                lambda i: make_json_constrained(f"[{i}] JSON: ", max_tokens=24, name=f"ebnf_{i}")
            ),
            "vllm": _baseline_runner(lambda sim: VllmLikeServer(sim), ebnf),
            "sglang": _baseline_runner(lambda sim: SglangLikeServer(sim), ebnf),
            "lmql": _baseline_runner(lambda sim: LmqlLikeServer(sim), ebnf),
            "streamingllm": None,
        },
        "specdec": {
            "pie": _pie_runner(
                lambda i: make_speculative_decoding(
                    "abcabcabcabc" + f"[{i}]", max_tokens=12, name=f"spec_{i}"
                )
            ),
            "vllm": _baseline_runner(
                lambda sim: VllmLikeServer(sim, enable_ngram_speculation=True), specdec
            ),
            "sglang": None,
            "lmql": None,
            "streamingllm": None,
        },
        "beam": {
            "pie": _pie_runner(
                lambda i: make_beam_search(f"[{i}] " + PROMPT, beam_width=3, max_tokens=4, name=f"beam_{i}")
            ),
            "vllm": _baseline_runner(lambda sim: VllmLikeServer(sim), beam),
            "sglang": None,
            "lmql": _baseline_runner(lambda sim: LmqlLikeServer(sim), beam),
            "streamingllm": None,
        },
        "attnsink": {
            "pie": _pie_runner(
                lambda i: make_attention_sink(
                    f"[{i}] " + PROMPT, max_tokens=24, sink_tokens=4, window_tokens=16, name=f"sink_{i}"
                )
            ),
            "vllm": None,
            "sglang": None,
            "lmql": None,
            "streamingllm": _baseline_runner(lambda sim: StreamingLlmServer(sim), attnsink),
        },
    }


def run(quick: bool = True, techniques: Optional[Tuple[str, ...]] = None) -> ExperimentResult:
    concurrency = 3 if quick else 8
    matrix = _technique_matrix()
    if techniques is not None:
        matrix = {name: matrix[name] for name in techniques}
    result = ExperimentResult(
        name="Figure 8",
        description="Latency (s) and throughput (req/s) of inference techniques per serving system",
    )
    for technique, runners in matrix.items():
        latencies: Dict[str, Optional[float]] = {}
        throughputs: Dict[str, Optional[float]] = {}
        for system in SYSTEMS:
            runner = runners.get(system)
            if runner is None:
                latencies[system] = None
                throughputs[system] = None
                continue
            latency, tps = runner(concurrency)
            latencies[system] = latency
            throughputs[system] = tps
        norm_latency = normalize(latencies, "latency")
        norm_throughput = normalize(throughputs, "throughput")
        for system in SYSTEMS:
            result.add_row(
                technique=technique,
                system=system,
                latency_s=latencies[system],
                throughput_per_s=throughputs[system],
                norm_latency=norm_latency[system],
                norm_throughput=norm_throughput[system],
            )
    result.add_note(
        "Paper: Pie matches vLLM/SGLang on standard tasks, leads on deliberate prompting "
        "(up to 28% lower latency / 34% higher throughput) and beats StreamingLLM by 1.5x "
        "latency / >30x throughput on attention sink."
    )
    return result
