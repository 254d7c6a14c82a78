"""Tree-of-Thought reasoning with explicit KV-cache forking.

Each branch forks the root context's cached prefix (no re-prefill), runs
concurrently (the batch scheduler merges sibling forwards into shared
device batches), and the winner continues from the shared cache.

Run with:  python examples/tree_of_thought.py
"""

from repro.core import PieServer
from repro.inferlets import make_tree_of_thought
from repro.sim import Simulator
from repro.workloads import ToolEnvironment, make_arithmetic_tasks


def main() -> None:
    sim = Simulator(seed=3)
    server = PieServer(sim, models=["llama-sim-1b"])
    ToolEnvironment(sim, server.external)

    task = make_arithmetic_tasks(1, seed=7)[0]
    print(f"task: {task.prompt!r} (ground truth {task.answer})")

    program = make_tree_of_thought(task.prompt, n_branches=4, thought_tokens=10, answer_tokens=10)
    server.register_program(program)
    result = sim.run_until_complete(server.run_inferlet(program.name))

    for branch in result.result["branches"]:
        print(f"  branch {branch['index']}: score={branch['score']:>2}  thought={branch['thought']!r:.50}")
    print(f"answer : {result.result['answer']!r}")
    print(f"latency: {result.latency:.3f} s (virtual)")
    stats = server.service().shards[0].scheduler.stats
    print(f"scheduler: {stats.batches_dispatched} batches, mean size {stats.mean_batch_size:.2f}")


if __name__ == "__main__":
    main()
