"""The experiment skeleton: fleet runner, mixed fleet, arm-by-arm comparer.

``launch_fleet`` creates its tasks in list order — the lifecycle manager
hands out sampling seeds as launches arrive, so list order is what makes a
run reproducible — and ``results[i]`` belongs to ``fleet[i]``;
``compare_arms`` runs one workload under named arms and says which arms
read the same.  Hand-made mutants show the checks have teeth.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.bench.compare import Comparison, compare_arms
from repro.bench.experiments import chunked_prefill
from repro.bench.loadgen import run_open_loop
from repro.bench.reporting import ExperimentResult
from repro.bench.runners import Launch, launch_fleet, make_pie_setup, ratio
from repro.core import InferletProgram
from repro.support import Context


def probe(name: str) -> InferletProgram:
    """Returns when it ran and the first draw of its per-instance rng."""

    async def main(ctx):
        return ctx.now(), float(ctx.rng.random())

    return InferletProgram(name=name, main=main)


def first_draw(seed: int) -> float:
    return float(np.random.default_rng(seed).random())


def tied_fleet():
    """Not in delay order, two entries due at the same instant (listed
    against their names' order), one launched directly."""
    return [
        Launch(probe("late"), 0.2),
        Launch(probe("tie_b"), 0.1),
        Launch(probe("tie_a"), 0.1),
        Launch(probe("direct")),
    ]


def run_tied_fleet(runner=launch_fleet):
    _, server = make_pie_setup(seed=5, with_tools=False)
    return runner(server, tied_fleet())


def check_list_order(run) -> None:
    names = [launch.program.name for launch in run.fleet]
    assert names == ["late", "tie_b", "tie_a", "direct"]
    # results[i] belongs to fleet[i]: ids are "<program name>-<n>".
    assert [r.instance_id.rsplit("-", 1)[0] for r in run.results] == names
    # Seeds go out as launches arrive; entries due together arrive in list order.
    draws = {name: r.result[1] for name, r in zip(names, run.results)}
    assert draws == {
        "direct": first_draw(1),
        "tie_b": first_draw(2),
        "tie_a": first_draw(3),
        "late": first_draw(4),
    }
    assert run.finished == 4
    [late] = run.results_of([run.fleet[0].program])
    assert late is run.results[0]
    # ...and the lifecycle manager serves them one after the other.
    assert late.result[0] > run.results[2].result[0] > run.results[1].result[0]


def test_fleet_launches_in_list_order():
    check_list_order(run_tied_fleet())


def test_same_seed_runs_are_identical():
    def observable(run):
        return (
            [(r.status, r.result, r.latency, r.launch_latency) for r in run.results],
            run.readings(),
        )

    assert observable(run_tied_fleet()) == observable(run_tied_fleet())


def test_zero_delay_is_not_a_direct_launch():
    """A zero delay takes the sleep hop, so it launches after a direct one
    listed later — the distinction ``run_pie_concurrent`` relies on."""
    _, server = make_pie_setup(seed=5, with_tools=False)
    run = launch_fleet(server, [Launch(probe("slept"), 0.0), Launch(probe("direct"))])
    assert [r.result[1] for r in run.results] == [first_draw(2), first_draw(1)]


def mutant_sorted_by_delay(server, fleet):
    """Creates the tasks in delay order; still claims results[i] is fleet[i]."""
    run = launch_fleet(server, sorted(fleet, key=lambda launch: launch.delay or 0.0))
    return replace(run, fleet=fleet)


def mutant_ties_broken_by_name(server, fleet):
    """Launches in (delay, name) order and hands the results back in list
    order: only the entries due together are affected."""
    ordered = sorted(fleet, key=lambda launch: (launch.delay or 0.0, launch.program.name))
    run = launch_fleet(server, ordered)
    by_name = {launch.program.name: r for launch, r in zip(ordered, run.results)}
    return replace(run, fleet=fleet, results=[by_name[l.program.name] for l in fleet])


@pytest.mark.parametrize("mutant", [mutant_sorted_by_delay, mutant_ties_broken_by_name])
def test_reordering_mutants_are_killed(mutant):
    with pytest.raises(AssertionError):
        check_list_order(run_tied_fleet(mutant))


# -- the mixed fleet: grouping by program, not by result shape ---------------------

SMALL_FLEET = replace(
    chunked_prefill.FLEET, n_summarizers=2, n_chats=3, chat_tokens=4, prompt_tokens=64
)


def test_failed_chat_stays_among_the_chats(monkeypatch):
    """A chat whose program raises has ``result=None``.  Classified by result
    shape it was filed under the summarizers and silently left the chats, so
    the token-identity assertions compared lists of different membership."""
    fill = Context.fill

    async def failing_fill(self, prompt):
        if prompt == "User: quick question number 1? ":
            raise RuntimeError("chat 1 fails")
        return await fill(self, prompt)

    monkeypatch.setattr(Context, "fill", failing_fill)
    row = chunked_prefill.run_fleet(SMALL_FLEET, **chunked_prefill.ARMS["chunked_off"])

    assert row["finished"] == SMALL_FLEET.n_summarizers + SMALL_FLEET.n_chats - 1
    assert len(row["summarizer_outputs"]) == SMALL_FLEET.n_summarizers
    assert all(isinstance(tokens, list) for tokens in row["summarizer_outputs"])
    assert len(row["chat_outputs"]) == SMALL_FLEET.n_chats
    assert row["chat_outputs"][1] is None
    assert all(len(row["chat_outputs"][i]) == SMALL_FLEET.chat_tokens for i in (0, 2))


# -- the comparer -----------------------------------------------------------------

ARMS = {"plain": {}, "traced": dict(tracing=True), "reseeded": dict(seed=12)}
TOKENS_AND_ELAPSED = ("outputs", "duration_s")


@pytest.fixture(scope="module")
def compared() -> Comparison:
    return compare_arms(
        partial(
            run_open_loop,
            n_requests=40,
            offered_rate=300.0,
            seed=11,
            num_devices=2,
            collect_outputs=True,
        ),
        ARMS,
    )


def test_comparer_runs_each_arm_once_in_order(compared):
    assert list(compared.raw) == list(ARMS)
    rows = compared.rows(lambda row: dict(finished=row["finished"]))
    assert rows == [{"config": label, "finished": 40} for label in ARMS]
    result = ExperimentResult(name="n", description="d", rows=rows, raw=compared.raw)
    assert result.raw is compared.raw and "raw" not in result.to_dict()
    assert ExperimentResult(name="n", description="d").raw == {}


def check_identity(comparison: Comparison) -> None:
    # tracing=True only observes; another seed is another arrival schedule.
    assert comparison.identical("plain", "traced", *TOKENS_AND_ELAPSED)
    assert not comparison.identical("plain", "reseeded", *TOKENS_AND_ELAPSED)
    assert not comparison.identical("plain", "reseeded", "duration_s")


def test_tracing_arm_is_identical_and_reseeded_arm_is_not(compared):
    check_identity(compared)


def test_mutant_comparing_an_arm_with_itself_is_killed(compared):
    class SelfComparing(Comparison):
        def identical(self, first, second, *keys):
            return all(self.raw[first][key] == self.raw[first][key] for key in keys)

    with pytest.raises(AssertionError):
        check_identity(SelfComparing(compared.raw))


def test_ratios_go_through_the_one_guarded_division(compared):
    assert compared.ratio("finished", "traced", "plain") == 1.0
    assert compared.ratio("goodput_count", "reseeded", "plain") == (
        compared.raw["reseeded"]["goodput_count"] / compared.raw["plain"]["goodput_count"]
    )
    assert ratio(3, 0) == 0.0 and ratio(3, -1.0) == 0.0 and ratio(3, 2) == 1.5
    empty = Comparison({"a": {"n": 0}, "b": {"n": 5}})
    assert empty.ratio("n", "b", "a") == 0.0
