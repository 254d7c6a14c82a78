"""Vertical batching by hazard: a queue's independent commands share a batch.

``CommandQueue.ready_runs`` offers, per command kind, every pending command
with no read-after-write, write-after-read or write-after-write hazard with
an earlier command left out of that run; a fence (a chunked prefill's
residual, the one command that does not name all it touches) is passed by
nothing.
Dispatched commands leave the queue wherever they sit, so commands no longer
retire in push order, and ``synchronize`` waits on a push-sequence watermark
instead of a count.

The parent's ``head_run``, ``pop_commands`` and count barrier are kept
verbatim below (``ParentQueue``) as the oracle.  A hypothesis state machine
pushes random commands on two queues, dispatches a random candidate batch and
retires random in-flight batches; after every step it checks that

* a versioned-memory interpreter reads exactly what FIFO execution reads,
  and every page or slot holds what its last executed writer wrote;
* a queue that is a pure chain offers exactly the parent's head run;
* a barrier is resolved exactly when every command pushed before it has
  retired, and agrees with the parent's count barrier while retirement has
  been FIFO.

A scripted run shows the gain: three branches forked onto one queue get one
3-row forward per decode round, where the parent dispatched three 1-row
forwards.  Four named mutants are killed.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Dict, List, Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.core.command_queue as command_queue_module
from repro.core import InferletProgram, PieServer
from repro.core.batching import form_candidate_batches
from repro.core.command_queue import Command, CommandQueue
from repro.errors import SchedulingError
from repro.sim import Simulator
from repro.support import Context, SamplingParams
from tests.test_batch_formation import DEFAULT_BUDGET


# -- the parent's queue, verbatim -----------------------------------------------


class ParentQueue:
    """The parent's vertical batching, dispatch removal and count barrier."""

    def __init__(self) -> None:
        self._pending = deque()
        self._inflight = 0
        self._barrier_futures = []  # (remaining_count, future)
        self._issued = 0
        self._completed = 0

    def _pending_changed(self, delta: int) -> None:
        pass

    def head_run(self, max_commands: int) -> List[Command]:
        """Return the longest batchable prefix of pending commands.

        This implements *vertical batching*: consecutive commands of the
        same kind at the head of the queue that do not write-write conflict
        with each other.
        """
        run: List[Command] = []
        # Accumulated write set of the run so far: checking each candidate
        # against it by intersection is equivalent to pairwise
        # ``conflicts_with`` (write-write only) without the O(n^2) scan.
        run_writes: set = set()
        for command in self._pending:
            if len(run) >= max_commands:
                break
            if run and command.kind != run[0].kind:
                break
            if command.writes & run_writes:
                break
            run.append(command)
            run_writes |= command.writes
        return run

    def pop_commands(self, commands: List[Command]) -> None:
        """Remove dispatched commands (must be a prefix of the queue)."""
        popped = 0
        for command in commands:
            if not self._pending or self._pending[0] is not command:
                if popped:
                    self._pending_changed(-popped)
                raise SchedulingError("dispatched commands must form a queue prefix")
            self._pending.popleft()
            self._inflight += 1
            popped += 1
        self._pending_changed(-popped)

    def mark_completed(self) -> None:
        """One dispatched command retired (each barrier counts it once)."""
        self._inflight -= 1
        self._completed += 1
        if self._inflight < 0:
            raise SchedulingError("completed more commands than were dispatched")
        self._resolve_barriers()

    def synchronize(self, future) -> None:
        """Resolve ``future`` once all currently issued commands complete."""
        outstanding = len(self._pending) + self._inflight
        if outstanding == 0:
            future.set_result(None)
            return
        self._barrier_futures.append([outstanding, future])

    def _resolve_barriers(self) -> None:
        still_waiting = []
        for entry in self._barrier_futures:
            entry[0] -= 1
            if entry[0] <= 0:
                if not entry[1].done():
                    entry[1].set_result(None)
            else:
                still_waiting.append(entry)
        self._barrier_futures = still_waiting


# -- a model of queues, device and memory ------------------------------------------

QUEUES = 2
SLOTS = 4  # pages and embedding slots per queue
KINDS = ("embed_text", "forward", "sample", "mask_kv", "copy_kv")


def hazard(later: Command, earlier: Command) -> bool:
    return bool(
        later.reads & earlier.writes
        or later.writes & earlier.writes
        or later.writes & earlier.reads
    )


def is_chain(commands: List[Command]) -> bool:
    """Each command touches what the one before it wrote, or writes what it read."""
    return all(hazard(later, earlier) for earlier, later in zip(commands, commands[1:]))


class Model:
    """Queues over a FIFO device, with a versioned-memory interpreter.

    Memory maps a ``("kv", pid)`` / ``("emb", eid)`` key to the id of the
    command that wrote it last (0: never written).  A command reads the
    versions of what it reads and writes its own id into what it writes.  A
    fence touches every key of its queue — what it *declares* is partial,
    which is why it is a fence.  ``expected`` holds what each command read
    when run in push order, the moment it was pushed; a batch runs its
    commands in batch order when it is dispatched, and retires later."""

    def __init__(self, queue_class=CommandQueue) -> None:
        self.sim = Simulator()
        self.queues = [queue_class(key=q, model="m", owner=f"o{q}") for q in range(QUEUES)]
        self.shadows = [ParentQueue() for _ in range(QUEUES)]
        self.pushed: List[List[Command]] = [[] for _ in range(QUEUES)]
        self.fifo_memory: Dict = {}
        self.expected: Dict[int, Dict] = {}
        self.memory: Dict = {}
        self.executed: set = set()
        self.retired: set = set()
        self.retired_in_order = [True] * QUEUES
        self.inflight: List[List[Command]] = []
        self.barriers: List[tuple] = []  # (future, shadow future, queue, ids before it)
        self.max_rows = 4

    @staticmethod
    def keys(q: int, pairs) -> frozenset:
        return frozenset((tag, q * SLOTS + index) for tag, index in pairs)

    def touched(self, command: Command):
        if command.is_fence:
            every = self.keys(
                command.queue_key, [(tag, i) for tag in ("kv", "emb") for i in range(SLOTS)]
            )
            return every, every
        return command.reads, command.writes

    def run(self, command: Command, memory: Dict) -> Dict:
        reads, writes = self.touched(command)
        seen = {key: memory.get(key, 0) for key in reads}
        for key in writes:
            memory[key] = command.command_id
        return seen

    # -- operations ---------------------------------------------------------

    def push(self, q: int, kind: str, reads=(), writes=(), residual: bool = False) -> Command:
        command = Command(
            kind=kind,
            inferlet_id=f"o{q}",
            payload={},
            future=self.sim.create_future(),
            issue_time=0.0,
            reads=self.keys(q, reads),
            writes=self.keys(q, writes),
        )
        command.chunks_taken = int(residual)
        self.queues[q].issue(command)
        self.queues[q].push(command)
        self.shadows[q]._pending.append(command)
        self.pushed[q].append(command)
        self.expected[command.command_id] = self.run(command, self.fifo_memory)
        return command

    def synchronize(self, q: int):
        future, shadow = self.sim.create_future(), self.sim.create_future()
        self.queues[q].synchronize(future)
        self.shadows[q].synchronize(shadow)
        before = frozenset(command.command_id for command in self.pushed[q])
        self.barriers.append((future, shadow, q, before))
        return future

    def candidates(self):
        return form_candidate_batches(self.queues, self.max_rows, *DEFAULT_BUDGET)

    def dispatch(self, kind: str) -> Optional[List[Command]]:
        candidate = self.candidates().get(kind)
        if candidate is None:
            return None
        batch = candidate.commands
        for q, queue in enumerate(self.queues):
            mine = [command for command in batch if command.queue_key == q]
            if not mine:
                continue
            ids = {id(command) for command in mine}
            left = [command for command in queue._pending if id(command) not in ids]
            queue.pop_commands(mine)
            assert [id(c) for c in queue._pending] == [id(c) for c in left]
            shadow = self.shadows[q]
            if all(a is b for a, b in zip(mine, shadow._pending)):
                shadow.pop_commands(mine)
            else:
                shadow._pending = deque(c for c in shadow._pending if id(c) not in ids)
                shadow._inflight += len(mine)
            assert [id(c) for c in shadow._pending] == [id(c) for c in left]
        for command in batch:
            seen = self.run(command, self.memory)
            assert seen == self.expected[command.command_id], (
                f"{command.kind} #{command.command_id} read {seen}, "
                f"FIFO read {self.expected[command.command_id]}"
            )
            self.executed.add(command.command_id)
        self.inflight.append(batch)
        return batch

    def retire(self, index: int) -> None:
        batch = self.inflight.pop(index)
        for command in batch:
            q = command.queue_key
            oldest = next(c for c in self.pushed[q] if c.command_id not in self.retired)
            if oldest is not command:
                self.retired_in_order[q] = False
            self.queues[q].mark_completed(command)
            self.shadows[q].mark_completed()
            self.retired.add(command.command_id)

    # -- checks -------------------------------------------------------------

    def check(self) -> None:
        last_writer: Dict = {}
        for commands in self.pushed:
            for command in commands:
                if command.command_id in self.executed:
                    for key in self.touched(command)[1]:
                        last_writer[key] = command.command_id
        assert self.memory == last_writer
        for queue in self.queues:
            pending = list(queue._pending)
            if pending and is_chain(pending):
                oracle = ParentQueue()
                oracle._pending = deque(pending)
                assert queue.ready_runs(self.max_rows) == [oracle.head_run(self.max_rows)]
        for future, shadow, q, before in self.barriers:
            assert future.done() == (before <= self.retired), (q, sorted(before - self.retired))
            if self.retired_in_order[q]:
                assert future.done() == shadow.done()


key_pairs = st.sets(st.tuples(st.sampled_from(("kv", "emb")), st.integers(0, SLOTS - 1)), max_size=3)
command_specs = st.tuples(
    st.integers(0, QUEUES - 1),
    st.sampled_from(KINDS),
    key_pairs,
    key_pairs,
    st.integers(0, 9).map(lambda draw: draw == 0),  # one forward in ten is a residual
)


class HazardMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model = Model()

    @rule(commands=st.lists(command_specs, min_size=1, max_size=6))
    def push(self, commands):
        for q, kind, reads, writes, residual in commands:
            if kind == "embed_text":
                reads = ()
            if kind == "sample":
                writes = ()
            self.model.push(q, kind, reads, writes, residual=residual and kind == "forward")

    @rule(q=st.integers(0, QUEUES - 1))
    def synchronize(self, q):
        self.model.synchronize(q)

    @rule(rows=st.integers(1, 4))
    def set_rows(self, rows):
        self.model.max_rows = rows

    @rule(data=st.data())
    def dispatch(self, data):
        kinds = sorted(self.model.candidates())
        if kinds:
            self.model.dispatch(data.draw(st.sampled_from(kinds)))

    @rule(data=st.data())
    def retire(self, data):
        if self.model.inflight:
            self.model.retire(data.draw(st.integers(0, len(self.model.inflight) - 1)))

    @invariant()
    def checks(self):
        self.model.check()


HazardMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None
)
TestHazardMachine = HazardMachine.TestCase


def test_a_drained_machine_ends_in_fifo_memory():
    """Dispatching until nothing is pending leaves memory exactly as FIFO."""
    model = Model()
    model.push(0, "embed_text", writes=[("emb", 0)])
    model.push(0, "forward", reads=[("emb", 0), ("kv", 0)], writes=[("kv", 1), ("emb", 1)])
    model.push(0, "embed_text", writes=[("emb", 2)])
    model.push(0, "forward", reads=[("emb", 2), ("kv", 0)], writes=[("kv", 2), ("emb", 3)])
    model.push(0, "sample", reads=[("emb", 1)])
    model.push(0, "forward", residual=True)
    model.push(0, "embed_text", writes=[("emb", 1)])
    while model.queues[0].pending_count:
        model.dispatch(next(iter(model.candidates())))
        model.check()
    assert model.memory == model.fifo_memory
    assert [len(batch) for batch in model.inflight] == [2, 2, 1, 1, 1]


# -- the gain, scripted ------------------------------------------------------------


def test_three_branches_on_one_queue_share_each_decode_forward():
    """Fails at the parent: there each decode round was three 1-row forwards."""
    sim = Simulator(seed=0)
    server = PieServer(sim)
    scheduler = server.service().shards[0].scheduler
    forwards = []
    copies = []
    dispatch = scheduler._dispatch

    def spy(batch):
        if batch.kind == "forward":
            forwards.append(len(batch.commands))
        if batch.kind.startswith("copy_"):
            copies.append((batch.kind, len(batch.commands)))
        dispatch(batch)

    scheduler._dispatch = spy

    async def main(ctx):
        root = Context(ctx, sampling=SamplingParams())
        await root.fill(list(range(40)))
        children = [root.fork(queue=root.queue) for _ in range(3)]

        async def branch(child):
            await child.refresh_hidden()
            for _ in range(4):
                await child.generate_once()
            return child.generated_ids

        tokens = await sim.gather([sim.create_task(branch(child)) for child in children])
        for child in children:
            child.free()
        root.free()
        return tokens

    server.register_program(InferletProgram(name="tree", main=main))
    result = sim.run_until_complete(server.run_inferlet("tree"))
    sim.run()
    assert result.status == "finished"
    # The prompt's forward, then each decode round as one forward of all
    # three branches (the last round's token is never written: nothing
    # reads it).  A fork runs no forward: it copies the prompt's partial
    # last page and the last hidden state.  The three forks' copies read
    # the same parent page and slot and write their own, so each kind goes
    # as one batch of three (one by one while copies were fences).
    assert forwards == [1, 3, 3, 3]
    assert copies == [("copy_kv", 3), ("copy_emb", 3)]


# -- mutants ----------------------------------------------------------------------


def mutant_queue(*replacements):
    """``CommandQueue`` with pieces of its module's source replaced."""
    source = inspect.getsource(command_queue_module)
    for old, new in replacements:
        assert source.count(old) == 1, f"mutation site not found exactly once: {old!r}"
        source = source.replace(old, new)
    namespace = {"__name__": command_queue_module.__name__}
    exec(compile(source, command_queue_module.__file__, "exec"), namespace)
    return namespace["CommandQueue"]


class CountBarrierQueue(CommandQueue):
    """The parent's count barrier kept beside the reordering scan."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._barrier_futures = []

    synchronize = ParentQueue.synchronize
    _resolve_barriers = ParentQueue._resolve_barriers

    def _retire(self, command) -> None:
        self._resolve_barriers()


def write_after_read(model):
    """A sample reads a slot; the embed after it overwrites the slot."""
    model.push(0, "sample", reads=[("emb", 0)])
    model.push(0, "embed_text", writes=[("emb", 0)])
    model.dispatch("embed_text")
    model.dispatch("sample")
    model.dispatch("embed_text")


def read_after_write(model):
    """A forward reads the slot the embed before it writes."""
    model.push(0, "embed_text", writes=[("emb", 0)])
    model.push(0, "forward", reads=[("emb", 0)], writes=[("emb", 1)])
    model.dispatch("forward")
    model.dispatch("embed_text")
    model.dispatch("forward")


def past_a_fence(model):
    """An embed after a residual must not join the embed before it."""
    model.push(0, "embed_text", writes=[("emb", 0)])
    model.push(0, "forward", residual=True)
    model.push(0, "embed_text", writes=[("emb", 1)])
    for kind in ("embed_text", "forward", "embed_text"):
        model.dispatch(kind)


def later_retires_first(model):
    """The barrier after ``e1 f1`` holds while a later, independent ``e2``
    retires beside ``e1``; ``f1`` is still pending."""
    model.push(0, "embed_text", writes=[("emb", 0)])
    model.push(0, "forward", reads=[("emb", 0)], writes=[("emb", 1)])
    model.synchronize(0)
    model.push(0, "embed_text", writes=[("emb", 2)])
    assert len(model.dispatch("embed_text")) == 2
    model.retire(0)
    model.check()
    model.dispatch("forward")
    model.retire(0)


MUTANTS = {
    "no write-after-read check": (
        write_after_read,
        mutant_queue(
            ("and writes.isdisjoint(out_reads)", ""),
            ("and writes.isdisjoint(run_reads)", ""),
        ),
    ),
    "no read-after-write check": (
        read_after_write,
        mutant_queue(
            ("reads.isdisjoint(out_writes)", "True"),
            ("reads.isdisjoint(run_writes)", "True"),
        ),
    ),
    "a passable fence": (
        past_a_fence,
        # A fence that cannot join is skipped instead of ending the scan.
        mutant_queue(
            (
                "                    break\n            else:",
                "                    continue\n            else:",
            )
        ),
    ),
    "the count barrier kept with reordering": (later_retires_first, CountBarrierQueue),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name):
    scenario, mutant = MUTANTS[name]
    model = Model()
    scenario(model)
    model.check()
    model = Model(queue_class=mutant)
    with pytest.raises(AssertionError):
        scenario(model)
        model.check()
