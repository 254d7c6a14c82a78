"""The batched forward handler: hazard-free waves and per-command containment.

A ``forward`` batch makes one model call per wave.  The reference is the same
commands executed one batch each on a twin device — a batch of one is the
per-row forward (``tests/test_model_batched_forward.py``) — and device memory
must come out *equal*, not close.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.handlers import ApiHandlers
from repro.errors import ReproError, ResourceError
from repro.gpu import DeviceMemory, GpuConfig, KernelCostModel
from repro.model import LoraAdapter, get_model_config
from repro.model.registry import ModelEntry

CONFIG = get_model_config("llama-sim-1b")
PAGE = CONFIG.kv_page_size
ENTRY = ModelEntry(CONFIG)
ENTRY.register_adapter(LoraAdapter("tuned", CONFIG, rank=2, seed=4))


class Device:
    """Device memory, its handlers, and a seeded source of input embeddings."""

    def __init__(self, seed=0):
        self.memory = DeviceMemory(CONFIG, GpuConfig(num_kv_pages=32, num_embed_slots=160))
        self.handlers = ApiHandlers(ENTRY, self.memory, KernelCostModel(CONFIG))
        self.rng = np.random.default_rng(seed)

    def pages(self, count):
        return self.memory.kv_pages.allocate(count)

    def embeds(self, positions):
        """Fresh slots holding random input embeddings at ``positions``."""
        slots = self.memory.embeds.allocate(len(positions))
        vectors = self.rng.normal(size=(len(positions), CONFIG.d_model)).astype(np.float32)
        self.memory.embeds.write(slots, vectors, positions)
        return slots

    def slots(self, count):
        return self.memory.embeds.allocate(count)

    def run(self, commands, one_by_one=False):
        batches = [[c] for c in commands] if one_by_one else [commands]
        return [r for batch in batches for r in self.handlers.execute_batch("forward", batch)]


def forward(**payload):
    return SimpleNamespace(payload=payload)


def twins(build):
    """``build(device)`` -> commands, on two identical devices."""
    batched, sequential = Device(), Device()
    return batched, build(batched), sequential, build(sequential)


def assert_same_memory(a: Device, b: Device):
    for name in ("keys", "values", "positions", "valid", "visible"):
        np.testing.assert_array_equal(
            getattr(a.memory.kv_pages, name), getattr(b.memory.kv_pages, name), err_msg=name
        )
    for name in ("_data", "_positions", "_written"):
        np.testing.assert_array_equal(
            getattr(a.memory.embeds, name), getattr(b.memory.embeds, name), err_msg=name
        )


def model_calls(monkeypatch):
    calls = []
    real = ENTRY.transformer.forward
    monkeypatch.setattr(
        ENTRY.transformer, "forward", lambda rows: calls.append(len(rows)) or real(rows)
    )
    return calls


def prefill_then_decodes(device):
    """One queue's prefill, its first two decodes, and two bystanders, as one
    batch: every decode reads the page the command before it wrote."""
    (page,) = device.pages(1)
    other_a, other_b = device.pages(2)
    hidden = device.slots(3)
    return [
        forward(ikv=[other_a], iemb=device.embeds([0, 1]), okv=[other_a], okv_offset=0,
                oemb=device.slots(1)),
        forward(ikv=[page], iemb=device.embeds([0, 1, 2, 3]), okv=[page], okv_offset=0,
                oemb=[hidden[0]]),
        forward(ikv=[page], iemb=device.embeds([4]), okv=[page], okv_offset=4, oemb=[hidden[1]]),
        forward(ikv=[other_b], iemb=device.embeds([0]), okv=[other_b], okv_offset=0,
                oemb=device.slots(1)),
        # Feeds on the hidden state the decode before it wrote (an embed hazard).
        forward(ikv=[page], iemb=[hidden[1]], okv=[page], okv_offset=5, oemb=[hidden[2]]),
    ]  # fmt: skip


def test_read_after_write_chain_matches_sequential_execution(monkeypatch):
    batched, commands, sequential, same_commands = twins(prefill_then_decodes)
    calls = model_calls(monkeypatch)
    assert batched.run(commands) == [2, 4, 1, 1, 1]
    assert calls == [2, 2, 1]  # the chain closes two waves; bystanders ride along
    assert sequential.run(same_commands, one_by_one=True) == [2, 4, 1, 1, 1]
    assert_same_memory(batched, sequential)
    assert batched.memory.kv_pages.page(commands[1].payload["okv"][0]).num_valid == 6


def test_hazard_free_batch_is_one_model_call(monkeypatch):
    def build(device):
        return [
            forward(ikv=[page], iemb=device.embeds(list(range(n))), okv=[page], okv_offset=0,
                    oemb=device.slots(1))
            for n, page in zip((1, 3, 1, 2, 1, 1), device.pages(6))
        ]  # fmt: skip

    batched, commands, sequential, same_commands = twins(build)
    calls = model_calls(monkeypatch)
    assert batched.run(commands) == [1, 3, 1, 2, 1, 1]
    assert calls == [6]
    sequential.run(same_commands, one_by_one=True)
    assert_same_memory(batched, sequential)


def test_write_after_read_shares_a_wave(monkeypatch):
    """The second command overwrites the page and the embed slot the first
    one reads; the first still sees what was there before."""

    def build(device):
        (shared,) = device.pages(1)
        (scratch,) = device.pages(1)
        seed_tokens = device.embeds([0, 1, 2])
        device.run([forward(ikv=[], iemb=seed_tokens, okv=[shared], okv_offset=0)])
        reader_in = device.embeds([3])
        return [
            forward(ikv=[shared], iemb=reader_in, okv=[scratch], okv_offset=0,
                    oemb=device.slots(1)),
            forward(ikv=[], iemb=device.embeds([0, 1]), okv=[shared], okv_offset=0,
                    oemb=reader_in),
        ]  # fmt: skip

    batched, commands, sequential, same_commands = twins(build)
    calls = model_calls(monkeypatch)
    assert batched.run(commands) == [1, 2]
    assert calls == [2]
    sequential.run(same_commands, one_by_one=True)
    assert_same_memory(batched, sequential)


def test_bad_rows_return_their_own_exception_and_wave_mates_complete():
    def build(device):
        pages = device.pages(4)
        mate = lambda page: forward(  # noqa: E731
            ikv=[page], iemb=device.embeds([0, 1]), okv=[page], okv_offset=0, oemb=device.slots(1)
        )
        return [
            mate(pages[0]),
            forward(ikv=[31], iemb=device.embeds([0]), okv=[], oemb=[]),  # unallocated page
            forward(ikv=[], iemb=device.embeds([0, 1]), okv=[], oemb=[],
                    mask=[[True] * 5, [True] * 5]),  # mask shape
            forward(ikv=[], iemb=device.embeds([0]), okv=[], oemb=device.slots(2)),  # oemb > iemb
            forward(ikv=[], iemb=device.embeds([0]), okv=[], oemb=[], adapter="nope"),
            forward(ikv=[], iemb=[], okv=[], oemb=[]),  # no input
            mate(pages[1]),
            forward(ikv=[], iemb=device.embeds([0]), okv=[30], okv_offset=0, oemb=[]),  # scatter
            forward(ikv=[], iemb=device.embeds(list(range(PAGE + 1))), okv=[pages[2]],
                    okv_offset=0, oemb=[]),  # more tokens than the page holds
            forward(ikv=[], iemb=device.embeds([0]), okv=[pages[3]], okv_offset=-1, oemb=[]),
            mate(pages[3]),
            forward(ikv=[], iemb=device.embeds([0, 1]), okv=[], oemb=[], adapter="tuned"),
        ]  # fmt: skip

    batched, commands, sequential, same_commands = twins(build)
    results = batched.run(commands)
    good = (0, 6, 10, 11)
    assert [results[at] for at in good] == [2, 2, 2, 2]
    failures = [r for at, r in enumerate(results) if at not in good]
    assert all(isinstance(r, ReproError) for r in failures), failures
    assert len({id(r) for r in failures}) == len(failures) == 8
    assert isinstance(results[1], ResourceError) and "not allocated" in str(results[1])
    assert "mask shape" in str(results[2])
    assert "more output embeddings" in str(results[3])
    assert "unknown LoRA adapter" in str(results[4])
    assert "at least one input embedding" in str(results[5])
    reference = sequential.run(same_commands, one_by_one=True)
    assert [type(r) for r in reference] == [type(r) for r in results]
    assert_same_memory(batched, sequential)


def test_chunked_prefill_slices_land_behind_one_another(monkeypatch):
    """Slices carry ``okv_offset=None``: each lands after the tokens already
    valid in its pages, and attends to them — also when two slices of one
    prompt meet in a batch (the second then waits for the next wave)."""

    def build(device):
        pages = device.pages(2)
        tokens = device.embeds(list(range(20)))
        (out,) = device.slots(1)
        slice_of = lambda lo, hi, oemb: forward(  # noqa: E731
            ikv=pages, iemb=tokens[lo:hi], okv=pages, okv_offset=None, oemb=oemb
        )
        return [slice_of(0, 7, []), slice_of(7, 15, []), slice_of(15, 20, [out])]

    batched, commands, sequential, same_commands = twins(build)
    calls = model_calls(monkeypatch)
    assert batched.run(commands[:1]) == [7]
    assert batched.run(commands[1:]) == [8, 5]
    assert calls == [1, 1, 1]
    sequential.run(same_commands, one_by_one=True)
    assert_same_memory(batched, sequential)
    store = batched.memory.kv_pages
    pages = commands[0].payload["okv"]
    np.testing.assert_array_equal(
        store.positions[pages].reshape(-1)[:20], np.arange(20)
    )
    assert store.valid[pages].sum() == 20
