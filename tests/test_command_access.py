"""``command_queue.ACCESS``: every command kind says what it reads and writes.

The table is the one place a kind's read and write sets come from
(``Controller.submit_command`` derives them through ``access``), so a kind
the inference layer runs or prices without a row would pass every hazard
check untouched.  The sets ``access`` derives are the ones the API bindings
used to build by hand, kind by kind.
"""

import ast
import inspect
import textwrap

import pytest

from repro.core.command_queue import ACCESS, COMMAND_KINDS, access
from repro.core.handlers import ApiHandlers
from repro.errors import SchedulingError
from repro.gpu import DeviceMemory, GpuConfig, KernelCostModel
from repro.model import get_model_config
from repro.model.registry import ModelEntry


def _handlers():
    config = get_model_config("llama-sim-1b")
    memory = DeviceMemory(config, GpuConfig(num_kv_pages=4, num_embed_slots=8))
    return ApiHandlers(ModelEntry(config), memory, KernelCostModel(config))


def _priced_kinds():
    """The kinds ``batch_cost_seconds`` compares ``kind`` with."""
    source = textwrap.dedent(inspect.getsource(ApiHandlers.batch_cost_seconds))
    kinds = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind":
            for constant in ast.walk(node.comparators[0]):
                if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                    kinds.add(constant.value)
    return kinds


def test_the_table_covers_every_kind_the_handlers_run_and_price():
    handlers = _handlers()
    assert COMMAND_KINDS == tuple(ACCESS)
    assert set(handlers._batched) | set(handlers._dispatch) == set(ACCESS)
    assert _priced_kinds() == set(ACCESS)
    for kind in ACCESS:
        assert handlers.batch_cost_seconds(kind, []) >= 0.0
    with pytest.raises(SchedulingError):
        handlers.execute_batch("no_such_kind", [])
    with pytest.raises(SchedulingError):
        handlers.batch_cost_seconds("no_such_kind", [])


PAYLOADS = {
    "embed_text": {"token_ids": [5, 6], "positions": [0, 1], "emb_slots": [3, 4]},
    "embed_image": {"blob": b"", "positions": [0], "emb_slots": [3]},
    "forward": {"ikv": [0, 1], "iemb": [3], "okv": [1, 2], "oemb": [4]},
    "sample": {"emb_slots": [4, 5], "top_k": None, "temperature": 1.0},
    "copy_kv": {"src": 0, "dst": 2, "src_slots": None, "dst_slots": None},
    "copy_emb": {"src": [3], "dst": [6, 7]},
    "mask_kv": {"page": 0, "mask": [True]},
    "clear_kv": {"page": 0},
}

EXPECTED = {
    "embed_text": (set(), {("emb", 3), ("emb", 4)}),
    "embed_image": (set(), {("emb", 3)}),
    "forward": ({("kv", 0), ("kv", 1), ("emb", 3)}, {("kv", 1), ("kv", 2), ("emb", 4)}),
    "sample": ({("emb", 4), ("emb", 5)}, set()),
    "copy_kv": ({("kv", 0)}, {("kv", 2)}),
    "copy_emb": ({("emb", 3)}, {("emb", 6), ("emb", 7)}),
    "mask_kv": (set(), {("kv", 0)}),
    "clear_kv": (set(), {("kv", 0)}),
}


@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_access_names_what_each_kind_touches(kind):
    reads, writes = access(kind, PAYLOADS[kind])
    assert isinstance(reads, frozenset) and isinstance(writes, frozenset)
    assert (set(reads), set(writes)) == EXPECTED[kind]
