"""The last layer attends only for the hidden states a ``forward`` reads.

``ParentTransformer`` carries the model's ``_Row``, ``_check_row``,
``_forward_group`` and ``_attention`` as they were when every layer attended
for every input token and the handler kept ``hidden[-len(oemb):]``, verbatim,
as the oracle: pruning the last layer changes no arithmetic of what is read,
so the read hidden states and the K/V of every layer and token must come out
*equal in bytes, shape and dtype* — alone, batched and shuffled, through the
handler on twin devices, and as the token streams of a small fleet.  Hand-made
mutants show the comparison has teeth, and a cost test shows the query-key
pairs that are no longer scored.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runners import make_pie_setup
from repro.core import InferletProgram
from repro.core.handlers import ApiHandlers
from repro.errors import ReproError
from repro.gpu import DeviceMemory, GpuConfig, KernelCostModel
from repro.model import ForwardInput, LoraAdapter, get_model_config
from repro.model import transformer as transformer_module
from repro.model.registry import ModelEntry
from repro.model.transformer import (
    _MASKED_SCORE,
    ForwardResult,
    KvContext,
    TinyTransformer,
    _layer_norm,
)
from repro.support import Context, SamplingParams
from tests import test_handlers_waves as waves
from tests.test_batched_handlers import assert_same_results

MODEL_NAME = "llama-sim-1b"
CONFIG = get_model_config(MODEL_NAME)
PAGE = CONFIG.kv_page_size
ADAPTER = LoraAdapter("tuned", CONFIG, rank=2, seed=4)


# -- the replaced model code ------------------------------------------------------


class ParentRow:
    """A validated row: float32 inputs, positions, context and its mask.

    ``mask`` is None when every query may attend to every key and
    ``has_key`` is None when every query has at least one visible key — the
    common decode row — so attention skips the two selects that would
    return their input unchanged.
    """

    __slots__ = ("index", "x", "positions", "context", "mask", "has_key")

    def __init__(self, index, x, positions, context, mask) -> None:
        self.index = index
        self.x = x
        self.positions = positions
        self.context = context if context is not None and context.length else None
        self.mask = self.has_key = None
        if not mask.all():
            self.mask = mask
            has_key = mask.any(axis=-1)
            if not has_key.all():
                self.has_key = has_key[None, :, None]


class ParentTransformer(TinyTransformer):
    """The model before this change: ``hidden`` of every input token is
    computed, and ``forward`` then keeps the rows that were asked for — what
    the handler's ``hidden[-len(oemb):]`` did."""

    def forward(self, rows):
        results = super().forward(rows)
        for row, result in zip(rows, results):
            if isinstance(result, ForwardResult) and row.n_outputs is not None:
                result.hidden = result.hidden[result.hidden.shape[0] - row.n_outputs :]
        return results

    def _check_row(self, index, row):
        x = np.asarray(row.embeds, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ReproError(f"forward: bad input embedding shape {x.shape}")
        positions = np.asarray(list(row.positions), dtype=np.int64)
        if positions.shape[0] != x.shape[0]:
            raise ReproError("forward: positions length must match input embeddings")
        mask = self._build_mask(positions, row.context, row.attn_mask)
        return ParentRow(index, x, positions, row.context, mask)

    def _forward_group(self, n_in, adapter, members, results):
        """The rows of one ``(n_in, adapter)`` group, stacked on axis 0."""
        config = self.config
        count = len(members)
        q_shape = (count, n_in, config.n_heads, config.d_head)
        kv_shape = (count, n_in, config.n_kv_heads, config.d_head)
        new_keys = []
        new_values = []
        hidden = np.stack([member.x for member in members])
        for layer_index, layer in enumerate(self.layers):
            normed = _layer_norm(hidden)
            q = (normed @ self._wq(layer, adapter, layer_index)).reshape(q_shape)
            k_new = (normed @ layer.wk).reshape(kv_shape)
            v_new = (normed @ layer.wv).reshape(kv_shape)
            new_keys.append(k_new)
            new_values.append(v_new)
            attn_out = np.stack(
                [
                    self._attention(member, layer_index, q[at], k_new[at], v_new[at])
                    for at, member in enumerate(members)
                ]
            )
            hidden = hidden + attn_out @ layer.wo
            normed = _layer_norm(hidden)
            hidden = hidden + np.maximum(normed @ layer.w1, 0.0) @ layer.w2
        hidden = _layer_norm(hidden) * self.output_norm_gain
        for at, member in enumerate(members):
            results[member.index] = ForwardResult(
                hidden=hidden[at],
                new_keys=[keys[at] for keys in new_keys],
                new_values=[values[at] for values in new_values],
                positions=member.positions,
            )

    def _attention(self, row, layer_index, q, k_new, v_new):
        """One row's attention over its context plus its own new tokens."""
        context = row.context
        if context is not None:
            k_new = np.concatenate([context.keys[layer_index], k_new], axis=0)
            v_new = np.concatenate([context.values[layer_index], v_new], axis=0)
        # Expand grouped KV heads to full head count.
        k_full = np.repeat(k_new, self._gqa_repeat, axis=1)  # (n_keys, n_heads, d_head)
        v_full = np.repeat(v_new, self._gqa_repeat, axis=1)
        # scores: (n_heads, n_in, n_keys); out of place, see ``forward``.
        scores = np.einsum("ihd,jhd->hij", q, k_full) / self._score_scale
        if row.mask is not None:
            scores = np.where(row.mask[None, :, :], scores, _MASKED_SCORE)
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores, out=scores)
        denom = weights.sum(axis=-1, keepdims=True)
        weights /= np.maximum(denom, 1e-9, out=denom)
        if row.has_key is not None:
            # Rows with no visible key at all produce a zero attention output.
            weights = np.where(row.has_key, weights, 0.0)
        attn = np.einsum("hij,jhd->ihd", weights, v_full)
        return attn.reshape(q.shape[0], self.config.d_model)


MODEL = TinyTransformer(CONFIG)
ORACLE = ParentTransformer(CONFIG)


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_result(got, want):
    """``want`` is the oracle's result for the same row: its ``hidden`` already
    cut to the rows the caller reads."""
    assert_same_bytes(got.hidden, want.hidden, "hidden")
    assert len(got.new_keys) == len(got.new_values) == CONFIG.n_layers
    for layer in range(CONFIG.n_layers):
        assert_same_bytes(got.new_keys[layer], want.new_keys[layer], f"keys of layer {layer}")
        assert_same_bytes(got.new_values[layer], want.new_values[layer], f"values of layer {layer}")
    assert_same_bytes(got.positions, want.positions, "positions")


# -- random rows ------------------------------------------------------------------


def make_row(rng, n_in, n_ctx, *, holes, positions, explicit_mask, adapter, reads):
    context = None
    if n_ctx or rng.random() < 0.5:  # an empty context both ways: object and None
        shape = (n_ctx, CONFIG.n_kv_heads, CONFIG.d_head)
        visible = np.ones(n_ctx, dtype=bool)
        if holes:
            visible[rng.random(n_ctx) < 0.3] = False
        context = KvContext(
            keys=[rng.normal(size=shape).astype(np.float32) for _ in range(CONFIG.n_layers)],
            values=[rng.normal(size=shape).astype(np.float32) for _ in range(CONFIG.n_layers)],
            # Unsorted and tied: a forked, re-filled context.
            positions=rng.integers(0, n_ctx + 3, size=n_ctx).astype(np.int64),
            visible=visible,
        )
    start = n_ctx + int(rng.integers(0, 3))
    own = np.arange(start, start + n_in)
    if positions == "tied":
        own = rng.integers(start, start + 3, size=n_in)
    if positions == "unsorted":
        own = rng.permutation(own)
    mask = None
    if explicit_mask:
        mask = rng.random((n_in, n_ctx + n_in)) < 0.6
        mask[rng.random(n_in) < 0.2] = False  # queries with no visible key at all
    n_outputs = {
        "all": None,
        "none": 0,
        "one": 1,
        "several": int(rng.integers(1, n_in + 1)),
        "every": n_in,
    }[reads]
    embeds = rng.normal(size=(n_in, CONFIG.d_model)).astype(np.float32)
    return ForwardInput(embeds, own.tolist(), context, mask, adapter, n_outputs)


row_specs = st.fixed_dictionaries(
    {
        # Few distinct lengths, so that rows which read different amounts
        # share an ``(n_in, adapter)`` group.
        "n_in": st.one_of(st.sampled_from([1, 1, 2, 5, 16]), st.integers(1, 96)),
        "n_ctx": st.one_of(st.just(0), st.integers(0, 160)),
        "holes": st.booleans(),
        "positions": st.sampled_from(["causal", "causal", "tied", "unsorted"]),
        "explicit_mask": st.sampled_from([False, False, True]),
        "adapter": st.sampled_from([None, None, ADAPTER]),
        "reads": st.sampled_from(["all", "none", "one", "several", "every"]),
    }
)


def build(specs, seed):
    rng = np.random.default_rng(seed)
    return [make_row(rng, **spec) for spec in specs]


def alone(model, row):
    return model.forward_row(
        row.embeds, row.positions, row.context, row.attn_mask, row.adapter, row.n_outputs
    )


@settings(max_examples=50, deadline=None)
@given(
    specs=st.lists(row_specs, min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
    order=st.randoms(use_true_random=False),
)
def test_every_row_equals_the_parent_alone_batched_and_shuffled(specs, seed, order):
    rows = build(specs, seed)
    want = [alone(ORACLE, row) for row in rows]
    for row, theirs in zip(rows, want):
        n_in = len(row.positions)
        assert theirs.hidden.shape[0] == (n_in if row.n_outputs is None else row.n_outputs)
        assert_same_result(alone(MODEL, row), theirs)
    for got, theirs in zip(MODEL.forward(rows), want):
        assert_same_result(got, theirs)
    shuffled = list(range(len(rows)))
    order.shuffle(shuffled)
    for at, got in zip(shuffled, MODEL.forward([rows[at] for at in shuffled])):
        assert_same_result(got, want[at])


def test_rows_of_one_group_that_read_different_amounts():
    """A 96-token prompt five times in one ``(n_in, adapter)`` group: read by
    nobody, for its last state, for several, for all — and the serving shapes
    of the issue (32 new tokens over 192 cached, a decode row) beside it."""
    rng = np.random.default_rng(12)
    spec = dict(holes=True, positions="causal", explicit_mask=False, adapter=None)
    rows = [
        make_row(rng, 96, 40, reads=reads, **spec)
        for reads in ("none", "one", "several", "every", "all")
    ]
    rows.append(make_row(rng, 32, 192, reads="one", **spec))
    rows.append(make_row(rng, 1, 150, reads="one", **spec))
    for got, row in zip(MODEL.forward(rows), rows):
        assert_same_result(got, alone(ORACLE, row))
    assert [r.hidden.shape[0] for r in MODEL.forward(rows)] == [0, 1, rows[2].n_outputs, 96, 96, 1, 1]


@pytest.mark.parametrize("n_outputs", [-1, 4, 2.0, "1"])
def test_a_bad_n_outputs_is_the_rows_own_error(n_outputs):
    rng = np.random.default_rng(2)
    spec = dict(holes=False, positions="causal", explicit_mask=False, adapter=None, reads="one")
    good = [make_row(rng, 3, 10, **spec), make_row(rng, 1, 20, **spec)]
    bad = make_row(rng, 3, 5, **spec)
    bad.n_outputs = n_outputs
    results = MODEL.forward([good[0], bad, good[1], bad])
    assert isinstance(results[1], ReproError) and "n_outputs" in str(results[1])
    assert isinstance(results[3], ReproError) and results[3] is not results[1]
    assert_same_result(results[0], alone(ORACLE, good[0]))
    assert_same_result(results[2], alone(ORACLE, good[1]))
    with pytest.raises(ReproError, match="n_outputs must be an integer in 0..3"):
        alone(MODEL, bad)


# -- through the handler, on twin devices ------------------------------------------


def entry_with(transformer):
    entry = ModelEntry(CONFIG)
    entry._transformer = transformer
    entry.register_adapter(ADAPTER)
    return entry


class Device(waves.Device):
    """``test_handlers_waves.Device`` over a chosen model."""

    def __init__(self, transformer, seed=0):
        self.memory = DeviceMemory(CONFIG, GpuConfig(num_kv_pages=48, num_embed_slots=512))
        self.handlers = ApiHandlers(entry_with(transformer), self.memory, KernelCostModel(CONFIG))
        self.rng = np.random.default_rng(seed)


command_specs = st.fixed_dictionaries(
    {
        "n_ctx": st.sampled_from([0, 0, 3, PAGE, PAGE + 5]),
        "n_in": st.one_of(st.sampled_from([1, 1, 2, 7]), st.integers(1, 40)),
        # 0 is a chunked-prefill head slice: it reads no hidden state.
        "n_out": st.sampled_from([0, 1, 1, 3, 10**6]),
        "mask": st.booleans(),
        "adapter": st.sampled_from([None, None, "tuned"]),
        "flaw": st.sampled_from([None] * 6 + ["mask", "page", "oemb", "slot", "adapter"]),
    }
)


def build_commands(device, specs):
    """``(prefills, commands)``: the batch that fills every command's context
    pages, and the batch under test, which appends to them."""
    prefills, commands = [], []
    for spec in specs:
        n_ctx, n_in = spec["n_ctx"], spec["n_in"]
        pages = device.pages(3)
        if n_ctx:
            prefills.append(
                waves.forward(ikv=[], iemb=device.embeds(list(range(n_ctx))), okv=pages,
                              okv_offset=0, oemb=[])
            )  # fmt: skip
        payload = dict(
            ikv=pages,
            iemb=device.embeds(list(range(n_ctx, n_ctx + n_in))),
            okv=pages,
            okv_offset=None,
            oemb=device.slots(min(spec["n_out"], n_in)),
        )
        if spec["mask"]:
            payload["mask"] = (device.rng.random((n_in, n_ctx + n_in)) < 0.7).tolist()
        if spec["adapter"]:
            payload["adapter"] = spec["adapter"]
        flaw = spec["flaw"]
        if flaw == "mask":
            payload["mask"] = [[True] * (n_ctx + n_in + 1)] * n_in
        if flaw == "page":
            payload["ikv"] = pages + [47]  # never allocated
        if flaw == "oemb":
            payload["oemb"] = device.slots(n_in + 1)
        if flaw == "slot":
            payload["oemb"] = [511]  # never allocated
        if flaw == "adapter":
            payload["adapter"] = "nope"
        commands.append(waves.forward(**payload))
    return prefills, commands


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(command_specs, min_size=1, max_size=8), seed=st.integers(0, 2**16))
def test_forward_batches_equal_the_parent_model_on_a_twin_device(specs, seed):
    pruned, parent = Device(MODEL, seed), Device(ORACLE, seed)
    for mine, theirs in zip(build_commands(pruned, specs), build_commands(parent, specs)):
        assert_same_results(pruned.run(mine), parent.run(theirs))
        waves.assert_same_memory(pruned, parent)


def test_head_slices_mixed_reads_and_a_bad_row_in_the_middle():
    specs = [
        dict(n_ctx=PAGE + 5, n_in=24, n_out=1, mask=False, adapter=None, flaw=None),
        dict(n_ctx=0, n_in=24, n_out=0, mask=False, adapter=None, flaw=None),  # head slice
        dict(n_ctx=3, n_in=24, n_out=3, mask=True, adapter=None, flaw=None),
        dict(n_ctx=3, n_in=24, n_out=1, mask=False, adapter=None, flaw="mask"),
        dict(n_ctx=0, n_in=2, n_out=10**6, mask=False, adapter=None, flaw="oemb"),
        dict(n_ctx=3, n_in=24, n_out=24, mask=False, adapter=None, flaw=None),
        dict(n_ctx=PAGE, n_in=1, n_out=1, mask=False, adapter="tuned", flaw=None),
        dict(n_ctx=0, n_in=24, n_out=0, mask=True, adapter="tuned", flaw=None),
    ]
    pruned, parent = Device(MODEL), Device(ORACLE)
    (prefills, commands), (same_prefills, same_commands) = (
        build_commands(pruned, specs),
        build_commands(parent, specs),
    )
    assert_same_results(pruned.run(prefills), parent.run(same_prefills))
    results = pruned.run(commands)
    assert_same_results(results, parent.run(same_commands))
    waves.assert_same_memory(pruned, parent)
    assert [r if isinstance(r, int) else type(r).__name__ for r in results] == [
        24, 24, 24, "ReproError", "ResourceError", 24, 1, 24,
    ]  # fmt: skip
    assert "mask shape" in str(results[3])
    # The handler's own check stays in front of the model's.
    assert "more output embeddings than input tokens" in str(results[4])
    # Nothing of the bad rows was written: their pages hold the prefill only.
    store = pruned.memory.kv_pages
    assert int(store.valid[commands[3].payload["okv"]].sum()) == 3
    assert int(store.valid[commands[4].payload["okv"]].sum()) == 0


# -- a small fleet ----------------------------------------------------------------

PROMPTS = [
    "System: you answer in very few words. User: what is a paged KV cache? ",
    "System: you answer in very few words. User: name one thing a program may skip. ",
    "Short one. ",
]


def fleet_tokens(transformer_class, **overrides):
    sim, server = make_pie_setup(seed=5, with_tools=False, **overrides)
    server.registry.get(MODEL_NAME)._transformer = transformer_class(CONFIG)

    def program(index, prompt):
        async def main(ctx):
            context = Context(ctx, sampling=SamplingParams())
            await context.fill(prompt)
            await context.generate_until(max_tokens=3)
            await context.fill(" Tool result: 42. ")
            await context.generate_until(max_tokens=2 + index)
            context.free()
            return list(context.generated_ids)

        return InferletProgram(name=f"reads{index}", main=main, prefix_hint=prompt[:40])

    programs = [program(index, prompt) for index, prompt in enumerate(PROMPTS)]
    for each in programs:
        server.register_program(each)
    results = sim.run_until_complete(
        sim.gather([sim.create_task(server.run_inferlet(each.name)) for each in programs])
    )
    sim.run()
    assert [result.status for result in results] == ["finished"] * len(programs)
    return [result.result for result in results], sim.now


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(chunked_prefill=True, prefill_chunk_tokens=16, max_batch_tokens=24),
        dict(prefix_cache=True),
    ],
    ids=["plain", "chunked_prefill", "prefix_cache"],
)
def test_a_fleets_token_streams_equal_the_parent_models(overrides):
    tokens, finished_at = fleet_tokens(TinyTransformer, **overrides)
    assert (tokens, finished_at) == fleet_tokens(ParentTransformer, **overrides)
    assert [len(stream) for stream in tokens] == [5, 6, 7]


# -- mutants ----------------------------------------------------------------------


def mutant_model(*replacements):
    """The model with pieces of ``model/transformer.py`` replaced."""
    source = inspect.getsource(transformer_module)
    for old, new in replacements:
        assert source.count(old) == 1, f"mutation site not found exactly once: {old!r}"
        source = source.replace(old, new)
    namespace = {"__name__": transformer_module.__name__}
    exec(compile(source, transformer_module.__file__, "exec"), namespace)
    return namespace["TinyTransformer"](CONFIG)


def mutant_cases():
    """Prompts that read their last state, or several: a fixed list, since on
    a single case a wrong computation can coincide with the right one."""
    rng = np.random.default_rng(21)
    spec = dict(holes=True, positions="causal", adapter=None)
    return [
        make_row(rng, n_in, n_ctx, explicit_mask=explicit, reads=reads, **spec)
        for n_in, n_ctx in [(2, 0), (7, 30), (24, 0), (32, 192), (96, 16)]
        for explicit in (False, True)
        for reads in ("one", "several")
    ]


def check_cases(model):
    for row in mutant_cases():
        assert_same_result(alone(model, row), alone(ORACLE, row))


def test_the_mutant_cases_pass_on_the_real_model():
    check_cases(MODEL)
    assert any(row.n_outputs not in (1, len(row.positions)) for row in mutant_cases())


def test_mutant_pruning_layer_0_is_killed():
    """Layer 1's K/V and queries come from the hidden state after layer 0,
    which needs layer 0's attention for *every* token."""
    mutant = mutant_model(("last = layer is self.layers[-1]", "last = layer is self.layers[0]"))
    with pytest.raises(AssertionError, match="hidden|of layer 1"):
        check_cases(mutant)


def test_mutant_shrinking_the_dense_tail_to_the_read_rows_is_killed():
    """``attn_out @ wo``, the norms and the MLP on the read rows alone: the
    same mathematics through a different BLAS call (a gemv, or a smaller
    gemm), which rounds differently."""
    wide = np.random.default_rng(3).normal(size=(96, CONFIG.d_model))
    weight = MODEL.layers[-1].wo
    if all(np.array_equal((wide @ weight)[-n:], wide[-n:] @ weight) for n in (1, 3, 17)):
        pytest.skip("this BLAS rounds a gemm's rows like the smaller product")
    mutant = mutant_model(
        (
            "            hidden = hidden + attn_out @ layer.wo\n",
            "            if last:\n"
            "                cut = min(member.read.first for member in members)\n"
            "                hidden, attn_out = hidden[:, cut:], attn_out[:, cut:]\n"
            "            hidden = hidden + attn_out @ layer.wo\n",
        ),
        ("hidden=hidden[at, member.read.first :]", "hidden=hidden[at, member.read.first - cut :]"),
    )
    with pytest.raises(AssertionError, match="hidden"):
        check_cases(mutant)
    # A row that reads everything shrinks nothing: the mutant is the real model there.
    (row,) = build([dict(n_in=9, n_ctx=20, holes=False, positions="causal", explicit_mask=False,
                         adapter=None, reads="every")], seed=1)  # fmt: skip
    assert_same_result(alone(mutant, row), alone(ORACLE, row))


def test_mutant_slicing_the_queries_one_row_off_is_killed():
    mutant = mutant_model(("q[at, first:]", "q[at, first - 1 : n_in - 1] if last else q[at]"))
    with pytest.raises(AssertionError, match="hidden"):
        check_cases(mutant)


def test_mutant_forgetting_to_slice_the_mask_is_killed():
    """Every mask row against the read queries' scores does not broadcast; the
    quiet form of the bug — the mask rows of the *first* queries, which do —
    gives other hidden states."""
    with pytest.raises(ValueError):
        check_cases(mutant_model(("        mask = mask[first:]\n", "")))
    mutant = mutant_model(("mask = mask[first:]", "mask = mask[: mask.shape[0] - first]"))
    with pytest.raises(AssertionError, match="hidden"):
        check_cases(mutant)


# -- cost: query-key pairs scored ---------------------------------------------------


def scored(monkeypatch, rows):
    """``(layer, queries, keys)`` of every attention call ``rows`` cause."""
    calls = []
    real = TinyTransformer._attention

    def counted(self, context, queries, layer_index, q, k_new, v_new):
        n_keys = k_new.shape[0] + (context.length if context is not None else 0)
        calls.append((layer_index, q.shape[0], n_keys))
        return real(self, context, queries, layer_index, q, k_new, v_new)

    monkeypatch.setattr(TinyTransformer, "_attention", counted)
    results = MODEL.forward(rows)
    monkeypatch.undo()
    assert not any(isinstance(result, Exception) for result in results)
    return calls


def test_a_prompt_scores_its_read_queries_only_in_the_last_layer(monkeypatch):
    rng = np.random.default_rng(4)
    spec = dict(holes=False, positions="causal", explicit_mask=False, adapter=None)
    prompt = lambda reads: [make_row(rng, 96, 0, reads=reads, **spec)]  # noqa: E731
    assert scored(monkeypatch, prompt("one")) == [(0, 96, 96), (1, 1, 96)]
    assert scored(monkeypatch, prompt("none")) == [(0, 96, 96)]
    assert scored(monkeypatch, prompt("all")) == [(0, 96, 96), (1, 96, 96)]  # the parent, always
    # 32 new tokens over 192 cached (a fork's task), and a decode row: as before.
    assert scored(monkeypatch, [make_row(rng, 32, 192, reads="one", **spec)]) == [
        (0, 32, 224),
        (1, 1, 224),
    ]
    assert scored(monkeypatch, [make_row(rng, 1, 150, reads="one", **spec)]) == [
        (0, 1, 151),
        (1, 1, 151),
    ]


def test_the_last_query_of_a_causal_prompt_skips_both_selects():
    """The flags are decided on the queries the last layer runs: the last
    query of a causal prompt sees every key, so its attention selects nothing."""
    rng = np.random.default_rng(6)
    spec = dict(holes=False, positions="causal", explicit_mask=False, adapter=None)
    row = MODEL._check_row(0, make_row(rng, 16, 8, reads="one", **spec))
    assert row.every.mask is not None and row.every.first == 0
    assert (row.read.first, row.read.mask, row.read.has_key) == (15, None, None)
    everything = MODEL._check_row(0, make_row(rng, 16, 8, reads="all", **spec))
    assert everything.read is everything.every
