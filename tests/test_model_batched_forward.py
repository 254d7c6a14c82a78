"""The batched ``TinyTransformer.forward`` against the per-row forward it replaced.

``reference_forward`` is the transformer's forward pass as it was when every
row of a batch was its own call, kept here as the reference: batching changes
no arithmetic, so every row must come out *equal in bits and dtype*, whatever
rows share its batch and in whatever order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.model import ForwardInput, LoraAdapter, get_model_config
from repro.model.transformer import KvContext, TinyTransformer

CONFIG = get_model_config("llama-sim-1b")
MODEL = TinyTransformer(CONFIG)
ADAPTERS = [None, LoraAdapter("a", CONFIG, rank=2, seed=1), LoraAdapter("b", CONFIG, rank=4, seed=2)]


# -- the replaced per-row forward -------------------------------------------------


def _reference_layer_norm(x, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def _reference_mask(pos_in, context, attn_mask):
    n_in, n_ctx = pos_in.shape[0], context.length
    total = n_ctx + n_in
    if attn_mask is not None:
        mask = np.asarray(attn_mask, dtype=bool).copy()
    else:
        key_positions = np.concatenate([context.positions, pos_in])
        mask = key_positions[None, :] <= pos_in[:, None]
        same_pos = key_positions[None, :] == pos_in[:, None]
        key_order = np.arange(total)
        query_order = n_ctx + np.arange(n_in)
        mask &= ~(same_pos & (key_order[None, :] > query_order[:, None]))
    if n_ctx:
        mask[:, :n_ctx] &= context.visible[None, :]
    return mask


def _reference_attention(q, keys, values, mask):
    n_in = q.shape[0]
    k_full = np.repeat(keys, CONFIG.gqa_group_size, axis=1)
    v_full = np.repeat(values, CONFIG.gqa_group_size, axis=1)
    scores = np.einsum("ihd,jhd->hij", q, k_full) / np.sqrt(CONFIG.d_head)
    neg = np.finfo(np.float32).min / 2
    scores = np.where(mask[None, :, :], scores, neg)
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    denom = weights.sum(axis=-1, keepdims=True)
    row_has_key = mask.any(axis=-1)[None, :, None]
    weights = np.where(row_has_key, weights / np.maximum(denom, 1e-9), 0.0)
    attn = np.einsum("hij,jhd->ihd", weights, v_full)
    return attn.reshape(n_in, CONFIG.d_model)


def reference_forward(model, row):
    x = np.asarray(row.embeds, dtype=np.float32)
    n_in = x.shape[0]
    pos_in = np.asarray(list(row.positions), dtype=np.int64)
    context = row.context if row.context is not None else KvContext.empty(CONFIG)
    mask = _reference_mask(pos_in, context, row.attn_mask)
    empty = np.zeros((0, CONFIG.n_kv_heads, CONFIG.d_head), dtype=np.float32)
    new_keys, new_values = [], []
    hidden = x
    for index, layer in enumerate(model.layers):
        normed = _reference_layer_norm(hidden)
        wq = layer.wq if row.adapter is None else row.adapter.apply_to_query(layer.wq, index)
        q = (normed @ wq).reshape(n_in, CONFIG.n_heads, CONFIG.d_head)
        k_new = (normed @ layer.wk).reshape(n_in, CONFIG.n_kv_heads, CONFIG.d_head)
        v_new = (normed @ layer.wv).reshape(n_in, CONFIG.n_kv_heads, CONFIG.d_head)
        new_keys.append(k_new)
        new_values.append(v_new)
        k_ctx = context.keys[index] if context.length else empty
        v_ctx = context.values[index] if context.length else empty
        keys = np.concatenate([k_ctx, k_new], axis=0)
        values = np.concatenate([v_ctx, v_new], axis=0)
        hidden = hidden + _reference_attention(q, keys, values, mask) @ layer.wo
        normed = _reference_layer_norm(hidden)
        hidden = hidden + np.maximum(normed @ layer.w1, 0.0) @ layer.w2
    hidden = _reference_layer_norm(hidden) * model.output_norm_gain
    return hidden, new_keys, new_values, pos_in


def assert_same_result(got, want):
    hidden, new_keys, new_values, positions = want
    assert got.hidden.dtype == hidden.dtype and got.hidden.shape == hidden.shape
    np.testing.assert_array_equal(got.hidden, hidden)
    for a, b in zip(got.new_keys + got.new_values, new_keys + new_values):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.positions, positions)
    assert got.positions.dtype == positions.dtype


# -- random rows --------------------------------------------------------------------


def make_row(rng, n_in, n_ctx, *, holes=False, explicit_mask=False, tied=False, adapter=None):
    shape = (n_ctx, CONFIG.n_kv_heads, CONFIG.d_head)
    context = None
    if n_ctx or rng.random() < 0.5:  # an empty context both ways: object and None
        visible = np.ones(n_ctx, dtype=bool)
        if holes:
            visible[rng.random(n_ctx) < 0.3] = False
        context = KvContext(
            keys=[rng.normal(size=shape).astype(np.float32) for _ in range(CONFIG.n_layers)],
            values=[rng.normal(size=shape).astype(np.float32) for _ in range(CONFIG.n_layers)],
            positions=np.sort(rng.integers(0, n_ctx + 3, size=n_ctx)).astype(np.int64),
            visible=visible,
        )
    start = n_ctx + int(rng.integers(0, 3))
    positions = [start] * n_in if tied else list(range(start, start + n_in))
    mask = rng.random((n_in, n_ctx + n_in)) < 0.6 if explicit_mask else None
    embeds = rng.normal(size=(n_in, CONFIG.d_model)).astype(np.float32)
    return ForwardInput(embeds, positions, context, mask, adapter)


row_specs = st.fixed_dictionaries(
    {
        # Mostly decode rows (n_in == 1), as in a serving batch; prefills of
        # equal and different lengths beside them.
        "n_in": st.one_of(st.just(1), st.integers(1, 6)),
        "n_ctx": st.one_of(st.just(0), st.integers(0, 70)),
        "holes": st.booleans(),
        "explicit_mask": st.sampled_from([False, False, True]),
        "tied": st.sampled_from([False, False, True]),
        "adapter": st.sampled_from([0, 0, 1, 2]),
    }
)


def build(specs, seed):
    rng = np.random.default_rng(seed)
    return [make_row(rng, **{**spec, "adapter": ADAPTERS[spec["adapter"]]}) for spec in specs]


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(row_specs, min_size=1, max_size=12), seed=st.integers(0, 2**16))
def test_every_row_of_a_batch_equals_its_own_per_row_forward(specs, seed):
    rows = build(specs, seed)
    for got, row in zip(MODEL.forward(rows), rows):
        assert_same_result(got, reference_forward(MODEL, row))


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(row_specs, min_size=2, max_size=10),
    seed=st.integers(0, 2**16),
    order=st.randoms(use_true_random=False),
)
def test_a_row_does_not_depend_on_its_batch_mates_or_their_order(specs, seed, order):
    """The solo-oracle property: alone, in the batch, and in the shuffled
    batch, a row produces the same bits."""
    rows = build(specs, seed)
    together = MODEL.forward(rows)
    shuffled = list(range(len(rows)))
    order.shuffle(shuffled)
    reordered = MODEL.forward([rows[i] for i in shuffled])
    for at, i in enumerate(shuffled):
        alone = MODEL.forward_row(
            rows[i].embeds, rows[i].positions, rows[i].context, rows[i].attn_mask, rows[i].adapter
        )
        for got in (together[i], reordered[at]):
            assert_same_result(got, (alone.hidden, alone.new_keys, alone.new_values, alone.positions))


def test_decode_batch_at_serving_shape_matches_per_row():
    """39 decode rows over contexts 0-259, some with ``visible`` holes."""
    rng = np.random.default_rng(5)
    rows = [
        make_row(rng, 1, int(n_ctx), holes=bool(i % 3 == 0))
        for i, n_ctx in enumerate(rng.integers(0, 260, size=39))
    ]
    for got, row in zip(MODEL.forward(rows), rows):
        assert_same_result(got, reference_forward(MODEL, row))


class _FoldedGemm:
    """A weight whose product folds the batch axis into the rows of one 2-D
    gemm — the obvious way to batch, and not the per-row product."""

    __array_ufunc__ = None  # ndarray @ this defers to __rmatmul__

    def __init__(self, weight):
        self.weight = weight

    def __rmatmul__(self, x):
        return (x.reshape(-1, x.shape[-1]) @ self.weight).reshape(*x.shape[:-1], -1)


def test_gemm_stacking_mutant_is_caught():
    rng = np.random.default_rng(9)
    rows = [make_row(rng, 1, 40) for _ in range(24)]
    stacked = np.concatenate([row.embeds for row in rows])
    if np.array_equal(
        stacked @ MODEL.layers[0].wk,
        np.concatenate([row.embeds @ MODEL.layers[0].wk for row in rows]),
    ):
        pytest.skip("this BLAS rounds a gemm like the per-row gemv")
    mutant = TinyTransformer(CONFIG)
    for layer in mutant.layers:
        layer.wk = _FoldedGemm(layer.wk)
    with pytest.raises(AssertionError):
        for got, row in zip(mutant.forward(rows), rows):
            assert_same_result(got, reference_forward(MODEL, row))
    # A batch of one folds nothing: the mutant is the real model there.
    assert_same_result(mutant.forward(rows[:1])[0], reference_forward(MODEL, rows[0]))


def test_dtypes_after_the_first_attention_are_float64():
    """The score scale is an ``np.float64`` scalar and the division by it is
    out of place, so NumPy-2 promotion makes the scores float64 — and with
    them ``hidden`` and every layer's K/V but the first.  Every generated
    token depends on this; if it fails after a numpy upgrade, promotion
    changed, not the model."""
    assert type(MODEL._score_scale) is np.float64
    result = MODEL.forward_row(np.ones((2, CONFIG.d_model), dtype=np.float32), [0, 1])
    assert result.hidden.dtype == np.float64
    assert [k.dtype for k in result.new_keys] == [np.float32] + [np.float64] * (CONFIG.n_layers - 1)
    assert [v.dtype for v in result.new_values] == [k.dtype for k in result.new_keys]


def test_a_bad_row_gets_its_own_error_and_fails_no_batch_mate():
    rng = np.random.default_rng(3)
    good = [make_row(rng, 1, 20), make_row(rng, 3, 5)]
    bad_mask = make_row(rng, 2, 4)
    bad_mask.attn_mask = np.ones((2, 99), dtype=bool)
    bad_shape = ForwardInput(np.zeros((2, 3), dtype=np.float32), [0, 1])
    bad_positions = ForwardInput(np.zeros((2, CONFIG.d_model), dtype=np.float32), [0])
    results = MODEL.forward([good[0], bad_mask, bad_shape, good[1], bad_positions])
    for at in (1, 2, 4):
        assert isinstance(results[at], ReproError)
    assert len({id(results[at]) for at in (1, 2, 4)}) == 3
    assert_same_result(results[0], reference_forward(MODEL, good[0]))
    assert_same_result(results[3], reference_forward(MODEL, good[1]))
    with pytest.raises(ReproError, match="mask shape"):
        MODEL.forward_row(bad_mask.embeds, bad_mask.positions, bad_mask.context, bad_mask.attn_mask)


def test_empty_batch():
    assert MODEL.forward([]) == []
