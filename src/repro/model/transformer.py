"""A small, deterministic transformer with paged-KV-friendly forward passes.

The class implements the three stages the Pie API exposes:

* :meth:`TinyTransformer.embed_tokens` — the ``embed_txt`` handler.
* :meth:`TinyTransformer.forward` — the ``forward`` handler: for every row
  of a batch (input embeddings with explicit positions plus a gathered KV
  context), compute the output hidden states the caller reads and the new
  per-layer K/V for the input tokens.  :meth:`TinyTransformer.forward_row`
  is the batch of one.
* :meth:`TinyTransformer.logits` — the ``get_next_dist`` handler.

The math is ordinary pre-norm multi-head attention with grouped-query KV
heads and a two-layer MLP.  What matters for the reproduction is that K/V
computed in one forward call and re-used in a later call produce *exactly*
the same outputs as a single fused call — the property the paper's paged KV
cache relies on — and that position-based causal masks, explicit boolean
masks and token-level cache masking all behave as documented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.model.config import ModelConfig
from repro.model.positional import sinusoidal_positions
from repro.model.lora import LoraAdapter


@dataclass
class KvContext:
    """Per-layer keys/values gathered from KV pages for one forward call.

    ``positions`` and ``visible`` are shared across layers: entry *i*
    describes the *i*-th gathered context token.  ``visible`` is False for
    tokens masked out with ``mask_kvpage`` (they are still resident in the
    cache but must not be attended to).
    """

    keys: List[np.ndarray] = field(default_factory=list)
    values: List[np.ndarray] = field(default_factory=list)
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    visible: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @classmethod
    def empty(cls, config: ModelConfig) -> "KvContext":
        shape = (0, config.n_kv_heads, config.d_head)
        return cls(
            keys=[np.zeros(shape, dtype=np.float32) for _ in range(config.n_layers)],
            values=[np.zeros(shape, dtype=np.float32) for _ in range(config.n_layers)],
            positions=np.zeros(0, dtype=np.int64),
            visible=np.zeros(0, dtype=bool),
        )

    @property
    def length(self) -> int:
        return int(self.positions.shape[0])


@dataclass
class ForwardResult:
    """Output of a forward call.

    ``hidden`` holds the final-layer hidden states that were asked for — of
    the last ``n_outputs`` input tokens, in input order;
    ``new_keys``/``new_values`` hold the per-layer K/V of *every* input
    token, ready to be written into KV pages.
    """

    hidden: np.ndarray
    new_keys: List[np.ndarray]
    new_values: List[np.ndarray]
    positions: np.ndarray


class _LayerWeights:
    """Weights for one transformer block (created deterministically)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        d = config.d_model
        kv_dim = config.n_kv_heads * config.d_head
        scale = 1.0 / np.sqrt(d)
        self.wq = rng.normal(0.0, scale, size=(d, d)).astype(np.float32)
        self.wk = rng.normal(0.0, scale, size=(d, kv_dim)).astype(np.float32)
        self.wv = rng.normal(0.0, scale, size=(d, kv_dim)).astype(np.float32)
        self.wo = rng.normal(0.0, scale, size=(d, d)).astype(np.float32)
        self.w1 = rng.normal(0.0, scale, size=(d, config.d_ff)).astype(np.float32)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(config.d_ff), size=(config.d_ff, d)).astype(
            np.float32
        )


#: Score given to masked keys.  A float32 scalar: ``np.where`` promotes it to
#: the scores' dtype.
_MASKED_SCORE = np.finfo(np.float32).min / 2


def _layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """``(x - mean) / sqrt(var + eps)`` over the last axis: the sums
    ``ndarray.mean`` / ``.var`` make, with ``x - mean`` computed once."""
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= n
    var += eps
    return centered / np.sqrt(var, out=var)


@dataclass
class ForwardInput:
    """One row of a forward batch: the arguments of one ``forward`` command.

    ``attn_mask`` (if given) is a boolean matrix of shape
    ``(n_inputs, n_context + n_inputs)``; True means the query may attend
    to that key.  Without it, a causal mask is inferred from positions.
    Tokens masked at the cache level (``context.visible == False``) are
    never attended to, regardless of the explicit mask.

    ``n_outputs`` is how many trailing hidden states the caller reads (the
    ``oemb`` of the command): ``ForwardResult.hidden`` holds exactly those.
    None means all of them.
    """

    embeds: np.ndarray
    positions: Sequence[int]
    context: Optional[KvContext] = None
    attn_mask: Optional[np.ndarray] = None
    adapter: Optional[LoraAdapter] = None
    n_outputs: Optional[int] = None


class _Queries:
    """The queries ``first:`` of a row and the keys they may see.

    ``mask`` is None when each of them may attend to every key and
    ``has_key`` is None when each has at least one visible key — a decode
    row, or the last query of a causal prompt — so attention skips the two
    selects that would return their input unchanged.
    """

    __slots__ = ("first", "mask", "has_key")

    def __init__(self, first: int, mask: np.ndarray) -> None:
        self.first = first
        self.mask = self.has_key = None
        mask = mask[first:]
        if not mask.all():
            self.mask = mask
            has_key = mask.any(axis=-1)
            if not has_key.all():
                self.has_key = has_key[None, :, None]


class _Row:
    """A validated row: float32 inputs, positions, context, and its queries —
    ``every`` one of them, which all layers but the last attend for, and the
    ones whose hidden state is ``read``, which the last layer attends for."""

    __slots__ = ("index", "x", "positions", "context", "every", "read")

    def __init__(self, index, x, positions, context, mask, n_outputs) -> None:
        self.index = index
        self.x = x
        self.positions = positions
        self.context = context if context is not None and context.length else None
        self.every = _Queries(0, mask)
        n_in = x.shape[0]
        self.read = self.every if n_outputs == n_in else _Queries(n_in - n_outputs, mask)


class TinyTransformer:
    """Deterministic numpy transformer used by the simulated inference layer."""

    def __init__(self, config: ModelConfig, seed: Optional[int] = None) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        d = config.d_model
        self.token_embedding = rng.normal(0.0, 0.5, size=(config.vocab_size, d)).astype(
            np.float32
        )
        self.layers = [_LayerWeights(config, rng) for _ in range(config.n_layers)]
        self.output_norm_gain = np.ones(d, dtype=np.float32)
        # An ``np.float64`` scalar, on purpose: see :meth:`forward`.
        self._score_scale = np.sqrt(config.d_head)
        self._gqa_repeat = config.gqa_group_size

    # -- embed stage -------------------------------------------------------

    def embed_tokens(self, token_ids: Sequence[int], positions: Sequence[int]) -> np.ndarray:
        """Embed token ids at explicit positions (the ``embed_txt`` handler)."""
        tokens = np.asarray(list(token_ids), dtype=np.int64)
        pos = list(positions)
        if tokens.shape[0] != len(pos):
            raise ReproError(
                f"embed_tokens: {tokens.shape[0]} tokens but {len(pos)} positions"
            )
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ReproError("embed_tokens: token id outside the vocabulary")
        embeds = self.token_embedding[tokens]
        return embeds + sinusoidal_positions(pos, self.config.d_model)

    def check_token_ids(self, token_ids: Sequence[int]) -> None:
        """Raise unless every id is in the vocabulary.  Plain Python: it is
        what a batch-wide ``embed_txt`` handler runs per command to find whose
        ids are bad, before one :meth:`embed_tokens` for the batch."""
        if token_ids and not (0 <= min(token_ids) and max(token_ids) < self.config.vocab_size):
            raise ReproError("embed_tokens: token id outside the vocabulary")

    def embed_image(self, blob: bytes, n_slots: int, positions: Sequence[int]) -> np.ndarray:
        """Deterministic pseudo-embedding of an image blob (``embed_img``)."""
        digest = np.frombuffer(
            np.asarray(bytearray(blob or b"\x00")), dtype=np.uint8
        ).astype(np.float32)
        seed = int(digest.sum()) % (2**31)
        rng = np.random.default_rng(seed)
        base = rng.normal(0.0, 0.5, size=(n_slots, self.config.d_model)).astype(np.float32)
        return base + sinusoidal_positions(positions, self.config.d_model)

    def num_image_embeds_needed(self, image_size: int) -> int:
        """Number of embedding slots an image of ``image_size`` bytes needs."""
        patch_bytes = 1024
        return max(1, (image_size + patch_bytes - 1) // patch_bytes)

    # -- forward stage -------------------------------------------------------

    def forward(
        self, rows: Sequence[ForwardInput]
    ) -> List[Union[ForwardResult, ReproError]]:
        """Run the transformer over every row of a batch, in one call.

        Returns one entry per row, in row order: a :class:`ForwardResult`, or
        the :class:`ReproError` the row failed validation with — rows of
        unrelated inferlets share a batch, so a bad row never fails another.

        A row's result is bit-identical whatever its batch-mates are.  Rows
        with the same input length and adapter go through the layer norms and
        the dense projections *stacked*, ``(rows, n_in, d) @ W``: numpy's
        matmul runs that as one ``(n_in, d) @ W`` BLAS call per row, the call
        a lone row makes.  (Flattening the rows into one ``(rows * n_in, d)``
        gemm would not be: it rounds differently from the per-row gemv.)
        Masks and attention are per row, and the last layer attends only for
        the queries whose hidden state the row reads (``n_outputs``): nothing
        else depends on that layer's attention.  K/V are computed for every
        token of every layer.

        Dtypes: the score scale ``sqrt(d_head)`` is an ``np.float64`` scalar
        and the division by it is out of place, so under NumPy 2 promotion
        the scores — and everything downstream of the first attention: the
        returned ``hidden`` and the K/V of every layer but the first — are
        float64, narrowed to float32 only when stored in a KV page or embed
        slot.  Every generated token depends on this; an in-place division
        (float32 scores) changes all of them.
        """
        results: List[Union[ForwardResult, ReproError, None]] = [None] * len(rows)
        groups: Dict[Tuple[int, Optional[LoraAdapter]], List[_Row]] = {}
        for index, row in enumerate(rows):
            try:
                checked = self._check_row(index, row)
            except ReproError as exc:
                results[index] = exc
                continue
            groups.setdefault((checked.x.shape[0], row.adapter), []).append(checked)
        for (n_in, adapter), members in groups.items():
            self._forward_group(n_in, adapter, members, results)
        return results

    def forward_row(
        self,
        input_embeds: np.ndarray,
        positions: Sequence[int],
        context: Optional[KvContext] = None,
        attn_mask: Optional[np.ndarray] = None,
        adapter: Optional[LoraAdapter] = None,
        n_outputs: Optional[int] = None,
    ) -> ForwardResult:
        """:meth:`forward` for a single row; raises what the row failed with."""
        (result,) = self.forward(
            [ForwardInput(input_embeds, positions, context, attn_mask, adapter, n_outputs)]
        )
        if isinstance(result, ReproError):
            raise result
        return result

    def _check_row(self, index: int, row: ForwardInput) -> _Row:
        x = np.asarray(row.embeds, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ReproError(f"forward: bad input embedding shape {x.shape}")
        positions = np.asarray(list(row.positions), dtype=np.int64)
        if positions.shape[0] != x.shape[0]:
            raise ReproError("forward: positions length must match input embeddings")
        n_in = x.shape[0]
        n_outputs = n_in if row.n_outputs is None else row.n_outputs
        if not (isinstance(n_outputs, (int, np.integer)) and 0 <= n_outputs <= n_in):
            raise ReproError(
                f"forward: n_outputs must be an integer in 0..{n_in}, not {row.n_outputs!r}"
            )
        mask = self._build_mask(positions, row.context, row.attn_mask)
        return _Row(index, x, positions, row.context, mask, n_outputs)

    def _forward_group(
        self,
        n_in: int,
        adapter: Optional[LoraAdapter],
        members: List[_Row],
        results: List,
    ) -> None:
        """The rows of one ``(n_in, adapter)`` group, stacked on axis 0.

        The last layer's attention feeds nothing but the final hidden states,
        so it runs for the queries a row reads and leaves zeros for the rest:
        ``attn_out`` keeps its shape, the dense products and norms after it
        make the BLAS calls they always made — a gemm's output row depends on
        its own input row only, so the read rows keep their bits — and the
        unread rows, now meaningless, are not returned.
        """
        config = self.config
        count = len(members)
        q_shape = (count, n_in, config.n_heads, config.d_head)
        kv_shape = (count, n_in, config.n_kv_heads, config.d_head)
        new_keys: List[np.ndarray] = []
        new_values: List[np.ndarray] = []
        hidden = np.stack([member.x for member in members])
        for layer_index, layer in enumerate(self.layers):
            normed = _layer_norm(hidden)
            q = (normed @ self._wq(layer, adapter, layer_index)).reshape(q_shape)
            k_new = (normed @ layer.wk).reshape(kv_shape)
            v_new = (normed @ layer.wv).reshape(kv_shape)
            new_keys.append(k_new)
            new_values.append(v_new)
            last = layer is self.layers[-1]
            attn_out = np.zeros((count, n_in, config.d_model))
            for at, member in enumerate(members):
                queries = member.read if last else member.every
                first = queries.first
                if first < n_in:
                    attn_out[at, first:] = self._attention(
                        member.context, queries, layer_index, q[at, first:], k_new[at], v_new[at]
                    )
            hidden = hidden + attn_out @ layer.wo
            normed = _layer_norm(hidden)
            hidden = hidden + np.maximum(normed @ layer.w1, 0.0) @ layer.w2
        hidden = _layer_norm(hidden) * self.output_norm_gain
        for at, member in enumerate(members):
            results[member.index] = ForwardResult(
                hidden=hidden[at, member.read.first :],
                new_keys=[keys[at] for keys in new_keys],
                new_values=[values[at] for values in new_values],
                positions=member.positions,
            )

    def _wq(
        self, layer: _LayerWeights, adapter: Optional[LoraAdapter], layer_index: int
    ) -> np.ndarray:
        if adapter is None:
            return layer.wq
        return adapter.apply_to_query(layer.wq, layer_index)

    def _build_mask(
        self,
        pos_in: np.ndarray,
        context: Optional[KvContext],
        attn_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        n_in = pos_in.shape[0]
        n_ctx = context.length if context is not None else 0
        total = n_ctx + n_in
        if attn_mask is not None:
            mask = np.asarray(attn_mask, dtype=bool)
            if mask.shape != (n_in, total):
                raise ReproError(
                    f"forward: explicit mask shape {mask.shape} != ({n_in}, {total})"
                )
            mask = mask.copy()
        elif n_in == 1:
            # A decode row: the one query comes last in key order, so ties
            # need no breaking and it always sees itself.
            mask = np.ones((1, total), dtype=bool)
            if n_ctx:
                np.less_equal(context.positions, pos_in[0], out=mask[0, :n_ctx])
        else:
            key_positions = (
                np.concatenate([context.positions, pos_in]) if n_ctx else pos_in
            )
            mask = key_positions[None, :] <= pos_in[:, None]
            # Within the same call, later inputs may not attend to earlier
            # inputs that share a position (ties broken by input order).
            same_pos = key_positions[None, :] == pos_in[:, None]
            key_order = np.arange(total)
            query_order = n_ctx + np.arange(n_in)
            mask &= ~(same_pos & (key_order[None, :] > query_order[:, None]))
        if n_ctx:
            mask[:, :n_ctx] &= context.visible[None, :]
        return mask

    def _attention(
        self,
        context: Optional[KvContext],
        queries: _Queries,
        layer_index: int,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
    ) -> np.ndarray:
        """Attention of some of a row's queries (``q`` holds theirs) over its
        context plus its own new tokens."""
        if context is not None:
            k_new = np.concatenate([context.keys[layer_index], k_new], axis=0)
            v_new = np.concatenate([context.values[layer_index], v_new], axis=0)
        # Expand grouped KV heads to full head count.
        k_full = np.repeat(k_new, self._gqa_repeat, axis=1)  # (n_keys, n_heads, d_head)
        v_full = np.repeat(v_new, self._gqa_repeat, axis=1)
        # scores: (n_heads, n_queries, n_keys); out of place, see ``forward``.
        scores = np.einsum("ihd,jhd->hij", q, k_full) / self._score_scale
        if queries.mask is not None:
            scores = np.where(queries.mask[None, :, :], scores, _MASKED_SCORE)
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores, out=scores)
        denom = weights.sum(axis=-1, keepdims=True)
        weights /= np.maximum(denom, 1e-9, out=denom)
        if queries.has_key is not None:
            # Queries with no visible key at all produce a zero attention output.
            weights = np.where(queries.has_key, weights, 0.0)
        attn = np.einsum("hij,jhd->ihd", weights, v_full)
        return attn.reshape(q.shape[0], self.config.d_model)

    # -- sample stage --------------------------------------------------------

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project hidden states onto the vocabulary (tied embeddings): one
        vector, ``(n, d_model)`` rows, or a ``(commands, n, d_model)`` stack,
        which numpy multiplies one ``(n, d_model)`` matrix at a time — each
        command's logits are the bits it would get alone."""
        hidden = np.asarray(hidden, dtype=np.float32)
        if hidden.ndim == 1:
            hidden = hidden[None, :]
        return hidden @ self.token_embedding.T
