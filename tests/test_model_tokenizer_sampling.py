"""Tests for the tokenizer, sampling utilities, model configs and registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.model import (
    ByteTokenizer,
    ModelRegistry,
    MODEL_CONFIGS,
    get_model_config,
    greedy_sample,
    sample_from_dist,
    softmax,
    top_k_dist,
)
from repro.model.sampling import TokenDistribution, apply_repetition_penalty, top_k_dists


class TestTokenizer:
    def test_roundtrip_ascii(self):
        tok = ByteTokenizer()
        text = "Hello, world!"
        assert tok.decode(tok.encode(text)) == text

    def test_roundtrip_unicode(self):
        tok = ByteTokenizer()
        text = "héllo ✓ 世界"
        assert tok.decode(tok.encode(text)) == text

    def test_bos_eos(self):
        tok = ByteTokenizer()
        ids = tok.encode("hi", add_bos=True, add_eos=True)
        assert ids[0] == tok.BOS_TOKEN
        assert ids[-1] == tok.EOS_TOKEN
        assert tok.decode(ids) == "hi"

    def test_specials_render_as_tags(self):
        tok = ByteTokenizer()
        assert tok.decode_token(tok.EOS_TOKEN) == "<eos>"
        assert tok.decode_token(65) == "A"

    def test_vocab_size_and_listing(self):
        tok = ByteTokenizer()
        vocab = tok.get_vocab()
        assert len(vocab) == len(tok) == 259
        assert vocab[65] == b"A"
        assert vocab[256] == b"<bos>"

    def test_out_of_range_rejected(self):
        tok = ByteTokenizer()
        with pytest.raises(ReproError):
            tok.decode([300])

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ReproError):
            ByteTokenizer(vocab_size=10)

    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, text):
        tok = ByteTokenizer()
        assert tok.decode(tok.encode(text)) == text


class TestSampling:
    def test_softmax_sums_to_one(self):
        probs = softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert np.argmax(probs) == 2

    def test_softmax_temperature(self):
        logits = np.array([1.0, 2.0])
        sharp = softmax(logits, temperature=0.1)
        flat = softmax(logits, temperature=10.0)
        assert sharp[1] > flat[1]

    def test_softmax_invalid_temperature(self):
        with pytest.raises(ReproError):
            softmax(np.array([1.0]), temperature=0.0)

    def test_greedy(self):
        assert greedy_sample(np.array([0.1, 5.0, -2.0])) == 1

    def test_top_k_truncation(self):
        logits = np.random.default_rng(0).normal(size=300)
        dist = top_k_dist(logits, k=16)
        assert len(dist) == 16
        assert dist.truncated
        assert sum(dist.probs) == pytest.approx(1.0)
        assert dist.max_index() == int(np.argmax(logits))

    def test_top_k_larger_than_vocab(self):
        logits = np.array([0.0, 1.0, 2.0])
        dist = top_k_dist(logits, k=100)
        assert len(dist) == 3
        assert not dist.truncated

    def test_dist_sorted_descending(self):
        dist = top_k_dist(np.array([3.0, 1.0, 2.0]), k=3)
        assert list(dist.probs) == sorted(dist.probs, reverse=True)
        assert dist.token_ids[0] == 0

    def test_sample_respects_distribution(self):
        dist = TokenDistribution(token_ids=(7, 9), probs=(1.0, 0.0))
        rng = np.random.default_rng(0)
        assert all(sample_from_dist(dist, rng) == 7 for _ in range(20))

    def test_sample_empty_rejected(self):
        dist = TokenDistribution(token_ids=(), probs=())
        with pytest.raises(ReproError):
            sample_from_dist(dist, np.random.default_rng(0))

    def test_top_p_cutoff(self):
        dist = TokenDistribution(token_ids=(1, 2, 3), probs=(0.7, 0.2, 0.1))
        rng = np.random.default_rng(0)
        samples = {sample_from_dist(dist, rng, top_p=0.7) for _ in range(50)}
        assert samples == {1}

    def test_top_p_invalid(self):
        dist = TokenDistribution(token_ids=(1,), probs=(1.0,))
        with pytest.raises(ReproError):
            sample_from_dist(dist, np.random.default_rng(0), top_p=0.0)

    def test_restricted(self):
        dist = TokenDistribution(token_ids=(1, 2, 3), probs=(0.5, 0.3, 0.2))
        restricted = dist.restricted([2, 3])
        assert set(restricted.token_ids) == {2, 3}
        assert sum(restricted.probs) == pytest.approx(1.0)

    def test_restricted_empty(self):
        dist = TokenDistribution(token_ids=(1,), probs=(1.0,))
        assert len(dist.restricted([5])) == 0

    def test_prob_of_and_as_dict(self):
        dist = TokenDistribution(token_ids=(1, 2), probs=(0.6, 0.4))
        assert dist.prob_of(1) == pytest.approx(0.6)
        assert dist.prob_of(99) == 0.0
        assert dist.as_dict() == {1: pytest.approx(0.6), 2: pytest.approx(0.4)}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ReproError):
            TokenDistribution(token_ids=(1, 2), probs=(1.0,))

    def test_repetition_penalty(self):
        logits = np.array([2.0, -1.0, 3.0])
        adjusted = apply_repetition_penalty(logits, [0, 1], penalty=2.0)
        assert adjusted[0] == pytest.approx(1.0)
        assert adjusted[1] == pytest.approx(-2.0)
        assert adjusted[2] == pytest.approx(3.0)

    def test_repetition_penalty_invalid(self):
        with pytest.raises(ReproError):
            apply_repetition_penalty(np.array([1.0]), [0], penalty=0.0)

    @pytest.mark.parametrize("k", [0, -3, 2.5, None, "8"])
    def test_top_k_must_be_a_positive_integer(self, k):
        """``min(k, vocab)`` kept a negative ``k``, and ``argpartition(probs, 3)[3:]``
        is the *bottom* seven of ten tokens; ``k=0`` was the whole vocabulary
        flagged ``truncated``."""
        with pytest.raises(ReproError, match="top_k must be a positive integer"):
            top_k_dist(np.arange(10.0), k=k)
        with pytest.raises(ReproError, match="top_k must be a positive integer"):
            top_k_dists(np.arange(20.0).reshape(2, 10), k)

    def test_top_k_dist_is_the_one_row_call_of_the_batched_top_k(self):
        logits = np.random.default_rng(2).normal(size=(5, 40)).round(1)  # with ties
        for k, temperature in [(1, 1.0), (7, 0.5), (40, 2.0), (99, 1.0), (np.int64(3), 1.0)]:
            rows = top_k_dists(logits, k, temperature)
            assert rows == [top_k_dist(row, k, temperature) for row in logits]
            assert all(len(dist) == min(k, 40) and dist.truncated == (k < 40) for dist in rows)
        assert top_k_dists(logits[:0], 5) == []

    @given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_max_index_is_the_first_maximum(self, seed, size, tied):
        """Plain-Python first maximum, the answer ``np.argmax`` gave — also
        under ties, and for restricted (unsorted, renormalised) distributions."""
        rng = np.random.default_rng(seed)
        probs = rng.random(size).round(1) + 0.1 if tied else rng.random(size)
        dist = TokenDistribution(tuple(rng.permutation(size).tolist()), tuple(probs.tolist()))
        assert dist.max_index() == dist.token_ids[int(np.argmax(dist.probs))]
        allowed = rng.permutation(size)[: rng.integers(0, size + 1)].tolist()
        restricted = dist.restricted(allowed)
        if len(restricted):
            assert restricted.max_index() == restricted.token_ids[int(np.argmax(restricted.probs))]
        else:
            with pytest.raises(ReproError, match="empty distribution"):
                restricted.max_index()

    def test_max_index_builds_no_array(self, monkeypatch):
        """Every greedy token pays it: no 256-element tuple -> array conversion."""
        dist = top_k_dist(np.random.default_rng(0).normal(size=259), k=256)
        want = dist.token_ids[0]
        monkeypatch.setattr(np, "argmax", None)
        assert dist.max_index() == want

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_top_k_is_normalised_property(self, k, seed):
        logits = np.random.default_rng(seed).normal(size=259)
        dist = top_k_dist(logits, k=k)
        assert sum(dist.probs) == pytest.approx(1.0)
        assert len(dist) == min(k, 259)


class TestConfigsAndRegistry:
    def test_three_sizes_defined(self):
        assert set(MODEL_CONFIGS) == {"llama-sim-1b", "llama-sim-3b", "llama-sim-8b"}

    def test_tpot_calibration_matches_paper(self):
        assert get_model_config("llama-sim-1b").cost.decode_ms_base == pytest.approx(16.83)
        assert get_model_config("llama-sim-3b").cost.decode_ms_base == pytest.approx(30.30)
        assert get_model_config("llama-sim-8b").cost.decode_ms_base == pytest.approx(64.06)

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            get_model_config("gpt-5")

    def test_d_head_and_gqa(self):
        config = get_model_config("llama-sim-1b")
        assert config.d_head * config.n_heads == config.d_model
        assert config.n_heads % config.n_kv_heads == 0

    def test_registry_hosts_models(self):
        registry = ModelRegistry.with_default_models()
        assert len(registry) == 3
        entry = registry.get("llama-sim-1b")
        assert entry.supports_trait("Forward")
        assert not entry.supports_trait("InputImage")

    def test_registry_duplicate_rejected(self):
        registry = ModelRegistry(["llama-sim-1b"])
        with pytest.raises(ReproError):
            registry.add("llama-sim-1b")

    def test_registry_unknown_rejected(self):
        registry = ModelRegistry(["llama-sim-1b"])
        with pytest.raises(ReproError):
            registry.get("llama-sim-8b")
        assert "llama-sim-8b" not in registry

    def test_transformer_cached(self):
        registry = ModelRegistry(["llama-sim-1b"])
        entry = registry.get("llama-sim-1b")
        assert entry.transformer is entry.transformer
