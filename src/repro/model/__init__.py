"""Toy transformer model substrate.

The paper serves Llama 3 models (1B/3B/8B) on an NVIDIA L4 GPU.  This
package provides a small, deterministic, numpy-only transformer whose
mathematics are the real thing — token embedding with positional encoding,
multi-head (grouped-query) attention over a paged KV cache with explicit
position-based or boolean masks, an MLP block, logits and sampling — while a
separate kernel *cost model* (see :mod:`repro.gpu.kernels`) accounts for the
time those operations would take on the paper's hardware for each model
size.

Splitting value-correctness (here) from timing (cost model) lets the test
suite verify KV-cache semantics numerically and lets the benchmarks
reproduce the paper's performance shapes without a GPU.
"""

from repro.model.config import CostParams, ModelConfig, MODEL_CONFIGS, get_model_config
from repro.model.tokenizer import ByteTokenizer
from repro.model.transformer import ForwardInput, ForwardResult, KvContext, TinyTransformer
from repro.model.sampling import (
    greedy_sample,
    sample_from_dist,
    softmax,
    top_k_dist,
    TokenDistribution,
)
from repro.model.lora import LoraAdapter
from repro.model.registry import ModelRegistry

__all__ = [
    "CostParams",
    "ModelConfig",
    "MODEL_CONFIGS",
    "get_model_config",
    "ByteTokenizer",
    "ForwardInput",
    "ForwardResult",
    "KvContext",
    "TinyTransformer",
    "TokenDistribution",
    "greedy_sample",
    "sample_from_dist",
    "softmax",
    "top_k_dist",
    "LoraAdapter",
    "ModelRegistry",
]
