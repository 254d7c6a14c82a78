"""Model configurations and per-size kernel cost parameters.

The toy transformer uses the same (small) tensor dimensions for every model
size — the systems behaviour the paper studies does not depend on hidden
dimension, only on how long each kernel takes.  What differs per size are
the :class:`CostParams`, calibrated so that the *baseline* (fused,
monolithic) decode step time matches the paper's measured vLLM TPOT
(Table 4: 16.83 ms for 1B, 30.30 ms for 3B, 64.06 ms for 8B) and the
de-fused handler costs match the ablation in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class CostParams:
    """Kernel-level timing parameters (all times in milliseconds).

    The cost of one batched ``forward`` is written once, in
    :meth:`repro.gpu.kernels.KernelCostModel.forward_seconds`: the device
    is charged with it and every prediction of a forward asks it (no
    reader outside ``repro.gpu.kernels`` takes a field of this class)::

        decode_ms_base                                      (once per batch)
          + decode_ms_per_extra_row * (decode rows - 1)
          + prefill_ms_per_token * (input tokens of the rows carrying > 1)
          + attn_ms_per_kilotoken * (context tokens of all rows) / 1024

    ``decode_ms_base`` is the weight-bound floor — streaming the model
    weights once — that every forward batch pays whatever it carries: rows
    in the same batch share it, which is what makes batching worthwhile,
    and merging two decode batches into one saves exactly one floor (the
    bound on how long the scheduler holds a forward candidate back,
    ``BatchScheduler._forward_yields``).  ``kernel_launch_ms`` is not part
    of a forward: the copy / mask / KV-transfer batches charge it.
    """

    # Fused monolithic decode step (embed + forward + sample pipelined), the
    # quantity the paper reports as vLLM's TPOT for a single sequence.
    decode_ms_base: float
    # Incremental cost of each decode row after the first in a forward batch.
    decode_ms_per_extra_row: float
    # Prefill throughput: cost per prompt token processed in parallel.
    prefill_ms_per_token: float
    # Attention cost growth with context length (per 1024 context tokens).
    attn_ms_per_kilotoken: float
    # Fixed kernel launch overhead of a copy / mask / KV-transfer batch.
    kernel_launch_ms: float
    # De-fused handler costs (paid by Pie, pipelined away by monolithic loops).
    embed_ms_per_call: float
    embed_ms_per_token: float
    sample_ms_per_call: float
    sample_ms_per_row: float
    dist_return_ms: float
    copy_ms_per_page: float
    mask_ms_per_page: float


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + cost description of a servable model."""

    name: str
    size_label: str
    vocab_size: int = 259
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_kv_heads: int = 2
    d_ff: int = 128
    kv_page_size: int = 16
    max_position: int = 8192
    top_k_dist: int = 256
    seed: int = 1234
    cost: CostParams = field(default=None)  # type: ignore[assignment]
    traits: Tuple[str, ...] = (
        "Core",
        "Allocate",
        "Forward",
        "InputText",
        "Tokenize",
        "OutputText",
        "Adapter",
    )

    @property
    def d_head(self) -> int:
        if self.d_model % self.n_heads:
            raise ReproError("d_model must be divisible by n_heads")
        return self.d_model // self.n_heads

    @property
    def gqa_group_size(self) -> int:
        if self.n_heads % self.n_kv_heads:
            raise ReproError("n_heads must be divisible by n_kv_heads")
        return self.n_heads // self.n_kv_heads


def _cost_for(size_label: str) -> CostParams:
    """Calibrated cost parameters per model size (see module docstring)."""
    calibration = {
        # decode_base, extra_row, prefill/tok, attn/ktok, launch, embed_call,
        # embed_tok, sample_call, sample_row, dist_ret, copy, mask
        "1b": (16.83, 0.55, 0.045, 0.35, 0.18, 0.07, 0.002, 1.70, 0.012, 0.05, 0.020, 0.012),
        "3b": (30.30, 0.95, 0.090, 0.60, 0.20, 0.07, 0.003, 1.50, 0.014, 0.06, 0.025, 0.014),
        "8b": (64.06, 1.90, 0.200, 1.10, 0.22, 0.07, 0.004, 1.32, 0.016, 0.07, 0.030, 0.016),
    }
    if size_label not in calibration:
        raise ReproError(f"unknown model size {size_label!r}")
    values = calibration[size_label]
    return CostParams(
        decode_ms_base=values[0],
        decode_ms_per_extra_row=values[1],
        prefill_ms_per_token=values[2],
        attn_ms_per_kilotoken=values[3],
        kernel_launch_ms=values[4],
        embed_ms_per_call=values[5],
        embed_ms_per_token=values[6],
        sample_ms_per_call=values[7],
        sample_ms_per_row=values[8],
        dist_return_ms=values[9],
        copy_ms_per_page=values[10],
        mask_ms_per_page=values[11],
    )


def _make_config(name: str, size_label: str, **overrides) -> ModelConfig:
    defaults = dict(name=name, size_label=size_label, cost=_cost_for(size_label))
    defaults.update(overrides)
    return ModelConfig(**defaults)


MODEL_CONFIGS: Dict[str, ModelConfig] = {
    "llama-sim-1b": _make_config("llama-sim-1b", "1b"),
    "llama-sim-3b": _make_config("llama-sim-3b", "3b"),
    "llama-sim-8b": _make_config("llama-sim-8b", "8b"),
}


def get_model_config(name: str) -> ModelConfig:
    """Look up a model configuration by name."""
    try:
        return MODEL_CONFIGS[name]
    except KeyError:
        raise ReproError(
            f"unknown model {name!r}; available: {sorted(MODEL_CONFIGS)}"
        ) from None
