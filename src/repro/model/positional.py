"""Sinusoidal positional encoding.

Positions are supplied explicitly by inferlets (the ``pos`` argument of
``embed_txt``), matching the paper's design where the ``forward`` API
"operates based on explicit sequence positions associated with the
resources".  Injecting position at embedding time keeps K/V values a pure
function of (token, position, visible prefix), which is what makes paged KV
reuse across forward calls exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


@lru_cache(maxsize=None)
def _angle_rates(d_model: int) -> np.ndarray:
    """``1 / 10000^(2*(dim//2)/d_model)`` per dimension, shape ``(1, d_model)``;
    one read-only vector per model width, shared by every call."""
    dims = np.arange(d_model, dtype=np.float64).reshape(1, -1)
    rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / d_model)
    rates.setflags(write=False)
    return rates


def sinusoidal_positions(positions: Sequence[int], d_model: int) -> np.ndarray:
    """Return the classic sinusoidal encoding for the given positions.

    Shape: ``(len(positions), d_model)``, dtype float32.
    """
    pos = np.asarray(list(positions), dtype=np.float64).reshape(-1, 1)
    angles = pos * _angle_rates(d_model)
    encoding = np.empty((pos.shape[0], d_model), dtype=np.float64)
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding.astype(np.float32)
