"""GPU/device configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class GpuConfig:
    """Capacity and batching limits of the simulated accelerator.

    The defaults approximate the paper's setup (NVIDIA L4, 24 GB): the KV
    pool is sized at startup from GPU memory; the batch size limit mirrors
    the "maximum supported size" the scheduler truncates batches to.

    ``num_devices`` sizes the cluster: each simulated device gets its *own*
    memory pools of the capacities below (they are per-device, not shared),
    its own batch scheduler, and its own busy/idle notification channel.
    The default of 1 reproduces the paper's single-L4 deployment exactly.

    ``host_kv_pages`` sizes the *host-memory* KV tier shared by every device
    of the node (:class:`repro.gpu.host_pool.HostMemoryPool`): KV pages of
    inferlets blocked on external calls can be staged there over PCIe and
    restored on wake-up, instead of being destroyed by reclamation.
    The default of 0 disables the tier entirely (exact pre-swap behaviour).
    """

    num_kv_pages: int = 4096
    num_embed_slots: int = 16384
    max_batch_rows: int = 256
    max_batch_tokens: int = 8192
    num_devices: int = 1
    host_kv_pages: int = 0

    def __post_init__(self) -> None:
        if self.num_kv_pages <= 0:
            raise ReproError("num_kv_pages must be positive")
        if self.num_devices <= 0:
            raise ReproError("num_devices must be positive")
        if self.num_embed_slots <= 0:
            raise ReproError("num_embed_slots must be positive")
        if self.max_batch_rows <= 0:
            raise ReproError("max_batch_rows must be positive")
        if self.max_batch_tokens <= 0:
            raise ReproError("max_batch_tokens must be positive")
        if self.host_kv_pages < 0:
            raise ReproError("host_kv_pages must be non-negative")
