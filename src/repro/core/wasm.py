"""Simulated WebAssembly runtime (the application layer's sandbox).

The paper runs inferlets inside wasmtime with pooled instance allocation so
launching hundreds of inferlets stays cheap (Figure 9).  Here inferlet
programs are Python coroutines; the runtime reproduces the *lifecycle
costs* (binary upload, JIT compilation, cached-binary reuse, pooled
instantiation) and the *accounting* the sandbox provides (per-call overhead,
fuel metering via an API call budget, instance counting against the pool
size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import InferletError, ReproError
from repro.core.config import WasmRuntimeConfig
from repro.sim.latency import milliseconds
from repro.sim.simulator import Simulator

#: Launch costs calibrated against Figure 9: a warm start costs ~10 ms for a
#: single launch and grows to ~50 ms when ~900 inferlets launch at once (the
#: Inferlet Lifecycle Manager serialises a small per-launch handling step,
#: charged in :mod:`repro.core.lifecycle`); a cold start additionally pays
#: binary upload and JIT compilation (a base plus a term per MB of binary).
WARM_INSTANTIATE_MS = 10.0
LAUNCH_HANDLING_MS = 0.09
UPLOAD_MS = 10.0
JIT_COMPILE_MS = 15.0
JIT_COMPILE_MS_PER_MB = 4.0
#: Table 3's "Wasm processing overhead": added to every API call.
PER_CALL_WASM_OVERHEAD_MS = 0.001


@dataclass
class WasmBinary:
    """An uploaded inferlet program with its (simulated) compiled module."""

    name: str
    program: Callable
    size_bytes: int = 131_072  # typical Table-2 inferlet: ~130 KB
    source_loc: int = 0
    jit_compiled: bool = False
    uploads: int = 0
    launches: int = 0

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0 * 1024.0)


class WasmRuntime:
    """Binary cache + instance pool + launch cost model."""

    def __init__(self, sim: Simulator, config: WasmRuntimeConfig) -> None:
        self.sim = sim
        self.config = config
        self._binaries: Dict[str, WasmBinary] = {}
        self._live_instances = 0

    # -- binary management ---------------------------------------------------

    def is_cached(self, name: str) -> bool:
        return name in self._binaries and self._binaries[name].jit_compiled

    def get_binary(self, name: str) -> WasmBinary:
        try:
            return self._binaries[name]
        except KeyError:
            raise InferletError(f"no uploaded inferlet binary named {name!r}") from None

    async def upload(self, binary: WasmBinary, force: bool = False) -> float:
        """Upload (and JIT compile) a binary; returns the time spent.

        Re-uploading an already cached binary is a no-op unless ``force``;
        this is the difference between the paper's cold and warm starts.
        """
        if not force and self.is_cached(binary.name):
            return 0.0
        start = self.sim.now
        await self.sim.sleep(milliseconds(UPLOAD_MS))
        jit_ms = JIT_COMPILE_MS + JIT_COMPILE_MS_PER_MB * binary.size_mb
        await self.sim.sleep(milliseconds(jit_ms))
        binary.jit_compiled = True
        binary.uploads += 1
        self._binaries[binary.name] = binary
        return self.sim.now - start

    def register_cached(self, binary: WasmBinary) -> None:
        """Install a binary as already compiled (server-side preloading)."""
        binary.jit_compiled = True
        self._binaries[binary.name] = binary

    # -- instance lifecycle ---------------------------------------------------------

    async def instantiate(self, name: str) -> WasmBinary:
        """Create a sandboxed instance of a cached binary.

        Thanks to wasmtime's pooled allocation, instantiation cost does not
        grow with the number of live instances — until the pool is
        exhausted.
        """
        binary = self.get_binary(name)
        if not binary.jit_compiled:
            raise InferletError(f"binary {name!r} has not been JIT compiled yet")
        if self._live_instances >= self.config.pool_size:
            raise InferletError(
                f"Wasm instance pool exhausted ({self.config.pool_size} live instances)"
            )
        await self.sim.sleep(milliseconds(WARM_INSTANTIATE_MS))
        self._live_instances += 1
        binary.launches += 1
        return binary

    def release_instance(self) -> None:
        if self._live_instances <= 0:
            raise ReproError("released more Wasm instances than were created")
        self._live_instances -= 1

    @property
    def live_instances(self) -> int:
        return self._live_instances

    def per_call_overhead_seconds(self) -> float:
        """Wasm boundary-crossing overhead added to every API call (Table 3)."""
        return milliseconds(PER_CALL_WASM_OVERHEAD_MS)
