"""``repro.tools.host_profile``: the sampler charges CPU time to the repo
function that burnt it, and restores the process's timer and handler."""

import signal
import sys
import time

from repro.model.sampling import softmax
from repro.tools import host_profile
from repro.tools.host_profile import OUTSIDE, HostProfile

#: The sampling interval these tests run the profiler at.
INTERVAL_S = 0.001


def spin_in_the_repo(seconds):
    """Burn CPU inside a ``src/repro`` function (numpy underneath it)."""
    import numpy as np

    logits = np.zeros((64, 259), dtype=np.float32)
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        for _ in range(50):  # the clock is this test's frame, not the repo's
            softmax(logits)


def test_a_busy_function_gets_the_samples(monkeypatch):
    monkeypatch.setattr(host_profile, "SAMPLE_INTERVAL_S", INTERVAL_S)
    before = signal.getsignal(signal.SIGPROF)
    with HostProfile() as profile:
        spin_in_the_repo(0.3)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert profile.samples >= 10
    # numpy's time is charged to the repo frame that called it; this test's own
    # frames are outside the package.
    assert profile.share("softmax") >= profile.share("softmax", cumulative=False) > 0.5
    inside = sum(n for (file, _), n in profile.self_samples.items() if file == "model/sampling.py")
    assert profile.self_samples[OUTSIDE] + inside == profile.samples
    assert profile.layers["other"] == profile.samples  # sampling.py belongs to no one layer
    report = profile.report(top=5)
    assert "softmax  model/sampling.py" in report and "layer" in report


def test_a_signal_in_the_profiler_is_not_charged_to_it(monkeypatch):
    """A sample whose innermost package frame is the profiler's own (here
    ``__exit__``, caught by a stubbed timer) goes to the frame below it."""
    frames = []
    monkeypatch.setattr(signal, "setitimer", lambda *args: frames.append(sys._getframe(1)))
    with HostProfile() as profile:
        pass
    profile._sample(signal.SIGPROF, frames[-1])
    assert frames[-1].f_code.co_name == "__exit__"
    assert profile.self_samples == {OUTSIDE: 1}
    assert not profile.cumulative and profile.layers == {"other": 1}


def test_split_tells_two_jobs_of_one_function_apart(monkeypatch):
    """Two busy loops in ``softmax``, told apart by its ``temperature``."""
    monkeypatch.setattr(host_profile, "SAMPLE_INTERVAL_S", INTERVAL_S)
    import numpy as np

    def spin(temperature, seconds=0.25):
        logits = np.zeros((64, 259), dtype=np.float32)
        deadline = time.process_time() + seconds
        while time.process_time() < deadline:
            for _ in range(50):
                softmax(logits, temperature)

    with HostProfile(split={"softmax": "temperature"}) as profile:
        spin(1.0)
        spin(2.0)
    labels = {name for (_, name) in profile.self_samples}
    assert {"softmax [1.0]", "softmax [2.0]"} <= labels and "softmax" not in labels
    shares = [profile.share(label, cumulative=False) for label in ("softmax [1.0]", "softmax [2.0]")]
    assert min(shares) > 0.2
    # By the function's name: every label of it (the rest is ``check_temperature``).
    assert abs(profile.share("softmax", cumulative=False) - sum(shares)) < 1e-9 and sum(shares) > 0.6
    assert "softmax [2.0]  model/sampling.py" in profile.report(top=5)
    # An expression that raises labels the sample; the run goes on.
    with HostProfile(split={"softmax": "no_such_local + 1"}) as profile:
        spin(1.0, seconds=0.1)
    assert profile.share("softmax [?]", cumulative=False) > 0.5


def test_shared_files_count_for_the_layer_that_called_them(monkeypatch):
    monkeypatch.setattr(host_profile, "SAMPLE_INTERVAL_S", INTERVAL_S)
    from types import SimpleNamespace

    from repro.core.handlers import ApiHandlers
    from repro.gpu import DeviceMemory, GpuConfig, KernelCostModel
    from repro.model import get_model_config
    from repro.model.registry import ModelEntry

    config = get_model_config("llama-sim-1b")
    memory = DeviceMemory(config, GpuConfig(num_kv_pages=4, num_embed_slots=64))
    handlers = ApiHandlers(ModelEntry(config), memory, KernelCostModel(config))
    slots = memory.embeds.allocate(64)
    batch = [SimpleNamespace(payload={"emb_slots": [slot]}) for slot in slots]
    handlers.execute_batch("sample", batch)  # lazy weights are not what is profiled
    with HostProfile() as profile:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            for _ in range(5):
                handlers.execute_batch("sample", batch)
    assert profile.share("ApiHandlers.execute_batch") > 0.6
    # top_k_dists (model/sampling.py) and EmbedStore.read (gpu/memory.py) are
    # the handlers' time; only TinyTransformer.logits is the model's.
    assert profile.share("top_k_dists") > 0.3
    assert profile.layers["handlers"] > 0.5 * profile.samples
