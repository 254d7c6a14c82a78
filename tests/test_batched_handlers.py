"""The batch-wide ``sample`` / ``embed_text`` handlers and the wave-wide
``KvPageStore.gather`` / ``scatter`` against the per-command code they replaced.

``reference_run_sample``, ``reference_run_embed_text``, ``reference_gather``
and ``reference_scatter`` are that code, verbatim, kept here as the oracle: a
batch changes no arithmetic, so results and *all* device memory must come out
equal with ``==``, whatever shares the batch.  Twin devices are driven side by side —
one a batch at a time, the other a command at a time through the oracle — and
compared after every batch; hand-made mutants show the comparison has teeth,
and a cost test shows the numpy work no longer grows with the batch.
"""

import inspect
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import handlers as handlers_module
from repro.core.handlers import DEFAULT_TOP_K, ApiHandlers
from repro.errors import ReproError, ResourceError
from repro.gpu import DeviceMemory, GpuConfig, KernelCostModel, KvPageStore
from repro.gpu import memory as memory_module
from repro.gpu.memory import EmbedStore
from repro.model import get_model_config
from repro.model.registry import ModelEntry
from repro.model.sampling import TokenDistribution
from repro.model.transformer import KvContext
from tests.test_handlers_waves import assert_same_memory

CONFIG = get_model_config("llama-sim-1b")
PAGE = CONFIG.kv_page_size
VOCAB = CONFIG.vocab_size
ENTRY = ModelEntry(CONFIG)
TOKEN_SHAPE = (CONFIG.n_kv_heads, CONFIG.d_head)

KV_PAGES, EMBED_SLOTS = 24, 48
LIVE_SLOTS = 32  # slots 0..31 are allocated and written; 32..47 are not
BAD_SLOT, BAD_PAGE = 40, 22  # pages 22 and 23 of a ``build_store`` store stay unallocated


# -- the replaced per-command code ------------------------------------------------


def reference_softmax(logits, temperature=1.0):
    if temperature <= 0:
        raise ReproError("temperature must be positive; use greedy_sample for argmax")
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    scaled = scaled - scaled.max()
    exp = np.exp(scaled)
    return exp / exp.sum()


def reference_top_k_dist(logits, k, temperature=1.0):
    probs = reference_softmax(logits, temperature=temperature)
    vocab = probs.shape[0]
    k = min(k, vocab)
    top_indices = np.argpartition(probs, -k)[-k:]
    top_indices = top_indices[np.argsort(probs[top_indices])[::-1]]
    top_probs = probs[top_indices]
    total = top_probs.sum()
    return TokenDistribution(
        token_ids=tuple(top_indices.tolist()),
        probs=tuple((top_probs / total).tolist()),
        truncated=k < vocab,
    )


def reference_run_sample(self, payload):
    slots = payload["emb_slots"]
    top_k = payload.get("top_k") or DEFAULT_TOP_K
    temperature = payload.get("temperature", 1.0)
    hidden = self.memory.embeds.read(slots)
    logits = self.model_entry.transformer.logits(hidden)
    return [reference_top_k_dist(row, k=top_k, temperature=temperature) for row in logits]


def reference_run_embed_text(self, payload):
    token_ids = payload["token_ids"]
    positions = payload["positions"]
    slots = payload["emb_slots"]
    if not (len(token_ids) == len(positions) == len(slots)):
        raise ResourceError("embed_txt: token/position/slot counts must match")
    vectors = self.model_entry.transformer.embed_tokens(token_ids, positions)
    self.memory.embeds.write(slots, vectors, positions)
    return len(slots)


def reference_gather(self, page_ids):
    ids = self._pool.checked(page_ids)
    tokens = self._token_grid(ids)[self.valid[ids].reshape(-1)]
    if not tokens.size:
        return KvContext.empty(self.model_config)
    return KvContext(
        keys=list(self._token_keys.take(tokens, axis=1)),
        values=list(self._token_values.take(tokens, axis=1)),
        positions=self.positions.reshape(-1).take(tokens),
        visible=self.visible.reshape(-1).take(tokens),
    )


def reference_scatter(self, page_ids, offset, new_keys, new_values, positions):
    ids = self._pool.checked(page_ids)
    if offset is None:
        offset = int(self.valid[ids].sum())
    count = len(positions)
    capacity = ids.size * self.page_size
    if offset < 0 or offset + count > capacity:
        raise ResourceError(
            f"writing {count} tokens at offset {offset} exceeds the "
            f"{capacity}-token capacity of the provided KV pages"
        )
    tokens = self._token_grid(ids)[offset : offset + count]
    self._token_keys[:, tokens] = np.asarray(new_keys)[:, :count]
    self._token_values[:, tokens] = np.asarray(new_values)[:, :count]
    self.positions.reshape(-1)[tokens] = positions
    self.valid.reshape(-1)[tokens] = True
    self.visible.reshape(-1)[tokens] = True


# -- twin devices -----------------------------------------------------------------


class Device:
    """Device memory with ``LIVE_SLOTS`` written embed slots, and its handlers."""

    def __init__(self, seed, handlers_class=ApiHandlers):
        rng = np.random.default_rng(seed)
        self.memory = DeviceMemory(
            CONFIG, GpuConfig(num_kv_pages=LIVE_SLOTS, num_embed_slots=EMBED_SLOTS)
        )
        self.handlers = handlers_class(ENTRY, self.memory, KernelCostModel(CONFIG))
        slots = self.memory.embeds.allocate(LIVE_SLOTS)
        assert slots == list(range(LIVE_SLOTS))
        hidden = rng.normal(size=(LIVE_SLOTS, CONFIG.d_model)).astype(np.float32)
        hidden[0] = 0.0  # every logit tied
        hidden[1] = hidden[2]  # two rows with one distribution
        hidden[3] = np.round(hidden[3])
        self.memory.embeds.write(slots, hidden, list(range(LIVE_SLOTS)))

    def batch(self, kind, payloads):
        commands = [SimpleNamespace(payload=payload) for payload in payloads]
        return self.handlers.execute_batch(kind, commands)

    def one_by_one(self, reference, payloads):
        results = []
        for payload in payloads:
            try:
                results.append(reference(self.handlers, payload))
            except Exception as exc:  # noqa: BLE001 - what execute_batch delivers
                results.append(exc)
        return results


def assert_same_results(got, want):
    """Values with ``==`` (a ``TokenDistribution`` compares its float tuples
    exactly); failures by type and message, and every one its own object."""
    assert len(got) == len(want)
    for at, (mine, theirs) in enumerate(zip(got, want)):
        if isinstance(theirs, Exception):
            assert type(mine) is type(theirs) and str(mine) == str(theirs), (at, mine, theirs)
        else:
            assert mine == theirs, at
    failures = [result for result in got if isinstance(result, Exception)]
    assert len({id(failure) for failure in failures}) == len(failures)


# -- sample -----------------------------------------------------------------------

SETTINGS = [(None, 1.0), (1, 1.0), (5, 0.7), (DEFAULT_TOP_K, 1.0), (1000, 2.0), (VOCAB, 0.3)]
BAD_TOP_K = [0, -3, 2.5, "7"]


@st.composite
def sample_payloads(draw):
    slots = draw(st.lists(st.integers(0, LIVE_SLOTS - 1), min_size=0, max_size=4))
    top_k, temperature = draw(st.sampled_from(SETTINGS))
    flaw = draw(st.sampled_from([None] * 5 + ["slot", "temperature"]))
    if flaw == "slot":
        slots.insert(draw(st.integers(0, len(slots))), BAD_SLOT)
    if flaw == "temperature":
        slots = slots or [0]  # the replaced code only looked when it had a row
        temperature = draw(st.sampled_from([0.0, -1.0]))
    payload = {"emb_slots": slots, "top_k": top_k, "temperature": temperature}
    if draw(st.booleans()):
        del payload["temperature"]  # the handler's default, 1.0
        if flaw == "temperature":
            payload["temperature"] = temperature
    return payload


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(sample_payloads(), max_size=9), min_size=1, max_size=3))
def test_sample_batches_equal_the_per_command_handler(batches):
    batched, sequential = Device(5), Device(5)
    for payloads in batches:
        got = batched.batch("sample", payloads)
        assert_same_results(got, sequential.one_by_one(reference_run_sample, payloads))
        assert_same_memory(batched, sequential)


def test_sample_rows_do_not_depend_on_their_batch_mates():
    device = Device(7)
    payloads = [
        {"emb_slots": [slot] * width, "top_k": top_k, "temperature": temperature}
        for slot, width, (top_k, temperature) in zip(range(24), [1, 1, 3, 1, 2, 1] * 4, SETTINGS * 4)
    ]
    together = device.batch("sample", payloads)
    alone = [device.batch("sample", [payload])[0] for payload in payloads]
    assert together == alone == device.one_by_one(reference_run_sample, payloads)
    tied = together[0][0]
    assert len(set(tied.probs)) == 1 and len(tied) == 256 and tied.truncated


def test_bad_sample_commands_fail_alone():
    device = Device(3)
    good = {"emb_slots": [4, 5], "top_k": 8, "temperature": 0.9}
    bad = [
        {"emb_slots": [4, BAD_SLOT]},
        {"emb_slots": [4], "temperature": 0.0},
        {"emb_slots": [4], "temperature": 0.0},
        *({"emb_slots": [4], "top_k": top_k} for top_k in BAD_TOP_K),
        {"top_k": 3},  # no slots at all
    ]
    payloads = [good, *bad[:3], good, *bad[3:], good]
    results = device.batch("sample", payloads)
    (want,) = device.one_by_one(reference_run_sample, [good])
    assert results[0] == results[4] == results[-1] == want
    failures = [r for r in results if isinstance(r, Exception)]
    assert len(failures) == len({id(f) for f in failures}) == len(bad)
    assert isinstance(results[1], ResourceError) and "not allocated" in str(results[1])
    assert "temperature must be positive" in str(results[2])
    for failure in results[5:9]:
        assert isinstance(failure, ReproError) and "top_k must be a positive integer" in str(failure)
    assert isinstance(results[9], KeyError)


# -- embed_text -------------------------------------------------------------------


@st.composite
def embed_payloads(draw):
    count = draw(st.integers(0, 5))
    payload = {
        "token_ids": draw(st.lists(st.integers(0, VOCAB - 1), min_size=count, max_size=count)),
        "positions": draw(st.lists(st.integers(0, 4000), min_size=count, max_size=count)),
        # Few slots, so that commands (and one command's tokens) collide.
        "emb_slots": draw(st.lists(st.integers(0, 7), min_size=count, max_size=count)),
    }
    flaw = draw(st.sampled_from([None] * 5 + ["count", "vocabulary", "slot"]))
    if flaw == "count":
        payload[draw(st.sampled_from(sorted(payload)))].append(1)
    if flaw == "vocabulary":
        payload["token_ids"].append(draw(st.sampled_from([-1, VOCAB, VOCAB + 40])))
        payload["positions"].append(0)
        payload["emb_slots"].append(0)
    if flaw == "slot":
        payload["token_ids"].append(1)
        payload["positions"].append(0)
        payload["emb_slots"].append(BAD_SLOT)
    return payload


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(embed_payloads(), max_size=9), min_size=1, max_size=3))
def test_embed_text_batches_equal_the_per_command_handler(batches):
    batched, sequential = Device(6), Device(6)
    for payloads in batches:
        got = batched.batch("embed_text", payloads)
        assert_same_results(got, sequential.one_by_one(reference_run_embed_text, payloads))
        assert_same_memory(batched, sequential)


def test_embed_text_repeated_slot_keeps_the_last_write_and_bad_commands_write_nothing():
    batched, sequential = Device(2), Device(2)
    before = batched.memory.embeds._data.copy()
    payloads = [
        {"token_ids": [10, 11, 12], "positions": [0, 1, 2], "emb_slots": [9, 9, 9]},
        {"token_ids": [13, VOCAB], "positions": [5, 6], "emb_slots": [10, 11]},
        {"token_ids": [14, 15], "positions": [7], "emb_slots": [12, 13]},
        {"token_ids": [16, 17], "positions": [8, 9], "emb_slots": [14, BAD_SLOT]},
        {"token_ids": [16, 17], "positions": [8, 9], "emb_slots": [14, BAD_SLOT]},
        {"token_ids": [18], "positions": [3], "emb_slots": [9]},  # over the first command
        {"token_ids": [], "positions": [], "emb_slots": []},
    ]
    got = batched.batch("embed_text", payloads)
    assert_same_results(got, sequential.one_by_one(reference_run_embed_text, payloads))
    assert [r for r in got if not isinstance(r, Exception)] == [3, 1, 0]
    assert_same_memory(batched, sequential)
    data = batched.memory.embeds._data
    np.testing.assert_array_equal(data[9], ENTRY.transformer.embed_tokens([18], [3])[0])
    np.testing.assert_array_equal(data[10:15], before[10:15])  # nothing of a bad command


# -- gather -----------------------------------------------------------------------


def assert_same_context(got: KvContext, want: KvContext):
    assert len(got.keys) == len(got.values) == CONFIG.n_layers
    for mine, theirs in zip(got.keys + got.values, want.keys + want.values):
        assert mine.dtype == theirs.dtype == np.float32 and mine.shape == theirs.shape
        assert mine.flags.c_contiguous
        np.testing.assert_array_equal(mine, theirs)
    for name in ("positions", "visible"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        np.testing.assert_array_equal(mine, theirs)


def build_store(rng, store_class=KvPageStore):
    """A store whose pages are full, partial (also in the *middle* of a
    context, as after a fork), holed (``copy_kvpage``) or partly masked; page
    ``BAD_PAGE`` and the one after it stay unallocated."""
    store = store_class(CONFIG, num_pages=KV_PAGES)
    pages = store.allocate(BAD_PAGE)
    for page_id in pages:
        page = store.page(page_id)
        style = rng.integers(0, 5)
        written = {0: 0, 1: PAGE, 2: int(rng.integers(1, PAGE))}.get(int(style))
        slots = (
            np.flatnonzero(rng.random(PAGE) < 0.5) if written is None else np.arange(written)
        )
        for slot in slots:
            kv = rng.normal(size=(2, CONFIG.n_layers, *TOKEN_SHAPE)).astype(np.float32)
            page.write_token(int(slot), int(rng.integers(0, 999)), kv[0], kv[1])
        if style == 4:
            page.mask_tokens(rng.random(PAGE) < 0.7)
    return store, pages


@st.composite
def page_lists(draw):
    return draw(
        st.lists(
            st.one_of(
                st.lists(st.integers(0, BAD_PAGE - 1), max_size=6),
                st.lists(st.integers(0, BAD_PAGE + 1), min_size=1, max_size=4),
            ),
            max_size=8,
        )
    )


def check_wave(store, wave):
    contexts = store.gather(wave)
    assert len(contexts) == len(wave)
    for page_ids, got in zip(wave, contexts):
        try:
            want = reference_gather(store, page_ids)
        except ResourceError as exc:
            assert type(got) is ResourceError and str(got) == str(exc), page_ids
        else:
            assert_same_context(got, want)
            assert_same_context(store.gather_one(page_ids), want)
    failures = [context for context in contexts if isinstance(context, Exception)]
    assert len({id(failure) for failure in failures}) == len(failures)
    return contexts


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), page_lists())
def test_wave_gather_equals_the_per_list_gather(seed, wave):
    store, _ = build_store(np.random.default_rng(seed))
    check_wave(store, wave)


def test_gather_wave_with_a_bad_list_in_the_middle_and_shared_pages():
    store, pages = build_store(np.random.default_rng(4))
    wave = [pages[:3], [], [pages[1], BAD_PAGE], pages[2:0:-1], [BAD_PAGE], pages[:3], pages[5:20]]
    contexts = check_wave(store, wave)
    assert [isinstance(c, ResourceError) for c in contexts] == [0, 0, 1, 0, 1, 0, 0]
    assert contexts[2] is not contexts[4]
    with pytest.raises(ResourceError, match="not allocated"):
        store.gather_one([pages[1], BAD_PAGE])


def test_a_slab_write_after_gather_changes_no_context_of_the_wave():
    store, pages = build_store(np.random.default_rng(8))
    wave = [pages[:4], pages[2:9], [], pages[9:]]
    contexts = store.gather(wave)
    kept = [
        [array.copy() for array in (*c.keys, *c.values, c.positions, c.visible)] for c in contexts
    ]
    store.keys[...] = 7.0
    store.values[...] = 7.0
    store.positions[...] = 7
    store.visible[...] = False
    store.free(pages[:5])
    for context, arrays in zip(contexts, kept):
        now = (*context.keys, *context.values, context.positions, context.visible)
        for mine, before in zip(now, arrays):
            np.testing.assert_array_equal(mine, before)


# -- scatter ----------------------------------------------------------------------


def all_state(store):
    return [getattr(store, name) for name in ("keys", "values", "positions", "valid", "visible")]


@st.composite
def scatter_waves(draw):
    """Writes over disjoint page lists (the wave rule), some of them bad: an
    unallocated page, a negative offset, more tokens than the pages hold."""
    order = draw(st.permutations(range(BAD_PAGE)))
    wave, at = [], 0
    while at < len(order) and len(wave) < 8:
        n_pages = draw(st.integers(1, 3))
        page_ids = list(order[at : at + n_pages])
        at += n_pages
        room = len(page_ids) * PAGE
        offset = draw(st.sampled_from([None, 0, 1, PAGE - 1, PAGE, room - 2]))
        count = draw(st.integers(0, PAGE + 3))
        extra = draw(st.integers(0, 2))  # rows of K/V past the ones to store
        flaw = draw(st.sampled_from([None] * 6 + ["page", "negative", "overflow"]))
        if flaw == "page":
            page_ids.insert(draw(st.integers(0, len(page_ids))), BAD_PAGE)
        if flaw == "negative":
            offset = -1
        if flaw == "overflow":
            offset, count = room - 1, 2
        wave.append((page_ids, offset, count, extra))
    return wave


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.lists(scatter_waves(), min_size=1, max_size=3))
def test_wave_scatter_equals_the_per_command_scatter(seed, waves):
    rng = np.random.default_rng(seed)
    fast, _ = build_store(np.random.default_rng(seed))
    slow, _ = build_store(np.random.default_rng(seed))
    for wave in waves:
        writes = []
        for page_ids, offset, count, extra in wave:
            shape = (count + extra, *TOKEN_SHAPE)
            # Layer 0 float32, the rest float64: what the model hands over.
            dtypes = [np.float32] + [np.float64] * (CONFIG.n_layers - 1)
            keys = [rng.normal(size=shape).astype(dtype) for dtype in dtypes]
            values = [rng.normal(size=shape).astype(dtype) for dtype in dtypes]
            positions = rng.integers(0, 999, size=count)
            writes.append(memory_module.KvWrite(page_ids, offset, keys, values, positions))
        errors = fast.scatter(writes)
        for write, error in zip(writes, errors):
            try:
                reference_scatter(slow, *write)
            except ResourceError as exc:
                assert type(error) is ResourceError and str(error) == str(exc)
            else:
                assert error is None
        failures = [error for error in errors if error is not None]
        assert len({id(failure) for failure in failures}) == len(failures)
        for mine, theirs in zip(all_state(fast), all_state(slow)):
            np.testing.assert_array_equal(mine, theirs)


def test_write_after_write_closes_the_wave(monkeypatch):
    """Two appending writers of one page (``okv_offset=None``) read nothing of
    each other, but the second lands behind the first: it waits for the next
    wave, as does a second writer of one embed slot."""

    def build(device):
        (page,) = device.memory.kv_pages.allocate(1)
        return [
            dict(ikv=[], iemb=[4, 5], okv=[page], okv_offset=None, oemb=[20]),
            dict(ikv=[], iemb=[6], okv=[page], okv_offset=None, oemb=[]),
            dict(ikv=[], iemb=[7], okv=[], oemb=[20]),
        ]

    calls = []
    real = ENTRY.transformer.forward
    monkeypatch.setattr(
        ENTRY.transformer, "forward", lambda rows: calls.append(len(rows)) or real(rows)
    )
    batched, sequential = Device(1), Device(1)
    assert batched.batch("forward", build(batched)) == [2, 1, 1]
    assert calls == [1, 2]
    for payload in build(sequential):
        assert sequential.batch("forward", [payload]) == [len(payload["iemb"])]
    assert_same_memory(batched, sequential)
    assert batched.memory.kv_pages.valid_counts([0]) == [3]


def test_a_failed_forward_command_writes_nothing():
    """Its model call succeeds, one of its outputs is bad: neither is written."""
    device = Device(1)
    good, bad_kv, bad_emb = device.memory.kv_pages.allocate(3)
    before = [array.copy() for array in all_state(device.memory.kv_pages)]
    embeds_before = device.memory.embeds._data.copy()
    results = device.batch(
        "forward",
        [
            dict(ikv=[], iemb=[4], okv=[bad_kv], okv_offset=PAGE, oemb=[21]),  # past the page
            dict(ikv=[], iemb=[5], okv=[bad_emb], okv_offset=0, oemb=[BAD_SLOT]),
            dict(ikv=[], iemb=[6], okv=[good], okv_offset=0, oemb=[22]),
        ],
    )
    assert [type(r) for r in results] == [ResourceError, ResourceError, int]
    store = device.memory.kv_pages
    assert store.valid_counts([good, bad_kv, bad_emb]) == [1, 0, 0]
    store.free([good])
    for mine, was in zip(all_state(store), before):
        np.testing.assert_array_equal(mine, was)
    changed = np.flatnonzero((device.memory.embeds._data != embeds_before).any(axis=1))
    assert changed.tolist() == [22]


# -- mutants ----------------------------------------------------------------------


def mutant_of(module, old, new):
    """``module`` with one piece of its source replaced, as a namespace."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"mutation site not found exactly once: {old!r}"
    namespace = {"__name__": module.__name__}
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace


def test_mutant_folding_the_logits_into_one_gemm_is_killed():
    device = Device(9)
    stacked = device.memory.embeds.read(list(range(4, 28)))
    table = ENTRY.transformer.token_embedding.T
    if np.array_equal(stacked @ table, np.concatenate([row[None] @ table for row in stacked])):
        pytest.skip("this BLAS rounds a gemm like the per-row gemv")
    mutant = mutant_of(
        handlers_module,
        "hidden[start:stop].reshape(len(members), n_slots, d_model)",
        "hidden[start:stop]",
    )["ApiHandlers"]
    payloads = [{"emb_slots": [slot]} for slot in range(4, 28)]
    want = device.one_by_one(reference_run_sample, payloads)
    assert_same_results(device.batch("sample", payloads), want)
    folded = Device(9, handlers_class=mutant)
    with pytest.raises(AssertionError):
        assert_same_results(folded.batch("sample", payloads), want)
    # A batch of one folds nothing: the mutant is the real handler there.
    assert_same_results(folded.batch("sample", payloads[:1]), want[:1])


def test_mutant_dropping_the_per_list_membership_check_is_killed():
    mutant = mutant_of(memory_module, "self._pool.check(page_ids)\n", "pass\n")["KvPageStore"]
    store, pages = build_store(np.random.default_rng(4), store_class=mutant)
    check_wave(store, [pages[:3], pages[3:5]])  # harmless while every page is allocated
    with pytest.raises((AssertionError, IndexError)):
        check_wave(store, [pages[:3], [pages[1], BAD_PAGE], pages[3:5]])


def test_mutant_slicing_the_wave_one_row_off_is_killed():
    mutant = mutant_of(
        memory_module, "a, b = next(spans)", "a, b = (cut + 1 for cut in next(spans))"
    )["KvPageStore"]
    store, pages = build_store(np.random.default_rng(4), store_class=mutant)
    with pytest.raises(AssertionError):
        check_wave(store, [pages[:3], pages[3:6]])


def test_mutant_keeping_write_after_write_in_one_wave_is_killed():
    mutant = mutant_of(handlers_module, "and kv_written.isdisjoint(okv)\n", "\n")["ApiHandlers"]
    page = 0
    wave = [
        dict(ikv=[], iemb=[4, 5], okv=[page], okv_offset=None, oemb=[]),
        dict(ikv=[], iemb=[6], okv=[page], okv_offset=None, oemb=[]),
    ]
    counts = []
    for handlers_class in (ApiHandlers, mutant):
        device = Device(1, handlers_class=handlers_class)
        assert device.memory.kv_pages.allocate(1) == [page]
        assert device.batch("forward", wave) == [2, 1]
        counts.append(device.memory.kv_pages.valid_counts([page]))
    assert counts == [[3], [2]]  # the mutant's second write landed on the first


# -- cost: numpy calls per batch, not per command -------------------------------


def numpy_calls(device, kind, payloads):
    """(``EmbedStore`` bulk reads and writes, ``take`` calls made by the page
    store) while ``device`` executes one batch."""
    embed_calls, takes = [], []
    originals = {name: getattr(EmbedStore, name) for name in ("read", "positions", "write")}

    def counted(name):
        def call(store, *args):
            embed_calls.append(name)
            return originals[name](store, *args)

        return call

    def profiler(frame, event, arg):
        if event == "c_call" and arg.__name__ == "take":
            if frame.f_code.co_filename.endswith("memory.py"):
                takes.append(frame.f_code.co_name)

    for name in originals:
        setattr(EmbedStore, name, counted(name))
    sys.setprofile(profiler)
    try:
        results = device.batch(kind, payloads)
    finally:
        sys.setprofile(None)
        for name, original in originals.items():
            setattr(EmbedStore, name, original)
    assert not any(isinstance(result, Exception) for result in results), results
    return len(embed_calls), len(takes)


@pytest.mark.parametrize("kind", ["sample", "embed_text"])
def test_a_batch_of_32_makes_the_numpy_calls_of_a_batch_of_4(kind):
    def payloads(count):
        if kind == "sample":
            return [{"emb_slots": [slot]} for slot in range(count)]
        return [
            {"token_ids": [slot], "positions": [slot], "emb_slots": [slot]}
            for slot in range(count)
        ]

    small = numpy_calls(Device(1), kind, payloads(4))
    large = numpy_calls(Device(1), kind, payloads(LIVE_SLOTS))
    assert small == large == (1, 0)


def test_a_forward_wave_of_32_makes_the_numpy_calls_of_a_wave_of_4():
    def calls(rows):
        device = Device(1)
        wave = [
            {"ikv": [page], "iemb": [slot], "okv": [page], "okv_offset": 0, "oemb": [slot]}
            for slot, page in enumerate(device.memory.kv_pages.allocate(rows))
        ]
        assert device.batch("forward", wave) == [1] * rows  # now every page holds a token
        for payload in wave:
            payload["okv_offset"] = 1
        return numpy_calls(device, "forward", wave)

    # Embeds: read, positions, write.  Takes: ``valid`` and the four tensors in
    # gather, ``valid`` again in scatter.
    assert calls(4) == calls(LIVE_SLOTS) == (3, 6)
