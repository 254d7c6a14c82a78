"""One way to move KV: every page crossing to the host tier or another shard
goes through ``KvMover`` (``repro.core.mover``).

Swap, prefix-cache demotion and fault-in, the disaggregation stream and
handoff tail, and the cross-shard import used to copy and charge pages
five ways under three cost models.  Here:

* an AST scan over ``src/repro/core`` keeps every copy, wire and charge in
  the mover (the two named exemptions are ``ResourceManager``'s own swap
  bookkeeping and its same-device copy-on-write copy, plus the client's
  network link, which carries no KV);
* a cross-shard import and a handoff tail of the same page count charge
  their destination the same seconds (the import used to pay its own
  constants: 0.95 ms against the tail's 0.54 ms at 15 pages, 1B model);
* two mutants are killed: staging that ignores free pages (the full
  decode shard scenario of ``test_disaggregation_invariants.py``) and an
  import that keeps its own constants.
"""

import ast
import pathlib

import pytest

from repro.core import InferletProgram, PieServer
from repro.core.controller import Controller
from repro.core.inferlet import InferletInstance
from repro.core.mover import LINK_GBYTES_PER_S, LINK_LATENCY_MS, KvMover
from repro.errors import OutOfResourcesError
from repro.sim import Simulator
from repro.sim.latency import milliseconds
from tests.test_disaggregation_invariants import run_onto_full_decode_shard

CORE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
PROGRAM = InferletProgram(name="tenant", main=lambda ctx: None)
PAGES = 15

#: (file, function) -> why it may do what the scan forbids.
EXEMPT = {
    ("resources.py", "ResourceManager.swap_out_kv"): "swap bookkeeping: pages to host slots",
    ("resources.py", "ResourceManager.swap_in_kv"): "swap bookkeeping: host slots to pages",
    ("resources.py", "ResourceManager.materialize_private_kv"): "same-device COW copy",
    ("server.py", "PieClient.__init__"): "the client's network link carries no KV",
}


# -- (a) nothing outside the mover copies, wires or charges KV ---------------------


def _forbidden(node: ast.AST):
    """What a node does that only the mover may do, or None."""
    if isinstance(node, ast.Attribute) and node.attr == "transfer_seconds":
        return "reads transfer_seconds"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "NetworkLink":
        return "constructs a NetworkLink"
    if name in ("clone_slot_from", "copy_page_from"):
        return f"calls {name}"
    if (
        name in ("store", "load")
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "host_pool"
    ):
        return f"calls host_pool.{name}"
    for keyword in node.keywords:
        if (
            keyword.arg == "run"
            and isinstance(keyword.value, ast.Lambda)
            and isinstance(keyword.value.body, ast.Constant)
            and keyword.value.body.value is None
        ):
            return "submits a run=lambda: None device batch"
    return None


def scan(source: str, filename: str):
    """``(filename, qualified function, what)`` for every forbidden node."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        what = _forbidden(node)
        if what is not None:
            found.append((filename, ".".join(scope), what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_mover_copies_wires_and_charges_kv():
    offences = []
    for path in sorted(CORE.glob("*.py")):
        if path.name == "mover.py":
            continue
        for filename, where, what in scan(path.read_text(encoding="utf-8"), path.name):
            if (filename, where) not in EXEMPT:
                offences.append(f"{filename}:{where} {what}")
    assert not offences, offences


def test_the_exemptions_and_the_mover_are_what_the_scan_sees():
    # Every exemption is still used (a stale one would hide a new site) ...
    used = set()
    for path in sorted(CORE.glob("*.py")):
        for filename, where, _ in scan(path.read_text(encoding="utf-8"), path.name):
            used.add((filename, where))
    assert set(EXEMPT) <= used, sorted(set(EXEMPT) - used)
    # ... and the mover holds the one no-compute device charge.
    mover = scan((CORE / "mover.py").read_text(encoding="utf-8"), "mover.py")
    charges = [where for _, where, what in mover if what.startswith("submits")]
    assert charges == ["KvMover.charge"]


def test_the_scan_catches_each_forbidden_form():
    source = '''
def f(self, device, pool, a, b):
    self.host_pool.transfer_seconds(3)
    NetworkLink(self.sim)
    a.embeds.clone_slot_from(1, b, 2)
    a.copy_page_from(b)
    self.host_pool.store(a)
    self.host_pool.load(1, a)
    device.submit(kind="x", run=lambda: None, cost_seconds=1.0)
    pool.store(a)  # not the host pool: allowed
'''
    whats = [what for _, _, what in scan(source, "x.py")]
    assert whats == [
        "reads transfer_seconds",
        "constructs a NetworkLink",
        "calls clone_slot_from",
        "calls copy_page_from",
        "calls host_pool.store",
        "calls host_pool.load",
        "submits a run=lambda: None device batch",
    ]


# -- (b) an import lands like a handoff tail ---------------------------------------


def _recording(device, charged):
    submit = device.submit

    def record(kind, run, cost_seconds, size=1, metadata=None):
        charged.append((kind, cost_seconds, size))
        return submit(kind=kind, run=run, cost_seconds=cost_seconds, size=size, metadata=metadata)

    device.submit = record


def _running(server, name):
    instance = InferletInstance(PROGRAM, instance_id=name)
    server.controller.register_inferlet(instance)
    instance.metrics.status = "running"
    return instance


def import_charge():
    """What a 15-page cross-shard import charges the importer's device."""
    server = PieServer(Simulator(seed=0), num_devices=2, placement_policy="round_robin")
    controller, model = server.controller, server.service().entry.name
    exporter, importer = _running(server, "exporter"), _running(server, "importer")
    src, dst = exporter.placements[model], importer.placements[model]
    assert (src.index, dst.index) == (0, 1)
    pages = controller.alloc_kv_pages(exporter, src, PAGES)
    controller.export_kv_pages(exporter, pages, "prefix")
    charged = []
    _recording(dst.device, charged)
    assert len(controller.import_kv_pages(importer, "prefix")) == PAGES
    assert server.metrics.cross_device_imports == 1
    return charged


def handoff_charge():
    """What a 15-page handoff tail (nothing streamed) charges the decode shard."""
    server = PieServer(
        Simulator(seed=0), num_devices=2, placement_policy="disaggregated", prefill_shards=1
    )
    service = server.service()
    instance = _running(server, "owner")
    server.controller.alloc_kv_pages(instance, instance.placements[service.entry.name], PAGES)
    charged = []
    _recording(service.shards[1].device, charged)
    assert service.transfer.maybe_handoff(instance)
    assert server.metrics.disagg_pages_tail == PAGES
    return charged


def test_a_cross_shard_import_lands_like_a_handoff_tail():
    [(kind, imported, size)] = import_charge()
    assert (kind, size) == ("kv_transfer", PAGES)
    [(kind, handed_off, size)] = handoff_charge()
    assert (kind, size) == ("kv_handoff", PAGES)
    assert imported == handed_off
    # The wire, then the landing: 0.54 ms on the 1B model.
    server = PieServer(Simulator(seed=0))
    page_bytes = server.service().mover.page_bytes
    wire = PAGES * page_bytes / (LINK_GBYTES_PER_S * 1e9) + milliseconds(LINK_LATENCY_MS)
    landing = server.service().cost_model.copy_batch_cost(PAGES)
    assert imported == pytest.approx(wire + landing, rel=1e-12)
    assert imported == pytest.approx(0.54e-3, abs=0.005e-3)


def test_a_second_import_over_the_same_link_waits_for_the_first():
    """The import is carried by the pair's FIFO link, so back-to-back
    imports queue on the wire instead of each paying an idle link."""
    server = PieServer(Simulator(seed=0), num_devices=2, placement_policy="round_robin")
    controller, model = server.controller, server.service().entry.name
    exporter, importer = _running(server, "exporter"), _running(server, "importer")
    src, dst = exporter.placements[model], importer.placements[model]
    controller.export_kv_pages(exporter, controller.alloc_kv_pages(exporter, src, PAGES), "p")
    charged = []
    _recording(dst.device, charged)
    controller.import_kv_pages(importer, "p")
    controller.import_kv_pages(importer, "p")
    (_, first, _), (_, second, _) = charged
    wire = PAGES * server.service().mover.page_bytes / (LINK_GBYTES_PER_S * 1e9)
    assert second == pytest.approx(first + wire, rel=1e-12)
    assert [link.name for link in server.service().links()] == ["kvlink:0->1"]


# -- (c) mutants ---------------------------------------------------------------------


def test_mutant_staging_that_ignores_free_pages_is_killed(monkeypatch):
    def stage(self, src, dst, src_pids):
        dst_pids = dst.memory.kv_pages.allocate(len(src_pids))  # no free-page check
        for dst_pid in dst_pids:
            dst.resources.pin_kv(dst_pid)
        self.copy(src, dst, src_pids, dst_pids)
        arrival = self.link(src.index, dst.index).reserve(
            len(src_pids) * self.page_bytes, now=self.sim.now
        )
        return dst_pids, arrival

    monkeypatch.setattr(KvMover, "stage", stage)
    with pytest.raises(OutOfResourcesError):
        run_onto_full_decode_shard(20)


def test_mutant_import_with_its_own_constants_is_killed(monkeypatch):
    def own_constants(self, instance, name, src_shard, dst_shard):
        entry = src_shard.resources.export_info(name)
        n_pages = len(entry.physical_ids)
        self._ensure_capacity(dst_shard, instance, kv_pages=n_pages)
        handles = dst_shard.resources.alloc_kv_pages(instance.instance_id, n_pages)
        pids = dst_shard.resources.resolve_kv_many(instance.instance_id, handles)
        dst_shard.service.mover.copy(src_shard, dst_shard, entry.physical_ids, pids)
        dst_shard.service.mover.charge(
            dst_shard.device, "kv_transfer", milliseconds(0.2 + 0.05 * n_pages), n_pages
        )
        entry.imports += 1
        self.metrics.cross_device_imports += 1
        return handles

    monkeypatch.setattr(Controller, "_cross_device_import", own_constants)
    with pytest.raises(AssertionError):
        test_a_cross_shard_import_lands_like_a_handoff_tail()
