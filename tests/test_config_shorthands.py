"""PieServer / make_pie_setup configuration shorthands are *derived*: each
keyword names a ControlLayerConfig or GpuConfig field and sets that field
alone.  The edge cases are pinned here."""

import dataclasses

import pytest

from repro.bench.runners import make_pie_setup
from repro.core import PieServer, TenantSpec
from repro.core.config import ControlLayerConfig, PieConfig, with_overrides
from repro.gpu.config import GpuConfig
from repro.sim import Simulator

TENANTS = [TenantSpec(name="acme", priority_class="interactive")]


def control_of(**overrides) -> ControlLayerConfig:
    return with_overrides(PieConfig(), overrides).control


def test_false_and_none_imply_nothing():
    # None means "not given".
    assert control_of(tracing=None, prefix_cache=None) == ControlLayerConfig()
    # False is a value: it sets its own field and switches nothing else.
    assert control_of(tracing=False) == ControlLayerConfig()
    # Tenants switch no plane on: the core reads them with every plane off.
    assert control_of(tenants=TENANTS) == ControlLayerConfig(tenants=tuple(TENANTS))


def test_sequences_are_tupleised():
    control = control_of(
        tenants=TENANTS,
        fault_plan=[["shard_crash", 0.1, 0]],
    )
    assert control.tenants == tuple(TENANTS)
    assert control.fault_plan == (("shard_crash", 0.1, 0),)
    hash(control)  # the frozen config stays hashable


def test_gpu_field_names_route_to_the_gpu_config_and_no_name_is_on_both():
    control_names = {f.name for f in dataclasses.fields(ControlLayerConfig)}
    gpu_names = {f.name for f in dataclasses.fields(GpuConfig)}
    assert not control_names & gpu_names
    base = PieConfig(gpu=GpuConfig(max_batch_tokens=4096))
    config = with_overrides(
        base, dict(max_batch_tokens=24, num_devices=2, host_kv_pages=8)
    )
    gpu = config.gpu
    assert (gpu.max_batch_tokens, gpu.num_devices, gpu.host_kv_pages) == (24, 2, 8)


def test_an_unknown_key_is_a_type_error_naming_it():
    with pytest.raises(TypeError, match="prefix_cahce"):
        PieServer(Simulator(seed=0), prefix_cahce=True)
    with pytest.raises(TypeError, match="bogus"):
        make_pie_setup(bogus=None)


def test_overrides_apply_on_top_of_a_given_config():
    base = PieConfig(control=ControlLayerConfig(prefix_cache=True, swap_policy="on_demand"))
    server = PieServer(Simulator(seed=0), config=base, num_devices=2)
    assert server.config.control == base.control
    assert server.num_devices == 2


def test_make_pie_setup_forwards_every_shorthand():
    _, server = make_pie_setup(prefix_cache=True, num_devices=2, with_tools=False)
    assert server.config.control.prefix_cache is True
    assert all(shard.prefix_cache is not None for shard in server.service().shards)
