"""Tests for the hazard-aware memory orchestrator (§VII-C, Fig. 19)."""

import pytest

from repro.engine.instance import Instance, InstanceState
from repro.hardware import A100_80GB
from repro.hardware.node import Node
from repro.memory import MemoryOrchestrator, OpKind
from repro.models import LLAMA2_7B
from repro.sim import Simulator

GIB = 1024**3


class Recorder:
    """Listener that records orchestrator callbacks."""

    def __init__(self):
        self.loaded = []
        self.unloaded = []
        self.scaled = []

    def on_load_complete(self, instance):
        self.loaded.append(instance)

    def on_unload_complete(self, instance):
        self.unloaded.append(instance)

    def on_scale_complete(self, instance, op):
        self.scaled.append((instance, op))


@pytest.fixture
def env():
    sim = Simulator()
    node = Node("gpu-0", A100_80GB)
    listener = Recorder()
    orchestrator = MemoryOrchestrator(sim=sim, node=node, listener=listener)
    return sim, node, listener, orchestrator


def make_instance(inst_id=0):
    return Instance(
        inst_id=inst_id, deployment="d", model=LLAMA2_7B, node=Node("gpu-0", A100_80GB)
    )


def test_admit_loads_and_activates(env):
    sim, _node, listener, orch = env
    instance = make_instance()
    duration = orch.admit_instance(instance, kv_bytes=2 * GIB)
    assert duration > 0.5  # ≈1 s for 7B weights plus KV allocation
    assert orch.optimistic_used() == instance.model.weight_bytes + orch.planned_kv_bytes(instance)
    sim.run()
    assert listener.loaded == [instance]
    assert instance.kv.allocated_bytes == orch.planned_kv_bytes(instance)


def test_admission_respects_capacity(env):
    _sim, node, _listener, orch = env
    weights = LLAMA2_7B.weight_bytes
    assert orch.can_admit(weights, 2 * GIB)
    assert not orch.can_admit(weights, node.memory_bytes)


def test_double_admit_rejected(env):
    sim, _node, _listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 1 * GIB)
    with pytest.raises(RuntimeError):
        orch.admit_instance(instance, 1 * GIB)


def test_scale_up_within_budget_executes(env):
    sim, _node, listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    sim.run()
    assert orch.request_scale(instance, 10 * GIB)
    sim.run()
    assert instance.kv.allocated_bytes >= 10 * GIB
    assert listener.scaled


def test_scale_up_beyond_optimistic_budget_rejected(env):
    sim, node, _listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    sim.run()
    too_big = node.memory_bytes  # weights + this > capacity
    assert not orch.request_scale(instance, too_big)


def test_scale_down_frees_budget_at_issue(env):
    sim, _node, _listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 20 * GIB)
    sim.run()
    before = orch.optimistic_free()
    assert orch.request_scale(instance, 4 * GIB)
    assert orch.optimistic_free() > before  # optimistic: freed immediately
    assert orch.pessimistic_free() <= before + 1  # pessimistic: not yet


def test_reservation_station_defers_conflicting_scale_up(env):
    """A scale-up issued against memory still held by an in-flight
    scale-down parks in the reservation station and executes after the
    release (the Fig. 18 hazard made safe)."""
    sim, node, _listener, orch = env
    a = make_instance(0)
    b = make_instance(1)
    capacity = node.memory_bytes
    weights = LLAMA2_7B.weight_bytes
    # Fill the node: two instances splitting the remaining memory.
    kv_each = (capacity - 2 * weights) // 2
    orch.admit_instance(a, kv_each)
    orch.admit_instance(b, kv_each)
    sim.run()
    orch.assert_no_oom()
    # a shrinks; b grows into the freed space at the same instant.
    assert orch.request_scale(a, 2 * GIB)
    assert orch.request_scale(b, kv_each + 4 * GIB)
    account_b = orch._accounts[b.inst_id]
    assert account_b.active_op is not None
    assert account_b.active_op.state.value == "reserved"  # parked
    orch.assert_no_oom()
    sim.run()
    orch.assert_no_oom()
    assert b.kv.allocated_bytes >= kv_each + 4 * GIB - b.kv.block_bytes


def test_unload_frees_and_notifies(env):
    sim, _node, listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    sim.run()
    orch.unload_instance(instance)
    sim.run()
    assert listener.unloaded == [instance]
    assert instance.state is InstanceState.UNLOADED
    assert orch.optimistic_used() == 0
    assert not orch.has_instance(instance)


def test_unload_waits_for_executing_scale(env):
    sim, _node, listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    sim.run()
    orch.request_scale(instance, 12 * GIB)  # executing now
    orch.unload_instance(instance)  # must defer until the resize completes
    sim.run()
    assert listener.unloaded == [instance]
    assert orch.optimistic_used() == 0


def test_retarget_load_kv_grows_initial_pool(env):
    sim, _node, _listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    assert orch.retarget_load_kv(instance, 6 * GIB)
    sim.run()
    assert instance.kv.allocated_bytes >= 6 * GIB - instance.kv.block_bytes


def test_scale_coalescing_while_executing(env):
    sim, _node, _listener, orch = env
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    sim.run()
    assert orch.request_scale(instance, 8 * GIB)
    assert orch.request_scale(instance, 12 * GIB)  # coalesced follow-up
    sim.run()
    assert instance.kv.allocated_bytes >= 12 * GIB - instance.kv.block_bytes


def test_op_metrics_emitted():
    sim = Simulator()
    node = Node("gpu-0", A100_80GB)
    ops = []
    orch = MemoryOrchestrator(
        sim=sim, node=node, listener=Recorder(), on_op_metric=lambda op, d: ops.append(op)
    )
    instance = make_instance()
    orch.admit_instance(instance, 2 * GIB)
    sim.run()
    orch.request_scale(instance, 6 * GIB)
    sim.run()
    kinds = {op.kind for op in ops}
    assert OpKind.LOAD in kinds
    assert OpKind.SCALE_UP in kinds


def test_reserved_scale_retargeted_to_current_size_completes(env):
    """A parked scale-up retargeted back to the current allocation runs
    as a zero-delta no-op when the station drains."""
    sim, node, listener, orch = env
    a = make_instance(0)
    b = make_instance(1)
    # Block-aligned pools, so a retarget can land exactly on the allocation.
    blocks = (node.memory_bytes - 2 * LLAMA2_7B.weight_bytes) // 2 // b.kv.block_bytes
    kv_each = blocks * b.kv.block_bytes
    orch.admit_instance(a, kv_each)
    orch.admit_instance(b, kv_each)
    sim.run()
    current = b.kv.allocated_bytes
    assert current == kv_each
    assert orch.request_scale(a, 2 * GIB)
    assert orch.request_scale(b, current + 4 * GIB)
    op = orch._accounts[b.inst_id].active_op
    assert op.state.value == "reserved"
    assert orch.request_scale(b, current)  # retarget to the allocation
    assert op.target_bytes == current
    sim.run()  # a's scale-down completes and drains the station
    assert op.state.value == "done"
    assert b.kv.allocated_bytes == current
    assert not b.kv.scaling
    assert (b, op) in listener.scaled
    orch.assert_no_oom()
